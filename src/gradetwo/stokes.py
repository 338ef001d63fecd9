"""Generalized Stokes solver: viscous block plus skew vorticity coupling.

The weak problem reads: find (u, p) with u = g on the boundary such that

    nu*(grad u, grad v) + (z x u, v) - (p, div v) = (f, v)
    -(q, div u) = 0

for all test functions (v, q), where z is a given scalar coefficient field
and ``z x u = (-z*u2, z*u1)``.  The zero-mean pressure constraint is carried
by a single scalar multiplier, which also absorbs the (quadrature-level)
net flux of the interpolated boundary data, so the bordered system is
square and uniquely solvable.  Dirichlet values are eliminated
symmetrically.

Only the skew block depends on z.  :func:`prepare_generalized_stokes` does
the rest once per problem, including one sparse LU of the Dirichlet-reduced
scalar Laplacian that both velocity components share.
:func:`solve_generalized_stokes` assembles the z-weighted mass and runs
GMRES with a block upper-triangular preconditioner: that LU for the
velocity, the lumped pressure mass over nu for the Schur complement (Elman,
Silvester & Wathen, *Finite Elements and Fast Iterative Solvers*, 2014).
The iteration count does not grow with the mesh but grows with max|z|/nu.
Solves are pure functions of their inputs and leave the prepared problem
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import spaces as fes
from .errors import FluxIncompatible, LinearSolveFailure
from .meshes import flux_per_component, normal_boundary_data
from .userdata import evaluate

__all__ = [
    "SaddleSystem", "PreparedStokes", "StokesEnergyReport",
    "assemble_generalized_stokes", "prepare_generalized_stokes",
    "solve_generalized_stokes", "stokes_energy_report", "default_flux_tol",
]

@dataclass
class SaddleSystem:
    """Assembled blocks of the generalized Stokes problem.

    ``A`` is the (nu-scaled) vector Laplacian, ``C`` the skew coupling from
    the vorticity coefficient, ``B`` the pressure/divergence block with
    entries -(q, div v), and ``mean_vec`` the pressure integrals backing the
    zero-mean multiplier.  ``dirichlet_nodes`` lists constrained velocity
    dofs in ascending order.
    """

    A: sp.csr_matrix
    C: sp.csr_matrix
    B: sp.csr_matrix
    mean_vec: np.ndarray
    dirichlet_nodes: np.ndarray
    spaces: fes.Spaces


class PreparedStokes(NamedTuple):
    """The z-independent part of a generalized Stokes problem.

    Unknowns of the reduced bordered system: each velocity component on the
    ``free`` scalar nodes, the pressure, the multiplier.  ``rhs`` is its
    right-hand side for z = 0 and ``lu`` factorises ``K_ff``.
    """

    spaces: fes.Spaces
    free: np.ndarray         # unconstrained scalar velocity nodes, ascending
    fixed: np.ndarray        # boundary scalar velocity nodes
    g_fixed: np.ndarray      # Dirichlet values at ``fixed``, shape (nb, 2)
    K_ff: sp.csr_matrix      # nu-scaled scalar Laplacian, free x free
    Bt: sp.csr_matrix        # transposed divergence block, 2*free x pressure
    border: sp.csr_matrix    # pressure integrals, one column
    rhs: np.ndarray
    lu: object
    schur: np.ndarray        # lumped pressure mass over nu


class StokesEnergyReport(NamedTuple):
    viscous: float        # nu * |u|_H1^2
    forcing: float        # (f, u)
    skew: float           # u^T C(z) u of the assembled coupling block
    balance_gap: float    # |viscous - forcing| (meaningful for g = 0)
    div_weak_l2: float    # L2 norm of the pressure-space projection of div u
    div_broken_l2: float  # pointwise L2 norm of div u (consistency level)


def _scalar_matrix(ctx, cell_blocks):
    """Sum (nt, 6, 6) cell blocks into a CSR matrix over the scalar nodes."""
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes  # (nt, 6)
    rows = np.repeat(nodes, 6, axis=1).ravel()
    cols = np.tile(nodes, (1, 6)).ravel()
    return sp.coo_matrix((cell_blocks.ravel(), (rows, cols)),
                         shape=(n, n)).tocsr()


def _stiffness(ctx, nu):
    """nu-scaled scalar P2 stiffness matrix."""
    w = ctx.cell_qweights  # (nt, nq)
    G = ctx.p2_grad_at_q   # (nt, 6, nq, 2)
    K = _scalar_matrix(ctx, nu * np.einsum("tq,taqd,tbqd->tab", w, G, G))
    if not np.all(np.isfinite(K.data)):
        raise LinearSolveFailure("non-finite entries in the viscous block")
    return K


def _zmass(ctx, z):
    """z-weighted scalar P2 mass matrix."""
    if not np.all(np.isfinite(z.coefficients)):
        raise ValueError("non-finite coefficient field z")
    V = ctx.p2_at_q  # (6, nq)
    Mz = _scalar_matrix(ctx, np.einsum(
        "tq,tq,aq,bq->tab", ctx.cell_qweights, fes.scalar_cell_values(z),
        V, V))
    if not np.all(np.isfinite(Mz.data)):
        raise LinearSolveFailure("non-finite entries in the coupling block")
    return Mz


def _skew(Mz):
    """(z x w, v) = int z * (w1 v2 - w2 v1): rows v-, cols w-component."""
    return sp.bmat([[None, -Mz], [Mz, None]], format="csr")


def _divergence_blocks(spaces_):
    """B split by velocity component, each (pressure rows, scalar nodes)."""
    ctx = spaces_.context
    w = ctx.cell_qweights
    G = ctx.p2_grad_at_q
    P = ctx.p1_at_q  # (3, nq)
    # entry [t, k, a] pairs pressure row triangles[t, k] with velocity
    # column nodes[t, a]; -(q, dv_c/dx_c) for each velocity component c
    nt = ctx.mesh.num_triangles
    rows = np.repeat(ctx.mesh.triangles, 6, axis=1).ravel()
    cols = np.broadcast_to(ctx.cell_scalar_nodes[:, None, :],
                           (nt, 3, 6)).ravel()
    shape = (spaces_.pressure.dof_count, ctx.num_scalar_nodes)
    return tuple(
        sp.coo_matrix((-np.einsum("tq,kq,taq->tka", w, P, G[:, :, :, d])
                       .ravel(), (rows, cols)), shape=shape).tocsr()
        for d in (0, 1))


def _pressure_integrals(mesh):
    """Integral of each P1 pressure basis function (lumped mass)."""
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return out


def assemble_generalized_stokes(spaces_, nu, z):
    """Assemble the saddle blocks for viscosity ``nu`` and coefficient ``z``.

    ``z`` is a vorticity-space field; the skew block satisfies v^T C v = 0
    exactly (the two off-diagonal component blocks are transposes of one
    z-weighted mass matrix with opposite signs).
    """
    if not (nu > 0.0):
        raise ValueError("nu must be positive")
    ctx = spaces_.context
    C = _skew(_zmass(ctx, z))
    K = _stiffness(ctx, nu)
    A = sp.bmat([[K, None], [None, K]], format="csr")
    B = sp.hstack(_divergence_blocks(spaces_)).tocsr()
    n = ctx.num_scalar_nodes
    nodes = ctx.boundary_scalar_nodes
    dirichlet = np.sort(np.concatenate([nodes, n + nodes]))
    return SaddleSystem(A, C, B, _pressure_integrals(ctx.mesh), dirichlet,
                        spaces_)


def _cell_values(ctx, f):
    """A vector callable at the cell quadrature points, shape (nt, nq, 2)."""
    pts = ctx.cell_qpoints
    return evaluate(f, pts[..., 0], pts[..., 1])


def _load_vector(ctx, f):
    """(f, v) load of each velocity component, shape (2, scalar nodes)."""
    load = np.einsum("tq,tqc,aq->cta", ctx.cell_qweights, _cell_values(ctx, f),
                     ctx.p2_at_q)
    nodes = ctx.cell_scalar_nodes.ravel()
    return np.stack([np.bincount(nodes, load[c].ravel(),
                                 minlength=ctx.num_scalar_nodes)
                     for c in (0, 1)])


def default_flux_tol(mesh, g):
    """1e-8 times the boundary scale of the normal data (floor at 1e-8)."""
    gn = normal_boundary_data(mesh, g)[1]
    return 1e-8 * max(1.0, float((mesh.boundary_quad_weights()
                                  * np.abs(gn)).sum()))


def check_flux_compatibility(mesh, g, flux_tol=None):
    """Raise :class:`FluxIncompatible` when a component carries net flux."""
    if flux_tol is None:
        flux_tol = default_flux_tol(mesh, g)
    fluxes = flux_per_component(mesh, g)
    for comp, flux in enumerate(fluxes):
        if abs(flux) > flux_tol:
            raise FluxIncompatible(comp, flux, flux_tol)
    return fluxes


def _boundary_values(ctx, g):
    """Velocity Dirichlet values at constrained dofs (node interpolation)."""
    pts = ctx.velocity_nodes[ctx.boundary_scalar_nodes]
    vals = evaluate(g, pts[:, 0], pts[:, 1])
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite boundary data")
    return vals  # (boundary nodes, 2)


def prepare_generalized_stokes(spaces_, nu, f, g, flux_tol=None):
    """Do the z-independent work of the generalized Stokes problem once.

    ``f`` and ``g`` are callables ``(x, y) -> (vx, vy)``, called with
    coordinate arrays through :func:`gradetwo.userdata.evaluate`.  The
    boundary data must be flux-compatible on every boundary component
    (checked first, raising :class:`FluxIncompatible`).  The result serves
    any number of :func:`solve_generalized_stokes` calls with the same
    ``nu``, ``f`` and ``g``.
    """
    if not (nu > 0.0):
        raise ValueError("nu must be positive")
    ctx = spaces_.context
    check_flux_compatibility(ctx.mesh, g, flux_tol)
    fixed = ctx.boundary_scalar_nodes
    free = np.setdiff1d(np.arange(ctx.num_scalar_nodes), fixed)
    g_fixed = _boundary_values(ctx, g)
    K = _stiffness(ctx, nu)[free]
    K_ff = K[:, free]
    Bx, By = _divergence_blocks(spaces_)
    rhs = np.concatenate([
        (_load_vector(ctx, f)[:, free] - (K[:, fixed] @ g_fixed).T).ravel(),
        -(Bx[:, fixed] @ g_fixed[:, 0] + By[:, fixed] @ g_fixed[:, 1]),
        [0.0],
    ])
    try:
        lu = spla.splu(K_ff.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolveFailure(
            f"viscous block factorisation failed: {exc}") from exc
    mean_vec = _pressure_integrals(ctx.mesh)
    return PreparedStokes(
        spaces_, free, fixed, g_fixed, K_ff,
        sp.vstack([Bx[:, free].T, By[:, free].T]).tocsr(),
        sp.csr_matrix(mean_vec[:, None]), rhs, lu, mean_vec / nu)


def solve_generalized_stokes(prepared, z):
    """Solve for (u, p) given the prepared problem and coefficient ``z``.

    Returns velocity and zero-mean pressure fields; the residual of the
    reduced bordered system is checked against 1e-7 times its scale and
    the pressure mean is asserted below 1e-10.
    """
    prep = prepared
    spaces_ = prep.spaces
    ctx = spaces_.context
    Mz = _zmass(ctx, z)[prep.free]
    Mz_ff = Mz[:, prep.free]
    Mz_fb = Mz[:, prep.fixed]
    velocity = sp.bmat([[prep.K_ff, -Mz_ff], [Mz_ff, prep.K_ff]])
    K = sp.bmat([[velocity, prep.Bt, None],
                 [prep.Bt.T, None, prep.border],
                 [None, prep.border.T, None]], format="csr")
    nf = prep.free.size
    rhs = prep.rhs.copy()
    rhs[:nf] += Mz_fb @ prep.g_fixed[:, 1]
    rhs[nf:2 * nf] -= Mz_fb @ prep.g_fixed[:, 0]

    def precondition(r):
        # block upper-triangular: pressure from the Schur surrogate, velocity
        # from the shared LU on each component of r_u - B^T p, multiplier
        # by the identity
        p = -r[2 * nf:-1] / prep.schur
        ru = (r[:2 * nf] - prep.Bt @ p).reshape(2, nf).T
        return np.concatenate([prep.lu.solve(ru).T.ravel(), p, r[-1:]])

    # one cycle of 200 holds a typical solve (about 55 iterations); up to
    # five cycles for strong coupling, where the count grows with |z|/nu
    M = spla.LinearOperator(K.shape, precondition)
    x, info = spla.gmres(K, rhs, rtol=1e-12, atol=0.0, restart=200,
                         maxiter=5, M=M)
    if info != 0:
        raise LinearSolveFailure(f"GMRES did not converge (info={info})")
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("linear solve produced non-finite values")
    resid = np.linalg.norm(K @ x - rhs)
    scale = np.linalg.norm(rhs) + 1.0
    if resid > 1e-7 * scale:
        raise LinearSolveFailure(
            f"linear solve residual {resid:.3e} exceeds 1e-7*scale")

    full = np.empty((2, ctx.num_scalar_nodes))
    full[:, prep.fixed] = prep.g_fixed.T
    full[:, prep.free] = x[:2 * nf].reshape(2, nf)
    u = spaces_.velocity.new_field(full.ravel())
    p = spaces_.pressure.new_field(x[2 * nf:-1])
    mean = fes.pressure_mean(p)
    if abs(mean) > 1e-10:
        raise LinearSolveFailure(
            f"pressure mean {mean:.3e} violates the zero-mean constraint")
    return u, p


def stokes_energy_report(u, p, z, f, nu):
    """Evaluate both sides of the energy identity and divergence norms.

    For homogeneous boundary data the identity nu*|u|_H1^2 = (f, u) holds to
    solver precision.  The skew term is u^T C(z) u with the assembled
    coupling block, which vanishes to round-off when that block is
    skew-symmetric.  The weak divergence is the pressure-space projection
    of div u (the quantity the constraint actually controls); the broken
    norm is the pointwise one and sits at discretization level for
    interpolated data.
    """
    ctx = u.space.context
    w = ctx.cell_qweights
    grads = fes.velocity_cell_gradients(u)
    viscous = nu * float((w * (grads ** 2).sum(axis=(2, 3))).sum())
    forcing = float((w[:, :, None] * _cell_values(ctx, f)
                     * fes.velocity_cell_values(u)).sum())
    coeffs = u.coefficients
    skew = float(coeffs @ (_skew(_zmass(ctx, z)) @ coeffs))
    div = grads[:, :, 0, 0] + grads[:, :, 1, 1]
    div_broken = float(np.sqrt((w * div ** 2).sum()))
    div_weak = fes.velocity_weak_divergence_l2(u)
    return StokesEnergyReport(
        viscous=viscous,
        forcing=forcing,
        skew=skew,
        balance_gap=abs(viscous - forcing),
        div_weak_l2=div_weak,
        div_broken_l2=div_broken,
    )
