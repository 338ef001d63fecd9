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

Only the skew block depends on z.  :func:`prepare_generalized_stokes`
does the rest once per problem: the reduced bordered matrix at z = 0,
whose pattern already holds the two skew blocks, integer maps from the
cell pairs of the z-weighted mass into its data and into the right-hand
side, and two sparse LUs: of the pressure mass and of the
Dirichlet-reduced scalar Laplacian that both velocity components share.
:func:`solve_generalized_stokes` contracts z at the quadrature points,
scatters the result into a copy of that matrix's data and runs GMRES
with a block upper-triangular preconditioner: that LU for the velocity,
and for the pressure and the multiplier the exact inverse of the
bordered Schur surrogate [[-M_p/nu, m], [m^T, 0]], with M_p the
consistent pressure mass and m the pressure integrals (Elman, Silvester
& Wathen, *Finite Elements and Fast Iterative Solvers*, 2014).  The
spaces' context computes m as M_p 1, so M_p 1 = m holds bit for bit;
that inverse costs one mass solve, and the zero mean holds at any GMRES
tolerance.  The iteration count does not grow with the mesh but grows
with max|z|/nu.  A solve may start GMRES from a guess, such as the
solution at the previous z of a coupling loop; it is used only when its
residual is below that of the zero start.  On the trig case at n=32
(nu=1, alpha=0.1, the seed-11 mesh of perfbench's coupled-trig) the
eight solves of one coupling loop, at the loop's rtol of 1e-10, take 25,
32, 28, 24, 20, 17, 12 and 6 iterations warm-started, and the pairing
solve at 1e-12 takes 11; from zero they take 25 and then 34 each (29 and
then 44 at 1e-12).  Solves are pure functions of their inputs and leave
the prepared problem unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import spaces as fes
from .errors import FluxIncompatible, LinearSolveFailure, MeshTopologyError
from .meshes import flux_per_component, normal_boundary_data
from .userdata import evaluate

__all__ = [
    "PreparedStokes", "StokesEnergyReport", "prepare_generalized_stokes",
    "solve_generalized_stokes", "stokes_energy_report", "default_flux_tol",
]

class PreparedStokes(NamedTuple):
    """The z-independent part of a generalized Stokes problem.

    Unknowns of the reduced bordered system: each velocity component on the
    ``free`` scalar nodes, the pressure, the multiplier.  ``matrix`` and
    ``rhs`` are the system at z = 0; a solve fills the skew blocks of a
    copy of ``matrix.data`` through ``cell_map`` and ``skew_pos`` and
    corrects ``rhs`` through ``fb_rows`` and ``fb_cols``.  ``lu``
    factorises the free-free scalar Laplacian.
    """

    spaces: fes.Spaces
    free: np.ndarray         # unconstrained scalar velocity nodes, ascending
    fixed: np.ndarray        # boundary scalar velocity nodes
    g_fixed: np.ndarray      # Dirichlet values at ``fixed``, shape (nb, 2)
    matrix: sp.csr_matrix    # reduced bordered matrix at z = 0, canonical
    Bt: sp.csr_matrix        # transposed divergence block, 2*free x pressure
    rhs: np.ndarray
    lu: object
    nu: float
    schur: object            # LU of the context's P1 pressure mass M_p,
                             # taken once here; the Schur surrogate is M_p / nu
    vv: np.ndarray           # V_a*V_b at the cell quadrature points, (36, nq)
    cell_map: np.ndarray     # int32: cell pair (t, 6a+b) -> entry of the
                             # free-free skew pattern (first ns), of the
                             # free-fixed pattern (next nfb) or a dump slot
    skew_pos: np.ndarray     # int32 (2, ns): data positions in ``matrix``
                             # of the -M_z (row u1, col u2) and +M_z blocks
    fb_rows: np.ndarray      # int32 (nfb,): free row of each free-fixed entry
    fb_cols: np.ndarray      # int32 (nfb,): its index into ``fixed``


class StokesEnergyReport(NamedTuple):
    viscous: float        # nu * |u|_H1^2
    forcing: float        # (f, u)
    skew: float           # u^T C(z) u of the filled coupling block
    balance_gap: float    # |viscous - forcing| (meaningful for g = 0)
    div_weak_l2: float    # L2 norm of the pressure-space projection of div u
    div_broken_l2: float  # pointwise L2 norm of div u (consistency level)


def _cell_pairs(ctx):
    """Row and column scalar nodes of each cell's 6x6 pairs, row-major."""
    nodes = ctx.cell_scalar_nodes  # (nt, 6)
    return np.repeat(nodes, 6, axis=1).ravel(), np.tile(nodes, (1, 6)).ravel()


def _scalar_matrix(ctx, cell_blocks):
    """Sum cell blocks, 6x6 row-major per cell, into a CSR matrix over the
    scalar nodes."""
    n = ctx.num_scalar_nodes
    return sp.coo_matrix((cell_blocks.ravel(), _cell_pairs(ctx)),
                         shape=(n, n)).tocsr()


def _stiffness(ctx, nu):
    """nu-scaled scalar P2 stiffness matrix."""
    w = ctx.cell_qweights  # (nt, nq)
    G = ctx.p2_grad_at_q   # (nt, 6, nq, 2)
    K = _scalar_matrix(ctx, nu * np.einsum("tq,taqd,tbqd->tab", w, G, G))
    if not np.all(np.isfinite(K.data)):
        raise LinearSolveFailure("non-finite entries in the viscous block")
    return K


def _mass_products(ctx):
    """V_a*V_b of the P2 basis at the cell quadrature points, (36, nq)."""
    V = ctx.p2_at_q  # (6, nq)
    return (V[:, None] * V).reshape(36, -1)


def _zmass_cells(ctx, z, vv):
    """Cell blocks of the z-weighted P2 mass, shape (nt, 36), row-major.

    One two-operand einsum, which calls no BLAS, as the transport assembly.
    """
    if not np.all(np.isfinite(z.coefficients)):
        raise ValueError("non-finite coefficient field z")
    cells = np.einsum("tq,kq->tk",
                      ctx.cell_qweights * fes.scalar_cell_values(z), vv)
    if not np.all(np.isfinite(cells)):
        raise LinearSolveFailure("non-finite entries in the coupling block")
    return cells


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
    if flux_tol is not None and not (0.0 < flux_tol < np.inf):
        raise ValueError("flux_tol must be positive and finite")
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
    coordinate arrays through :func:`gradetwo.userdata.evaluate`.  Checked
    first: every mesh vertex belongs to a triangle (else the velocity block
    and the pressure mass have zero rows; :class:`MeshTopologyError`), and
    the boundary data are flux-compatible on every boundary component
    (:class:`FluxIncompatible`).  The result serves any number of
    :func:`solve_generalized_stokes` calls with the same ``nu``, ``f`` and
    ``g``.
    """
    if not (0.0 < nu < np.inf):
        raise ValueError("nu must be positive and finite")
    ctx = spaces_.context
    mesh = ctx.mesh
    orphans = np.flatnonzero(np.bincount(mesh.triangles.ravel(),
                                         minlength=mesh.num_vertices) == 0)
    if orphans.size:
        raise MeshTopologyError(
            f"{orphans.size} mesh vertices belong to no triangle (first: "
            f"vertex {orphans[0]}); the Stokes problem needs every vertex "
            "in a cell")
    check_flux_compatibility(mesh, g, flux_tol)
    n = ctx.num_scalar_nodes
    fixed = ctx.boundary_scalar_nodes
    free = np.setdiff1d(np.arange(n), fixed)
    nf = free.size
    g_fixed = _boundary_values(ctx, g)
    K = _stiffness(ctx, nu)[free]
    K_ff = K[:, free]
    Bx, By = _divergence_blocks(spaces_)
    rhs = np.concatenate([
        (_load_vector(ctx, f)[:, free] - (K[:, fixed] @ g_fixed).T).ravel(),
        -(Bx[:, fixed] @ g_fixed[:, 0] + By[:, fixed] @ g_fixed[:, 1]),
        [0.0],
    ])
    # both matrices are symmetric: columns in minimum degree on A^T + A
    try:
        lu = spla.splu(K_ff.tocsc(), permc_spec="MMD_AT_PLUS_A")
        schur = spla.splu(ctx.p1_mass.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolveFailure(
            f"Stokes set-up factorisation failed: {exc}") from exc

    # the cell pairs of the z-weighted mass: free-free pairs fill the skew
    # blocks, free-fixed pairs the right-hand side, the rest are dropped
    free_ix = np.full(n, -1)
    free_ix[free] = np.arange(nf)
    fixed_ix = np.full(n, -1)
    fixed_ix[fixed] = np.arange(fixed.size)
    rows, cols = _cell_pairs(ctx)
    r, cf, cb = free_ix[rows], free_ix[cols], fixed_ix[cols]
    ff = (r >= 0) & (cf >= 0)
    fb = (r >= 0) & (cb >= 0)
    # sorted keys are the entries of a canonical CSR pattern
    skew, skew_of_pair = np.unique(r[ff] * nf + cf[ff], return_inverse=True)
    bnd, bnd_of_pair = np.unique(r[fb] * fixed.size + cb[fb],
                                 return_inverse=True)
    cell_map = np.full(r.size, skew.size + bnd.size, dtype=np.int32)
    cell_map[ff] = skew_of_pair
    cell_map[fb] = skew.size + bnd_of_pair
    sr, sc = np.divmod(skew, nf)
    S0 = sp.csr_matrix((np.zeros(skew.size), (sr, sc)), shape=(nf, nf))
    Bt = sp.vstack([Bx[:, free].T, By[:, free].T]).tocsr()
    border = sp.csr_matrix(ctx.p1_integrals[:, None])
    matrix = sp.bmat([[sp.bmat([[K_ff, S0], [S0, K_ff]]), Bt, None],
                      [Bt.T, None, border],
                      [None, border.T, None]], format="csr")
    matrix.sum_duplicates()
    skew_pos = np.stack([_positions(matrix, sr, nf + sc),
                         _positions(matrix, nf + sr, sc)]).astype(np.int32)
    return PreparedStokes(
        spaces_, free, fixed, g_fixed, matrix, Bt, rhs, lu, nu, schur,
        _mass_products(ctx), cell_map, skew_pos,
        (bnd // fixed.size).astype(np.int32),
        (bnd % fixed.size).astype(np.int32))


def _positions(A, rows, cols):
    """Data positions of the entries (rows, cols) of canonical CSR ``A``."""
    keys = (np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)) * A.shape[1]
            + A.indices)
    return np.searchsorted(keys, rows * A.shape[1] + cols)


def _bordered_system(prep, z):
    """The reduced bordered matrix and right-hand side at coefficient ``z``.

    The matrix shares ``indices`` and ``indptr`` with ``prep.matrix`` and
    owns its data; nothing of ``prep`` is written.
    """
    ctx = prep.spaces.context
    ns = prep.skew_pos.shape[1]
    m = np.bincount(prep.cell_map, _zmass_cells(ctx, z, prep.vv).ravel(),
                    minlength=ns + prep.fb_rows.size + 1)
    data = prep.matrix.data.copy()
    data[prep.skew_pos[0]] = -m[:ns]
    data[prep.skew_pos[1]] = m[:ns]
    K = sp.csr_matrix((data, prep.matrix.indices, prep.matrix.indptr),
                      shape=prep.matrix.shape)
    mg = m[ns:ns + prep.fb_rows.size, None] * prep.g_fixed[prep.fb_cols]
    nf = prep.free.size
    rhs = prep.rhs.copy()
    rhs[:nf] += np.bincount(prep.fb_rows, mg[:, 1], minlength=nf)
    rhs[nf:2 * nf] -= np.bincount(prep.fb_rows, mg[:, 0], minlength=nf)
    return K, rhs


def solve_generalized_stokes(prepared, z, guess=None, rtol=1e-12):
    """Solve for (u, p) given the prepared problem and coefficient ``z``.

    ``guess`` is an optional ``(u, p)`` pair on the same spaces, typically
    the solution at a nearby ``z``; GMRES starts from it when its residual
    is below that of the zero start, and from zero otherwise.  A guess of
    the wrong size raises ``ValueError``.  GMRES stops at ``rtol`` times
    the norm of the reduced right-hand side.  Returns velocity and
    zero-mean pressure fields; the residual of the reduced bordered system
    is checked against 1e-7 times its scale and the pressure mean is
    asserted below 1e-10.
    """
    prep = prepared
    spaces_ = prep.spaces
    ctx = spaces_.context
    K, rhs = _bordered_system(prep, z)
    nf = prep.free.size
    total = ctx.p1_integrals.sum()

    def precondition(r):
        # block upper-triangular: pressure and multiplier from the exact
        # inverse of the bordered surrogate [[-M_p/nu, m], [m^T, 0]] (exact
        # since m is M_p 1, so m^T M_p^-1 = 1^T), velocity from the shared
        # LU on each component of r_u - B^T p
        rp = r[2 * nf:-1]
        lam = (r[-1] / prep.nu + rp.sum()) / total
        p = prep.nu * (lam - prep.schur.solve(rp))
        ru = (r[:2 * nf] - prep.Bt @ p).reshape(2, nf).T
        return np.concatenate([prep.lu.solve(ru).T.ravel(), p, [lam]])

    x0 = None
    if guess is not None:
        x0 = _reduced_guess(prep, *guess)
        if not np.linalg.norm(rhs - K @ x0) < np.linalg.norm(rhs):
            x0 = None
    # one cycle of 200 holds a typical solve (trig case, n=32: 44
    # iterations from zero at rtol 1e-12, 6 to 32 warm-started); up to
    # five cycles for strong coupling, where the count grows with |z|/nu
    # with its dtype given, scipy does not probe the preconditioner with a
    # zero vector on every solve
    M = spla.LinearOperator(K.shape, precondition, dtype=float)
    x, info = spla.gmres(K, rhs, x0=x0, rtol=rtol, atol=0.0, restart=200,
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


def _reduced_guess(prep, u, p):
    """(u, p) as unknowns of the reduced bordered system, multiplier 0."""
    sizes = (u.coefficients.size, p.coefficients.size)
    expected = (prep.spaces.velocity.dof_count, prep.spaces.pressure.dof_count)
    if sizes != expected:
        raise ValueError(f"guess sizes {sizes} do not match the velocity "
                         f"and pressure spaces {expected}")
    return np.concatenate([u.coefficients.reshape(2, -1)[:, prep.free].ravel(),
                           p.coefficients, [0.0]])


def stokes_energy_report(u, p, z, f, nu):
    """Evaluate both sides of the energy identity and divergence norms.

    For homogeneous boundary data the identity nu*|u|_H1^2 = (f, u) holds to
    solver precision.  The skew term is u^T C(z) u, summed over the cell
    blocks of the z-weighted mass that the solves fill into the coupling
    block; it vanishes to round-off when that block is skew-symmetric.
    The weak divergence is the pressure-space projection of div u (the
    quantity the constraint actually controls); the broken norm is the
    pointwise one and sits at discretization level for interpolated data.
    """
    ctx = u.space.context
    w = ctx.cell_qweights
    grads = fes.velocity_cell_gradients(u)
    viscous = nu * float((w * (grads ** 2).sum(axis=(2, 3))).sum())
    forcing = float((w[:, :, None] * _cell_values(ctx, f)
                     * fes.velocity_cell_values(u)).sum())
    # u^T C u = (M_z u1, u2) - (M_z u2, u1), cell by cell
    c = u.coefficients.reshape(2, -1)[:, ctx.cell_scalar_nodes]
    mz = _zmass_cells(ctx, z, _mass_products(ctx)).reshape(-1, 6, 6)
    skew = float(np.einsum("ta,tab,tb->", c[1], mz, c[0])
                 - np.einsum("ta,tab,tb->", c[0], mz, c[1]))
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
