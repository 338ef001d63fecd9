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

Only the skew block depends on z, and only it couples the two velocity
components: the velocity block [[K, -M_z], [M_z, K]] is the real form of
K + i M_z acting on w = u1 + i u2 (Day & Heroux, SIAM J. Sci. Comput. 23,
2001).  :func:`prepare_generalized_stokes` does the rest once per problem:
K on the pattern of the z-weighted mass M_z in the free rows, over every
scalar node with the free columns first and the fixed ones after them, a
canonical CSR whose fixed columns lift the boundary values; the
divergence block and the load, with the stiffness and divergence cell
blocks in closed form in the barycentric gradients; one integer map from
the cell pairs into that pattern; and two sparse LUs, of the pressure
mass and of the Dirichlet-reduced scalar Laplacian that both velocity
components share.  :func:`solve_generalized_stokes` contracts z at the
quadrature points, fills i M_z into the one pattern, lifts the boundary
values by the fixed columns, applies the bordered system with the free
columns of K + i M_z by blocks and runs a real GMRES with a block
upper-triangular preconditioner: that LU for the velocity, and for the
pressure and the multiplier the exact inverse of the bordered Schur
surrogate [[-M_p/nu, m], [m^T, 0]], with M_p the consistent pressure mass
and m the pressure integrals (Elman, Silvester & Wathen, *Finite Elements
and Fast Iterative Solvers*, 2014).
The spaces' context computes m as M_p 1, so M_p 1 = m holds bit for bit;
that inverse costs one mass solve, and the zero mean holds at any GMRES
tolerance.  The iteration count does not grow with the mesh but grows
with max|z|/nu.

The GMRES is the module's own (:func:`_gmres`): left-preconditioned and
restarted every 200 iterations, its basis orthogonalised by classical
Gram-Schmidt done twice in products too small for OpenBLAS to thread, and
with scipy's stopping rule: a cycle ends when the preconditioned residual
falls to rtol times the preconditioned right-hand side, and the solve
when the true residual falls to rtol times the right-hand side.  A solve
may start from a list of (u, p) pairs, such as a coupling loop's last
solutions, combined to the least residual; the start is used only when
its residual is below that of the zero start.  On the trig case at n=32
(nu=1, alpha=0.1, the seed-11 mesh of perfbench's coupled-trig) the eight
solves of one coupling loop, at the loop's rtol of 1e-10, each after the
first started from up to three of the loop's last solutions, take 25, 32,
27, 24, 18, 12, 5 and 0 iterations, and the pairing solve at 1e-12 takes
12; from zero they take 25 and then 34 each (29 and then 44 at 1e-12).
Solves are pure functions of their inputs and leave the prepared problem
unchanged.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import spaces as fes
from .errors import FluxIncompatible, LinearSolveFailure, MeshTopologyError
from .meshes import flux_per_component
from .userdata import evaluate

__all__ = [
    "PreparedStokes", "StokesEnergyReport", "prepare_generalized_stokes",
    "solve_generalized_stokes", "stokes_energy_report",
]

class PreparedStokes(NamedTuple):
    """The z-independent part of a generalized Stokes problem.

    Unknowns of the reduced bordered system: each velocity component on the
    ``free`` scalar nodes, the pressure, the multiplier.  ``velocity`` is
    K on the free rows over every scalar node, its columns numbered
    ``free`` first and ``fixed`` after them; a solve fills i M_z into it,
    applies its free columns and lifts the boundary values by its fixed
    ones, which ``rhs`` lacks.  With ``Bt`` and the pressure integrals,
    its free columns are the matrix at z = 0.  ``lu`` factorises the
    free-free scalar Laplacian.
    """

    spaces: fes.Spaces
    free: np.ndarray         # unconstrained scalar velocity nodes, ascending
    fixed: np.ndarray        # boundary scalar velocity nodes
    g_fixed: np.ndarray      # Dirichlet values at ``fixed``, shape (nb, 2)
    velocity: sp.csr_matrix  # K on the free-row pattern of M_z, canonical,
                             # (free, scalar nodes); an exact 0 at the six
                             # pairs K skips
    Bt: sp.csr_matrix        # transposed divergence block, 2*free x pressure
    B: sp.csr_matrix         # the divergence block, Bt's transpose
    rhs: np.ndarray
    lu: object
    nu: float
    schur: object            # LU of the context's P1 pressure mass M_p,
                             # taken once here; the Schur surrogate is M_p / nu
    cell_map: np.ndarray     # int32: cell pair (t, 6a+b) -> entry of
                             # ``velocity``, or a dump slot (nnz) for a
                             # pair in a fixed row


class StokesEnergyReport(NamedTuple):
    """Both sides of the energy identity and the divergence norms of one
    velocity (see :func:`stokes_energy_report`); no term depends on z."""

    viscous: float        # nu * |u|_H1^2
    forcing: float        # (f, u)
    balance_gap: float    # |viscous - forcing| (meaningful for g = 0)
    div_weak_l2: float    # L2 norm of the pressure-space projection of div u
    div_broken_l2: float  # pointwise L2 norm of div u (consistency level)


# cell averages of products of the P2 derivatives dphi_a/dlambda_k, by the
# 7-point rule, which is exact for these degree-2 integrands:
# _STIFFNESS[k, l, a, b] of dphi_a/dlambda_k * dphi_b/dlambda_l,
# _DIVERGENCE[l, k, a] of lambda_k * dphi_a/dlambda_l
_DLAMBDA = fes.p2_lambda_derivatives(fes.TRI_QP)  # (6, nq, 3)
_STIFFNESS = np.einsum("q,aqk,bql->klab", fes.TRI_QW, _DLAMBDA, _DLAMBDA)
_DIVERGENCE = np.einsum("q,kq,aql->lka", fes.TRI_QW, fes.P1_AT_Q, _DLAMBDA)
# V_a*V_b of the P2 basis at the cell quadrature points, (36, nq)
_MASS_PRODUCTS = (fes.P2_AT_Q[:, None] * fes.P2_AT_Q).reshape(36, -1)
# mask of the 30 row-major pairs (a, b) of a cell's stiffness block that
# couple: vertex i and the midpoint 3+i of its opposite edge do not, since
# phi_i varies with lambda_i alone, phi_{3+i} with the other two, and
# (4 lambda_i - 1) lambda_j integrates to zero for j != i; _STIFFNESS
# holds only round-off there
_STIFFNESS_PAIRS = (
    np.abs(np.subtract.outer(np.arange(6), np.arange(6))).ravel() != 3)


def _stiffness_cells(ctx, nu):
    """nu-scaled cell blocks of the scalar P2 stiffness, (nt, 36) row-major,
    in closed form: the block of cell t is nu area_t sum_kl _STIFFNESS[k, l]
    (grad lambda_k . grad lambda_l)[t] on :data:`_STIFFNESS_PAIRS`, and an
    exact 0 on the other six pairs."""
    gl = ctx.grad_lambda  # (nt, 3, 2)
    dots = np.einsum("tkd,tld->tkl", gl, gl).reshape(-1, 9)
    kept = _STIFFNESS.reshape(9, 36) * _STIFFNESS_PAIRS
    cells = (nu * ctx.mesh.areas)[:, None] * np.einsum("tk,kj->tj", dots, kept)
    if not np.all(np.isfinite(cells)):
        raise LinearSolveFailure("non-finite entries in the viscous block")
    return cells


def _zmass_cells(ctx, z):
    """Cell blocks of the z-weighted P2 mass, shape (nt, 36), row-major.

    One two-operand einsum, which calls no BLAS, as the transport assembly.
    """
    if not np.all(np.isfinite(z.coefficients)):
        raise ValueError("non-finite coefficient field z")
    cells = np.einsum("tq,kq->tk",
                      ctx.cell_qweights * fes.scalar_cell_values(z),
                      _MASS_PRODUCTS)
    if not np.all(np.isfinite(cells)):
        raise LinearSolveFailure("non-finite entries in the coupling block")
    return cells


def _divergence_blocks(spaces_):
    """B split by velocity component, each (pressure rows, scalar nodes), in
    closed form: -(q_k, d phi_a / dx_d) on cell t is
    -area_t sum_l _DIVERGENCE[l, k, a] (grad lambda_l)[t, d]."""
    ctx = spaces_.context
    # entry [t, k, a] pairs pressure row triangles[t, k] with velocity
    # column nodes[t, a]; -(q, dv_c/dx_c) for each velocity component c
    nt = ctx.mesh.num_triangles
    rows = np.repeat(ctx.mesh.triangles, 6, axis=1).ravel()
    cols = np.broadcast_to(ctx.cell_scalar_nodes[:, None, :],
                           (nt, 3, 6)).ravel()
    shape = (spaces_.pressure.dof_count, ctx.num_scalar_nodes)
    D = _DIVERGENCE.reshape(3, 18)
    scale = -ctx.mesh.areas[:, None]
    gl = ctx.grad_lambda
    return tuple(
        sp.coo_matrix(((scale * np.einsum("tl,lj->tj", gl[:, :, d], D))
                       .ravel(), (rows, cols)), shape=shape).tocsr()
        for d in (0, 1))


def _load_vector(ctx, f):
    """(f, v) load of each velocity component, shape (2, scalar nodes)."""
    load = np.einsum("tq,tqc,aq->cta", ctx.cell_qweights,
                     fes.data_cell_values(ctx, f), fes.P2_AT_Q)
    nodes = ctx.cell_scalar_nodes.ravel()
    return np.stack([np.bincount(nodes, load[c].ravel(),
                                 minlength=ctx.num_scalar_nodes)
                     for c in (0, 1)])


def check_flux_compatibility(mesh, g, flux_tol=None):
    """Raise :class:`FluxIncompatible` when a component carries net flux.

    The default ``flux_tol`` is 1e-8 times the boundary integral of |g.n|,
    floored at 1e-8; it and the fluxes come from one evaluation of g.
    """
    if flux_tol is not None and not (0.0 < flux_tol < np.inf):
        raise ValueError("flux_tol must be positive and finite")
    fluxes = flux_per_component(mesh, g)
    if flux_tol is None:
        flux_tol = 1e-8 * max(1.0, fluxes.absolute)
    for comp, flux in enumerate(fluxes.net):
        if abs(flux) > flux_tol:
            raise FluxIncompatible(comp, flux, flux_tol)


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
    fixed = ctx.boundary_scalar_nodes
    free = np.setdiff1d(np.arange(ctx.num_scalar_nodes), fixed)
    nf = free.size
    g_fixed = _boundary_values(ctx, g)
    cell_map, (indptr, indices), coupled = _pair_maps(ctx, free, fixed)
    k = np.bincount(cell_map, _stiffness_cells(ctx, nu).ravel(),
                    minlength=indices.size + 1)
    velocity = sp.csr_matrix((k[:-1], indices, indptr),
                             shape=(nf, ctx.num_scalar_nodes))
    Bx, By = _divergence_blocks(spaces_)
    rhs = np.concatenate([
        _load_vector(ctx, f)[:, free].ravel(),
        -(Bx[:, fixed] @ g_fixed[:, 0] + By[:, fixed] @ g_fixed[:, 1]),
        [0.0],
    ])
    Bt = sp.vstack([Bx[:, free].T, By[:, free].T]).tocsr()
    B = Bt.T.tocsr()
    # on the stiffness's own pattern, without the six pairs, the LU fills less
    K_ff = sp.csr_matrix((k[:-1][coupled], indices[coupled],
                          np.r_[0, np.cumsum(coupled)][indptr]),
                         shape=(nf, nf)).tocsc()
    # factorise last, with the pattern arrays and the full-width B freed
    # (k stays alive: velocity holds a slice of it)
    del Bx, By, indices, indptr, coupled
    # both matrices are symmetric: columns in minimum degree on A^T + A
    try:
        lu = spla.splu(K_ff, permc_spec="MMD_AT_PLUS_A")
        schur = spla.splu(ctx.p1_mass.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolveFailure(
            f"Stokes set-up factorisation failed: {exc}") from exc
    return PreparedStokes(spaces_, free, fixed, g_fixed, velocity, Bt, B, rhs,
                          lu, nu, schur, cell_map)


def _pair_maps(ctx, free, fixed):
    """Integer maps of the cell pairs (t, 6a+b), with the velocity columns
    numbered ``free`` first and ``fixed`` after them: ``cell_map``; the
    canonical CSR ``(indptr, indices)`` of the free rows' pattern, every
    pair of a free node and any node in a common cell; the mask of its
    entries in the free columns that a stiffness pair reaches.  Its
    pair-sized temporaries die before the set-up factorises."""
    n, nf = ctx.num_scalar_nodes, free.size
    col = np.empty(n, dtype=np.int64)
    col[free], col[fixed] = np.arange(nf), np.arange(nf, n)
    nodes = ctx.cell_scalar_nodes  # (nt, 6)
    r = col[np.repeat(nodes, 6, axis=1).ravel()]
    c = col[np.tile(nodes, 6).ravel()]
    kept = r < nf
    # sorted keys are the entries of a canonical CSR pattern
    keys, of_pair = np.unique(r[kept] * n + c[kept], return_inverse=True)
    cell_map = np.full(r.size, keys.size, dtype=np.int32)
    cell_map[kept] = of_pair
    indptr, indices = np.searchsorted(keys, np.arange(nf + 1) * n), keys % n
    stiff = np.tile(_STIFFNESS_PAIRS, nodes.shape[0])[kept]
    coupled = ((np.bincount(of_pair, stiff, minlength=keys.size) > 0)
               & (indices < nf))
    return cell_map, (indptr, indices), coupled


def _bordered_system(prep, z):
    """The complex velocity block ``A`` = K + i M_z and the reduced
    right-hand side at coefficient ``z``; ``A`` shares only the pattern of
    ``prep.velocity``."""
    ctx, V = prep.spaces.context, prep.velocity
    m = np.bincount(prep.cell_map, _zmass_cells(ctx, z).ravel(),
                    minlength=V.nnz + 1)
    A = sp.csr_matrix((V.data + 1j * m[:-1], V.indices, V.indptr), V.shape)
    # the lift of the boundary values by the fixed columns of K + i M_z
    nf = prep.free.size
    w = np.zeros(V.shape[1], dtype=complex)
    w[nf:] = prep.g_fixed @ [1.0, 1j]
    lift = A @ w
    rhs = prep.rhs.copy()
    rhs[:nf] -= lift.real
    rhs[nf:2 * nf] -= lift.imag
    return A, rhs


def _apply_bordered(prep, A, x):
    """The reduced bordered matrix at one z applied to ``x``, by blocks: the
    complex velocity block ``A`` on u1 + i u2, ``Bt``, its transpose ``B``
    and the pressure integrals ``m`` (their product a plain sum, which no
    BLAS thread serves)."""
    nf, m = A.shape[0], prep.spaces.context.p1_integrals
    u, p = x[:2 * nf], x[2 * nf:-1]
    w = np.zeros(A.shape[1], dtype=complex)
    w[:nf] = u[:nf] + 1j * u[nf:]
    w = A @ w
    return np.concatenate([np.concatenate([w.real, w.imag]) + prep.Bt @ p,
                           prep.B @ u + x[-1] * m, [(m * p).sum()]])


def _precondition(prep, r):
    """Block upper-triangular preconditioner: pressure and multiplier from
    the exact inverse of the bordered surrogate [[-M_p/nu, m], [m^T, 0]]
    (exact since m is M_p 1, so m^T M_p^-1 = 1^T), velocity from the shared
    LU on each component of r_u - B^T p."""
    nf = prep.free.size
    rp = r[2 * nf:-1]
    lam = ((r[-1] / prep.nu + rp.sum())
           / prep.spaces.context.p1_integrals.sum())
    p = prep.nu * (lam - prep.schur.solve(rp))
    ru = (r[:2 * nf] - prep.Bt @ p).reshape(2, nf).T
    return np.concatenate([prep.lu.solve(ru).T.ravel(), p, [lam]])


# entries of one matrix-vector product of the Gram-Schmidt steps: OpenBLAS
# threads such a product from 460,800 entries, and below that size it
# never wakes the BLAS thread pool
_BLOCK = 2 ** 18


def _dots(V, w):
    """V @ w, in column blocks of at most :data:`_BLOCK` entries."""
    step = max(1, _BLOCK // V.shape[0])
    h = V[:, :step] @ w[:step]
    for s in range(step, w.size, step):
        h += V[:, s:s + step] @ w[s:s + step]
    return h


def _subtract(w, h, V):
    """w -= h @ V in place, in column blocks as :func:`_dots`."""
    step = max(1, _BLOCK // V.shape[0])
    for s in range(0, w.size, step):
        w[s:s + step] -= h @ V[:, s:s + step]


def _gmres(apply, precondition, b, x0=None, r0=None, rtol=1e-12,
           restart=200, maxiter=5):
    """Left-preconditioned restarted GMRES (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986) for ``apply(x) = b``; returns (x, info,
    iterations), ``info`` 0 on convergence.

    ``r0`` is b - apply(x0) when the caller has it.  The stopping rule is
    scipy's: a cycle stops once the preconditioned residual falls to
    rtol ||M b|| (then to the adapted ``ptol`` of later cycles), and the
    solve once the true residual falls to rtol ||b||.  The basis is
    orthogonalised by classical Gram-Schmidt done twice and grows as the
    cycle does; the Hessenberg columns and their Givens rotations are
    Python floats.
    """
    bnorm = fes._norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0
    atol = rtol * bnorm
    if x0 is None:
        x, r = np.zeros_like(b), b
    else:
        x = x0.copy()
        r = b - apply(x) if r0 is None else r0
    if fes._norm(r) < atol:
        return x, 0, 0
    mr = precondition(r)
    ptol = rtol * fes._norm(mr if x0 is None else precondition(b))
    factor, iterations, eps = 1.0, 0, np.finfo(float).eps
    V = np.empty((min(restart + 1, 32), b.size))
    for cycle in range(maxiter):
        if cycle:
            mr = precondition(r)
        beta = fes._norm(mr)
        V[0] = mr / beta
        g, R, rotations = [beta], [], []
        for j in range(restart):
            w = precondition(apply(V[j]))
            w_norm = fes._norm(w)
            h = _dots(V[:j + 1], w)
            _subtract(w, h, V[:j + 1])
            h2 = _dots(V[:j + 1], w)
            _subtract(w, h2, V[:j + 1])
            h_next = fes._norm(w)
            breakdown = h_next <= eps * w_norm
            col = (h + h2).tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s * col[i])
            diag = math.hypot(col[j], h_next)
            c, s = (col[j] / diag, h_next / diag) if diag else (1.0, 0.0)
            col[j] = diag
            rotations.append((c, s))
            R.append(col)
            g.append(-s * g[j])
            g[j] *= c
            iterations += 1
            presid = abs(g[j + 1])
            if presid <= ptol or breakdown:
                break
            if j + 1 == V.shape[0]:  # double the basis, up to restart + 1
                V, old = np.empty((min(2 * j + 2, restart + 1), b.size)), V
                V[:j + 1] = old
            V[j + 1] = w / h_next
        # back substitution on the rotated Hessenberg matrix, by columns
        y = g[:j + 1]
        for k in range(j, -1, -1):
            y[k] = y[k] / R[k][k] if R[k][k] else 0.0
            for i in range(k):
                y[i] -= y[k] * R[k][i]
        _subtract(x, -np.array(y), V[:j + 1])
        r = b - apply(x)
        rnorm = fes._norm(r)
        if rnorm <= atol:
            return x, 0, iterations
        if breakdown:
            break
        if presid <= ptol:
            factor = max(eps, 0.25 * factor)
        else:
            factor = min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / rnorm)
    return x, maxiter, iterations


def solve_generalized_stokes(prepared, z, guess=(), rtol=1e-12,
                             counts=None):
    """Solve for (u, p) given the prepared problem and coefficient ``z``.

    ``guess`` is a list of ``(u, p)`` pairs on the same spaces, possibly
    empty, typically the last solutions of a coupling loop or the solution
    at a nearby ``z``.  GMRES starts from the combination of the listed
    pairs whose residual is least (Fischer, Comput. Methods Appl. Mech.
    Eng. 163, 1998), when that residual is below the right-hand side's
    norm, and from zero otherwise.  A guess of the wrong size raises
    ``ValueError``.  GMRES
    stops at ``rtol`` times the norm of the reduced right-hand side; its
    iteration count is appended to the list ``counts`` when one is given.
    Returns velocity and zero-mean pressure fields; the residual of the
    reduced bordered system is checked against 1e-7 times its scale and
    the pressure mean is asserted below 1e-10.
    """
    prep = prepared
    spaces_ = prep.spaces
    ctx = spaces_.context
    A, rhs = _bordered_system(prep, z)
    nf = prep.free.size

    def apply(x):
        return _apply_bordered(prep, A, x)

    x0, r0 = _start(prep, apply, rhs, guess)
    # one cycle of 200 holds a typical solve (trig case, n=32: 44
    # iterations from zero at rtol 1e-12, 0 to 32 from the loop's last
    # solutions); up to five cycles for strong coupling, where the count
    # grows with |z|/nu
    x, info, iterations = _gmres(
        apply, lambda r: _precondition(prep, r), rhs, x0=x0, r0=r0,
        rtol=rtol, restart=200, maxiter=5)
    if counts is not None:
        counts.append(iterations)
    if info != 0:
        raise LinearSolveFailure(f"GMRES did not converge (info={info})")
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("linear solve produced non-finite values")
    resid = fes._norm(apply(x) - rhs)
    scale = fes._norm(rhs) + 1.0
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


def _start(prep, apply, rhs, guess):
    """GMRES start from the list ``guess`` (see
    :func:`solve_generalized_stokes`) and its residual; (None, None) for
    the zero start, also when the list is empty."""
    if not guess:
        return None, None
    X = np.stack([_reduced_guess(prep, u, p) for u, p in guess], axis=1)
    AX = np.stack([apply(x) for x in X.T], axis=1)
    c = np.linalg.lstsq(AX, rhs, rcond=None)[0]
    x0, r0 = X @ c, rhs - AX @ c
    if fes._norm(r0) < fes._norm(rhs):
        return x0, r0
    return None, None


def _reduced_guess(prep, u, p):
    """(u, p) as unknowns of the reduced bordered system, multiplier 0."""
    sizes = (u.coefficients.size, p.coefficients.size)
    expected = (prep.spaces.velocity.dof_count, prep.spaces.pressure.dof_count)
    if sizes != expected:
        raise ValueError(f"guess sizes {sizes} do not match the velocity "
                         f"and pressure spaces {expected}")
    return np.concatenate([u.coefficients.reshape(2, -1)[:, prep.free].ravel(),
                           p.coefficients, [0.0]])


def stokes_energy_report(u, f, nu):
    """Evaluate both sides of the energy identity and divergence norms.

    For homogeneous boundary data the identity nu*|u|_H1^2 = (f, u) holds to
    solver precision: the coupling u^T C(z) u vanishes since C(z) is skew,
    and (p, div u) since u is weakly divergence free, so neither z nor p
    enters the report.
    The weak divergence is the pressure-space projection of div u (the
    quantity the constraint actually controls); the broken norm is the
    pointwise one and sits at discretization level for interpolated data.
    """
    ctx = u.space.context
    w = ctx.cell_qweights
    corners = fes.velocity_corner_gradients(u)
    viscous = nu * fes._linear_squares(ctx, corners)
    forcing = float((w[:, :, None] * fes.data_cell_values(ctx, f)
                     * fes.velocity_cell_values(u)).sum())
    div = corners[:, :, 0, 0] + corners[:, :, 1, 1]
    div_broken = math.sqrt(fes._linear_squares(ctx, div))
    div_weak = fes._weak_divergence_l2(ctx, corners)
    return StokesEnergyReport(
        viscous=viscous,
        forcing=forcing,
        balance_gap=abs(viscous - forcing),
        div_weak_l2=div_weak,
        div_broken_l2=div_broken,
    )
