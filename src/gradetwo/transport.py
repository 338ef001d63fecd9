"""Steady transport of the auxiliary vorticity by upwind discontinuous
Galerkin, plus the sign/Green diagnostics and the gradient-transport loop.

The scalar problem is

    nu * z + (alpha * u) . grad z = rhs   in Omega,
    z = q                                 weakly on the inflow boundary,

discretized in discontinuous piecewise linears with classical upwind fluxes
(conservative form).  Inflow faces are detected per quadrature point from
the sign of ``alpha * u . n``; the prescribed trace value q enters through
the numerical flux, faces with ``|alpha*u.n| <= eps_n`` carry no imposed
flux.  Upwinding adds nonnegative interfacial dissipation, which is what
makes the discrete sign inequality of the transported quantity hold
unconditionally (see :func:`sign_functional`).

The matrix stores only the upwind couplings, the blocks of each face's
upwind side, on interior and boundary faces alike, so its pattern follows
the sign of alpha*u.n; a face block is 2x2, over the two vertices of its
edge, the only DG nodes with a nonzero trace there.  The stored pattern is
structural: every 3x3 cell block, a cell entry that cancels to 0.0
included, plus 4 entries per upwind coupling block, so it does not move
with round-off.  The kernels are closed forms of the velocity's P2
coefficients, with no velocity sample: the cell convection block from the
fixed P2-P1 moment table, alpha*u.n on the edges from the normal contracted
into each edge's three coefficients, and the divergence check from the
velocity gradients at the cell corners.

The sparse LU is taken with the cells in downstream-first order of the
strongly connected components of the upwind cell graph, where the matrix is
block upper triangular, whenever the dense diagonal blocks of that order
hold no more entries than the matrix: then the solve is the exact block
sweep along the flow (Lesaint & Raviart, 1974), with the small cycles of
the flow solved as blocks.  A flow that closes on itself in large
components, such as a rotation, is factorised with COLAMD.  Both LUs use
small SuperLU supernodes and panels (:data:`_SPLU_OPTIONS`): the same fill
as SuperLU's defaults, in less time and workspace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import spaces as fes
from .errors import (
    ContractionViolated,
    DegenerateInflow,
    LinearSolveFailure,
    MaxIterations,
)
from .meshes import EDGE_QP, normal_boundary_data
from .userdata import evaluate

__all__ = [
    "InflowDatum", "build_inflow_datum", "empty_datum", "solve_transport",
    "sign_functional", "sign_functional_report", "SignFunctionalReport",
    "green_residual", "solve_gradient_transport", "GradientTransportResult",
    "velocity_gradient_max",
]


@dataclass(frozen=True)
class InflowDatum:
    """Prescribed inflow trace values at boundary-edge quadrature points.

    ``values`` has shape (num_boundary_edges, nqe) and is zero outside the
    edges listed in ``edges``.  ``variant`` records the provenance:
    flux-form data was divided by g.n, trace-form data is used as-is.
    """

    variant: str  # "P_I" | "P_II"
    values: np.ndarray
    edges: tuple

    def max_abs(self):
        if not self.edges:
            return 0.0
        return float(np.abs(self.values[list(self.edges)]).max(initial=0.0))


def empty_datum(mesh):
    return InflowDatum("P_II", np.zeros((mesh.num_boundary_edges,
                                         EDGE_QP.size)), ())


def build_inflow_datum(mesh, variant, h, g, part):
    """Convert boundary data h into the trace value q imposed at inflow.

    ``h`` and ``g`` are called with coordinate arrays through
    :func:`gradetwo.userdata.evaluate`, ``h`` on the inflow edges only.
    For the trace variant (P_II) q = h.  For the flux variant (P_I) the
    prescribed quantity is (z u).n, so q = h / (g.n); this degenerates when
    the normal data touches zero inside the closure of the inflow set, and
    :class:`DegenerateInflow` is raised (quadrature points and interior
    vertices are both checked against the partition's ``eps_n``).
    """
    if variant not in ("P_I", "P_II"):
        raise ValueError(f"unknown variant {variant!r}")
    values = np.zeros((mesh.num_boundary_edges, EDGE_QP.size))
    edges = tuple(part.gamma_minus)
    if not edges:
        return InflowDatum(variant, values, ())
    sel = list(edges)
    pts = mesh.boundary_quad_points()[sel]
    if variant == "P_I":
        bad = part.interior_degeneracies()
        if bad:
            raise DegenerateInflow(
                "normal boundary data vanishes strictly inside the inflow "
                f"boundary at vertices {list(bad)}; the flux-form datum "
                "cannot be divided by g.n there"
            )
        gn = normal_boundary_data(mesh, g)[1][sel]
        small = np.argwhere(np.abs(gn) <= part.eps_n)
        if small.size:
            e, k = small[0]
            x, y = pts[e, k]
            raise DegenerateInflow(
                f"|g.n| = {abs(gn[e, k]):.3e} <= eps_n at quadrature point "
                f"({x:.6g}, {y:.6g}) of inflow edge {sel[e]}"
            )
        values[sel] = evaluate(h, pts[..., 0], pts[..., 1]) / gn
    else:
        values[sel] = evaluate(h, pts[..., 0], pts[..., 1])
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite inflow datum")
    return InflowDatum(variant, values, edges)


# products E_i E_j of the P1 edge table at each edge Gauss point, (nqe, 2, 2)
_EDGE_P1_PAIRS = np.ascontiguousarray(
    (fes.EDGE_P1[:, None] * fes.EDGE_P1).transpose(2, 0, 1))

# P[b, j] = sum_q w_q phi_b(q) lambda_j(q) over the reference cell, for the P2
# basis phi and the P1 basis lambda, (6, 3); the cell rule is exact through
# degree 5 and these products have degree 3, so it is exact
_P2_P1_MASS = np.einsum("q,bq,jq->bj", fes.TRI_QW, fes.p2_values(fes.TRI_QP),
                        fes.p1_values(fes.TRI_QP))


def _edge_sign(u, alpha):
    """alpha * u.n at all edge quadrature points, shape (ne, nqe).

    u.n is quadratic along the edge: the normal is contracted into the
    three edge coefficients of u before the trace table is applied."""
    c = fes.velocity_edge_coefficients(u)  # (2, ne, 3)
    n = u.space.context.mesh.edge_normals
    cn = alpha * (c[0] * n[:, :1] + c[1] * n[:, 1:])
    return np.einsum("ea,aq->eq", cn, fes.EDGE_P2)


def _cell_convection(u, alpha):
    """(nt, 3, 3) cell blocks conv[t, i, j] = (lambda_j, alpha u . grad
    lambda_i) over cell t.

    grad lambda_i is constant on the cell, so conv[t, i, j] = sum_d
    grad lambda_i[d] alpha area_t (c_d @ P)[j], with c_d the cell's six P2
    coefficients of component d and P = :data:`_P2_P1_MASS`: exact from the
    coefficients, with no velocity sample.  Broadcasts only: no BLAS call,
    so the assembly runs on the calling thread alone and wakes no BLAS
    thread pool.
    """
    ctx = u.space.context
    c = u.coefficients.reshape(2, -1)[:, ctx.cell_scalar_nodes]  # (2, nt, 6)
    # m = c @ P as six broadcast products, faster here than an einsum
    m = c[..., 0, None] * _P2_P1_MASS[0]
    for b in range(1, 6):
        m += c[..., b, None] * _P2_P1_MASS[b]
    m *= (alpha * ctx.mesh.areas)[:, None]  # (2, nt, 3)
    GL = ctx.grad_lambda                    # (nt, 3, 2)
    return GL[:, :, :1] * m[0, :, None] + GL[:, :, 1:] * m[1, :, None]


def _assemble_operator(u, nu, alpha, eps_n):
    """Upwind DG matrix (CSC) and alpha*u.n at the boundary-edge quadrature
    points, which :func:`_inflow_load` takes.  The cell blocks are
    nu times the P1 mass minus :func:`_cell_convection`.

    Every edge carries the flux of its upwind side: with s = alpha*u.n out
    of side 0 it is s+ z0 + s- z1, tested with v0 - v1.  On a boundary edge
    z1 is the datum, which :func:`_inflow_load` imposes, so only side 0
    enters the matrix, and only where s > eps_n.  The block of row side r
    and column side c is (-1)^r sum_q w s_c E_i E_j over the edge's two
    vertices i, j (E the P1 edge table), with s_0 = s+ and s_1 = s-; it is
    built only for the sides c whose weight is nonzero somewhere on the
    edge, the blocks of each face's upwind side.
    """
    ctx = u.space.context
    mesh = ctx.mesh
    nt = mesh.num_triangles

    # cell part: nu*(z, v) - (z, alpha u . grad v)
    local = nu * ctx.p1_cell_mass - _cell_convection(u, alpha)
    cell_dofs = 3 * np.arange(nt)[:, None] + np.arange(3)
    rows = [np.repeat(cell_dofs, 3, axis=1).ravel()]
    cols = [np.tile(cell_dofs, (1, 3)).ravel()]
    data = [local.ravel()]

    # face part: the flux weight s_c of each side, and one 2x2 block for
    # each (edge, c) pair where it is nonzero somewhere on the edge
    s = _edge_sign(u, alpha)     # (ne, nqe)
    interior = ctx.edge_interior[:, None]
    sc = np.stack([np.where(interior | (s > eps_n), np.maximum(s, 0.0), 0.0),
                   np.where(interior, np.minimum(s, 0.0), 0.0)], axis=1)
    e, c = np.nonzero(sc.any(axis=2))
    blk = np.einsum("kq,qij->kij", mesh.edge_qweights[e] * sc[e, c],
                    _EDGE_P1_PAIRS)
    # rows of the sides that have a cell (a boundary edge has only side 0),
    # tested with v0 - v1
    dofs = ctx.edge_dg_dofs      # (ne, 2, 2)
    k, r = np.nonzero(dofs[e, :, 0] >= 0)
    rows.append(np.repeat(dofs[e[k], r], 2, axis=1).ravel())
    cols.append(np.tile(dofs[e[k], c[k]], (1, 2)).ravel())
    data.append((np.where(r == 0, 1.0, -1.0)[:, None, None] * blk[k]).ravel())

    # the stored pattern is structural: every cell block, plus the blocks
    # coupling a cell to an upwind neighbour, whose entries sum terms of one
    # sign, one of them nonzero; a cell entry that cancels stays stored
    K = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * nt, 3 * nt)).tocsc()
    return K, s[mesh.boundary_edge_ids]


# SuperLU's relaxed supernodes and panels (Demmel et al., SIAM J. Matrix
# Anal. Appl. 20, 1999) at relax 1 and panel 5 instead of the defaults
# (relax 10, panel 20).  On the perfbench transport matrices (n = 64, 128)
# the fill stays the same to 0.01%, while the factorisation takes 0.6-0.9x
# the time and raises peak memory about a third as much (17 against 47 MB
# for the rotation at n = 128)
_SPLU_OPTIONS = {"relax": 1, "panel_size": 5}


def _factorise(K):
    """Sparse LU of the upwind DG matrix ``K`` (CSC); returns ``solve(b)``.

    Each cell is coupled only to its upwind neighbours.  With the cells
    ordered by the labels of the strongly connected components of that
    graph, downstream first, ``K`` is block upper triangular with one
    diagonal block per component; this is checked, not assumed from the
    labels.  The LU in that order (``NATURAL``) pivots only inside the
    diagonal blocks, so its fill is bounded by those blocks held dense,
    sum (3 |component|)^2, and its back substitution is the block sweep
    from the inflow downstream.  It is taken when that bound is at most
    ``K.nnz``: always when the graph is acyclic (every component one cell),
    and when the flow's cycles are short, as where a face is upwind on both
    sides.  Otherwise, as for closed streamlines, the columns are ordered
    by COLAMD.  Both take :data:`_SPLU_OPTIONS`.
    """
    nt = K.shape[0] // 3
    C = K.tocoo()
    rows, cols = C.row // 3, C.col // 3
    _, labels = connected_components(
        sp.csr_matrix((np.ones(C.nnz), (cols, rows)), shape=(nt, nt)),
        directed=True, connection="strong")
    block_fill = 9 * (np.bincount(labels).astype(np.int64) ** 2).sum()
    try:
        if block_fill > K.nnz or np.any(labels[rows] > labels[cols]):
            return spla.splu(K, permc_spec="COLAMD", **_SPLU_OPTIONS).solve
        order = np.argsort(labels, kind="stable")
        dofs = (3 * order[:, None] + np.arange(3)).ravel()
        lu = spla.splu(K[dofs][:, dofs], permc_spec="NATURAL", **_SPLU_OPTIONS)
    except RuntimeError as exc:
        raise LinearSolveFailure(f"transport LU failed: {exc}") from exc

    def solve(b):
        z = np.empty_like(b)
        z[dofs] = lu.solve(b[dofs])
        return z
    return solve


def _inflow_load(ctx, sb, eps_n, datum):
    """Inflow load of ``datum`` and its inflow-set mismatch measure, for
    boundary signs ``sb`` from :func:`_assemble_operator`.

    The mismatch measure is the arc length over which the sign of
    alpha*u.n disagrees with the datum's inflow edge set.
    """
    mesh = ctx.mesh
    bids = mesh.boundary_edge_ids
    wb = mesh.boundary_quad_weights()
    s_in = np.where(sb < -eps_n, sb, 0.0)
    qv = datum.values
    load = np.zeros(3 * mesh.num_triangles)
    lvec = np.einsum("eq,iq->ei", -wb * s_in * qv, fes.EDGE_P1)
    np.add.at(load, ctx.edge_dg_dofs[bids, 0].ravel(), lvec.ravel())

    # an empty datum imposes zero wherever the velocity says inflow, so a
    # mismatch is only meaningful against a declared inflow edge set
    mismatch = 0.0
    if datum.edges:
        in_datum = np.zeros(qv.shape[0], dtype=bool)
        in_datum[list(datum.edges)] = True
        u_inflow = sb < -eps_n
        mismatch = float((wb * (u_inflow != in_datum[:, None])).sum())
    return load, mismatch


def _dg_load(ctx, samples):
    """Load vector of (samples, v) over the DG space; samples (nt, nq)."""
    w = ctx.cell_qweights
    V = ctx.p1_at_q
    lv = np.einsum("tq,iq->ti", w * samples, V)
    return lv.ravel()


def _check_divergence(u, div_tol):
    """Warn when the weak divergence of ``u`` exceeds ``div_tol``, by
    default 1e-8 |u|_H1.  Both are exact from the velocity gradients at the
    cell corners, since grad u is linear on each cell.  The divergence
    takes no factorisation: a fixed number of Jacobi-preconditioned CG
    steps on the P1 mass, whose scaled spectrum lies in [1/2, 2] (Wathen,
    1987), give it to 2e-15 relative
    (:func:`gradetwo.spaces.velocity_weak_divergence_l2`)."""
    div = fes.velocity_weak_divergence_l2(u)
    if div_tol is None:
        div_tol = 1e-8 * max(1.0, fes.velocity_h1_semi(u))
    if div > div_tol:
        warnings.warn(
            f"transport velocity has weak divergence {div:.3e} above "
            f"div_tol {div_tol:.3e}; the advected field may lose stability",
            stacklevel=3)


def solve_transport(u, nu, alpha, rhs, datum, part, div_tol=None):
    """Solve nu*z + alpha*u.grad z = rhs with inflow trace values ``datum``.

    ``u`` must be discretely divergence free: its pressure-space projected
    divergence is checked against ``div_tol`` and an excess warns (the
    upwind scheme stays solvable, but the dissipation argument degrades).
    A disagreement between the discrete inflow set (sign of alpha*u.n) and
    the edge set carrying the datum on more than 1e-6 of the perimeter is
    reported as a warning with its arc measure.
    """
    if not (0.0 < nu < np.inf):
        raise ValueError("nu must be positive and finite")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if div_tol is not None and not (0.0 < div_tol < np.inf):
        raise ValueError("div_tol must be positive and finite")
    space = rhs.space
    if alpha == 0.0:
        # reaction only: both sides live in the same space, so division by
        # nu is the exact solution, not a projection
        return space.new_field(rhs.coefficients / nu)
    ctx = space.context
    _check_divergence(u, div_tol)
    eps_n = part.eps_n
    K, sb = _assemble_operator(u, nu, alpha, eps_n)
    load, mismatch = _inflow_load(ctx, sb, eps_n, datum)
    if mismatch > 1e-6 * float(ctx.mesh.boundary_lengths.sum()):
        warnings.warn(
            f"discrete inflow set (sign of alpha*u.n) disagrees with the "
            f"datum's inflow edges on arc measure {mismatch:.3e}",
            stacklevel=2)
    b = _dg_load(ctx, fes.scalar_cell_values(rhs)) + load
    z = _factorise(K)(b)
    if not np.all(np.isfinite(z)):
        raise LinearSolveFailure("transport solve produced non-finite values")
    resid = np.linalg.norm(K @ z - b)
    if resid > 1e-7 * (np.linalg.norm(b) + 1.0):
        raise LinearSolveFailure(
            f"transport residual {resid:.3e} above solver tolerance")
    return space.new_field(z)


class SignFunctionalReport(NamedTuple):
    interior_jumps: float   # sum over interior faces of |s| [z]^2 / 2
    outflow: float          # boundary: max(s,0) z^2 / 2
    inflow: float           # boundary: max(-s,0) z^2 / 2 (upwind dissipation)
    central_flux: float     # signed boundary flux: s z^2 / 2
    total: float            # interior_jumps + outflow + inflow


def sign_functional_report(z, u, alpha):
    """Split evaluation of the upwind-consistent advection quadratic form.

    This is the quantity that replaces the integral of (alpha*u.grad z) z
    in the discrete energy identity of the upwind scheme with zero imposed
    inflow value.  Every contribution is nonnegative by construction; for a
    continuous z the interior jump part vanishes and only the boundary flux
    terms remain (reported both split and as the signed central flux).
    """
    ctx = z.space.context
    mesh = ctx.mesh
    s = _edge_sign(u, alpha)
    we = mesh.edge_qweights
    z0 = fes.vorticity_edge_values(z, 0)
    interior = np.nonzero(ctx.edge_interior)[0]
    jump = z0[interior] - fes.vorticity_edge_values(z, 1)[interior]
    jumps = float(0.5 * (we[interior] * np.abs(s[interior]) * jump ** 2).sum())
    bids = mesh.boundary_edge_ids
    sb = s[bids]
    wb = we[bids]
    zb = z0[bids]
    outflow = float(0.5 * (wb * np.maximum(sb, 0.0) * zb ** 2).sum())
    inflow = float(0.5 * (wb * np.maximum(-sb, 0.0) * zb ** 2).sum())
    central = float(0.5 * (wb * sb * zb ** 2).sum())
    return SignFunctionalReport(jumps, outflow, inflow, central,
                                jumps + outflow + inflow)


def sign_functional(z, u, alpha):
    """Total upwind-consistent evaluation; nonnegative for any fields."""
    return sign_functional_report(z, u, alpha).total


def green_residual(z, u, phi, phi_grad):
    """Defect of the discrete Green identity for the pair (z, u).

    Evaluates |(z u, grad phi) + (phi u, grad z) - boundary flux| where the
    boundary flux integrates z (u.n) phi over the whole boundary.  Gradients
    of z are broken; the residual measures the combined effect of
    interfacial jumps and the divergence defect of u.  ``phi`` and its
    gradient ``phi_grad`` are called with coordinate arrays through
    :func:`gradetwo.userdata.evaluate`.
    """
    ctx = z.space.context
    mesh = ctx.mesh
    w = ctx.cell_qweights
    pts = ctx.cell_qpoints
    uq = fes.velocity_cell_values(u)
    zq = fes.scalar_cell_values(z)
    gz = fes.scalar_cell_gradients(z)  # (nt, 2)
    phiq = evaluate(phi, pts[..., 0], pts[..., 1])
    gphi = evaluate(phi_grad, pts[..., 0], pts[..., 1])
    vol1 = float((w * zq * (uq[:, :, 0] * gphi[..., 0]
                            + uq[:, :, 1] * gphi[..., 1])).sum())
    adv = uq[:, :, 0] * gz[:, None, 0] + uq[:, :, 1] * gz[:, None, 1]
    vol2 = float((w * phiq * adv).sum())

    eids = mesh.boundary_edge_ids
    un = _edge_sign(u, 1.0)[eids]
    zb = fes.vorticity_edge_values(z, 0)[eids]
    bpts = mesh.edge_qpoints[eids]
    phib = evaluate(phi, bpts[..., 0], bpts[..., 1])
    flux = float((mesh.edge_qweights[eids] * zb * un * phib).sum())
    return abs(vol1 + vol2 - flux)


class GradientTransportResult(NamedTuple):
    fx: fes.Field
    fy: fes.Field
    iterations: int
    deltas: tuple  # successive L2 increments, one per iteration


def velocity_gradient_max(u):
    """Max Frobenius norm of grad u over cell corner samples."""
    g = fes.velocity_corner_gradients(u)  # (nt, 3, 2, 2)
    frob = np.sqrt((g[:, :, 0] ** 2 + g[:, :, 1] ** 2).sum(axis=2))
    return float(frob.max(initial=0.0))


def _gradient_inflow_data(u, W, l, eps_n):
    """Per-component inflow trace values consistent with F = grad z.

    At an inflow point the transported scalar equals its datum (here the
    trace of l), so the advective derivative u.F vanishes there and the
    tangential component of F is the tangential derivative of that datum.
    Solving the two conditions  F.tau = dl/dtau,  F.u = 0  gives

        F = (dl/dtau) * (tau - (u.tau / u.n) * n),

    which is the closure that keeps constant gradients exact and makes the
    iterate track the broken gradient of the scalar solve.  Points with
    |W*u.n| <= eps_n carry no imposed flux.
    """
    ctx = u.space.context
    mesh = ctx.mesh
    bids = mesh.boundary_edge_ids
    tr = fes.velocity_edge_values(u)[bids]        # (nb, nqe, 2)
    n = mesh.edge_normals[bids]                   # (nb, 2)
    tau = np.stack([-n[:, 1], n[:, 0]], axis=1)
    un = tr[:, :, 0] * n[:, None, 0] + tr[:, :, 1] * n[:, None, 1]
    ut = tr[:, :, 0] * tau[:, None, 0] + tr[:, :, 1] * tau[:, None, 1]
    s = W * un
    inflow = s < -eps_n
    gl = fes.scalar_cell_gradients(l)             # (nt, 2)
    owner = mesh.edge_cells[bids, 0]
    a = (gl[owner, 0, None] * tau[:, None, 0]
         + gl[owner, 1, None] * tau[:, None, 1])  # (nb, nqe) dl/dtau
    ratio = np.zeros_like(un)
    np.divide(ut, un, out=ratio, where=inflow)
    qx = np.where(inflow, a * (tau[:, None, 0] - ratio * n[:, None, 0]), 0.0)
    qy = np.where(inflow, a * (tau[:, None, 1] - ratio * n[:, None, 1]), 0.0)
    edges = tuple(np.nonzero(inflow.any(axis=1))[0].tolist())
    return (InflowDatum("P_II", qx, edges), InflowDatum("P_II", qy, edges))


def solve_gradient_transport(u, W, l, part, tol=1e-10, max_iter=200):
    """Fixed point for the broken gradient of the transported scalar.

    Iterates  F_{k+1} + W u.grad F_{k+1} = grad l - W (grad u).F_k  per
    component, where the coupling term uses the chain-rule convention
    ((grad u).F)_i = sum_j (d u_j / d x_i) F_j and the inflow closure of
    :func:`_gradient_inflow_data` keeps u.F = 0 on the inflow boundary.
    Requires the contraction condition  max|grad u| <= 1/(2|W|); each step
    then gains a factor one half plus the forcing, so the iteration
    converges geometrically.
    """
    if W == 0.0:
        raise ValueError("W must be nonzero")
    gmax = velocity_gradient_max(u)
    bound = 1.0 / (2.0 * abs(W))
    if gmax > bound:
        raise ContractionViolated(
            f"max|grad u| = {gmax:.6g} exceeds the contraction bound "
            f"{bound:.6g} = 1/(2|W|); the gradient iteration may diverge")
    ctx = u.space.context
    space = l.space
    datum_x, datum_y = _gradient_inflow_data(u, W, l, part.eps_n)
    K, sb = _assemble_operator(u, 1.0, W, part.eps_n)
    load_x, _ = _inflow_load(ctx, sb, part.eps_n, datum_x)
    load_y, _ = _inflow_load(ctx, sb, part.eps_n, datum_y)
    solve = _factorise(K)

    gl = fes.scalar_cell_gradients(l)        # (nt, 2) broken grad of l
    nq = ctx.cell_qweights.shape[1]
    gl_x = np.repeat(gl[:, 0:1], nq, axis=1)
    gl_y = np.repeat(gl[:, 1:2], nq, axis=1)
    gu = fes.velocity_cell_gradients(u)      # (nt, nq, 2, 2), [i, j] = du_i/dx_j

    fx = space.new_field()
    fy = space.new_field()
    deltas = []
    for it in range(1, max_iter + 1):
        fxq = fes.scalar_cell_values(fx)
        fyq = fes.scalar_cell_values(fy)
        # ((grad u).F)_i = du_1/dx_i * F_1 + du_2/dx_i * F_2
        cx = gu[:, :, 0, 0] * fxq + gu[:, :, 1, 0] * fyq
        cy = gu[:, :, 0, 1] * fxq + gu[:, :, 1, 1] * fyq
        bx = _dg_load(ctx, gl_x - W * cx) + load_x
        by = _dg_load(ctx, gl_y - W * cy) + load_y
        new_x = space.new_field(solve(bx))
        new_y = space.new_field(solve(by))
        dx = fes.norms(space.new_field(new_x.coefficients - fx.coefficients)).l2
        dy = fes.norms(space.new_field(new_y.coefficients - fy.coefficients)).l2
        delta = float(np.hypot(dx, dy))
        deltas.append(delta)
        fx, fy = new_x, new_y
        if delta <= tol:
            return GradientTransportResult(fx, fy, it, tuple(deltas))
    raise MaxIterations(
        f"gradient transport did not reach tol {tol:.3e} within "
        f"{max_iter} iterations (last increment {deltas[-1]:.3e})")
