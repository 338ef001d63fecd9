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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def build_inflow_datum(mesh, variant, h, g, part, eps_n=None):
    """Convert boundary data h into the trace value q imposed at inflow.

    ``h`` and ``g`` are called with coordinate arrays through
    :func:`gradetwo.userdata.evaluate`, ``h`` on the inflow edges only.
    For the trace variant (P_II) q = h.  For the flux variant (P_I) the
    prescribed quantity is (z u).n, so q = h / (g.n); this degenerates when
    the normal data touches zero inside the closure of the inflow set, and
    :class:`DegenerateInflow` is raised (quadrature points and interior
    vertices are both checked).
    """
    if variant not in ("P_I", "P_II"):
        raise ValueError(f"unknown variant {variant!r}")
    if eps_n is None:
        eps_n = part.eps_n
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
        small = np.argwhere(np.abs(gn) <= eps_n)
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


def _edge_sign(u, alpha):
    """alpha * u.n at all edge quadrature points, shape (ne, nqe)."""
    ctx = u.space.context
    tr = fes.velocity_edge_values(u)  # (ne, nqe, 2)
    n = ctx.mesh.edge_normals
    return alpha * (tr[:, :, 0] * n[:, None, 0] + tr[:, :, 1] * n[:, None, 1])


def _assemble_operator(u, nu, alpha, eps_n, datum):
    """Upwind DG matrix, inflow load and inflow-set mismatch measure.

    The mismatch measure is the arc length over which the sign of
    alpha*u.n disagrees with the datum's inflow edge set.
    """
    ctx = u.space.context
    mesh = ctx.mesh
    nt = mesh.num_triangles
    ndof = 3 * nt
    w = ctx.cell_qweights
    V = ctx.p1_at_q              # (3, nq)
    GL = ctx.grad_lambda         # (nt, 3, 2)
    a = alpha * fes.velocity_cell_values(u)  # (nt, nq, 2)

    # cell part: nu*(z, v) - (z, a . grad v)
    mass = np.einsum("tq,jq,iq->tij", w, V, V)
    adotgrad = np.einsum("tqd,tid->tqi", a, GL)      # a . grad(phi_i)
    conv = -np.einsum("tq,jq,tqi->tij", w, V, adotgrad)
    local = nu * mass + conv
    cell_dofs = (3 * np.arange(nt))[:, None] + np.arange(3)[None, :]
    rows = np.repeat(cell_dofs, 3, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, 3)).ravel()
    data = [local.ravel()]
    rix = [rows]
    cix = [cols]

    s = _edge_sign(u, alpha)     # (ne, nqe)
    we = mesh.edge_qweights

    # interior faces: upwind flux s_plus z- + s_minus z+ against [v]
    interior = np.nonzero(ctx.edge_interior)[0]
    if interior.size:
        si = s[interior]
        wi = we[interior]
        sp_ = np.maximum(si, 0.0)
        sm_ = np.minimum(si, 0.0)
        T0 = ctx.edge_p1_trace[interior, 0]  # (nei, 3, nqe)
        T1 = ctx.edge_p1_trace[interior, 1]
        c0 = mesh.edge_cells[interior, 0]
        c1 = mesh.edge_cells[interior, 1]
        d0 = (3 * c0)[:, None] + np.arange(3)[None, :]
        d1 = (3 * c1)[:, None] + np.arange(3)[None, :]

        def face_block(weight, Tj, Ti, drow, dcol, sign):
            blk = sign * np.einsum("eq,ejq,eiq->eij", weight, Tj, Ti)
            rix.append(np.repeat(drow, 3, axis=1).ravel())
            cix.append(np.tile(dcol, (1, 3)).ravel())
            data.append(blk.ravel())

        face_block(wi * sp_, T0, T0, d0, d0, +1.0)
        face_block(wi * sm_, T1, T0, d0, d1, +1.0)
        face_block(wi * sp_, T0, T1, d1, d0, -1.0)
        face_block(wi * sm_, T1, T1, d1, d1, -1.0)

    # boundary faces: outflow keeps the interior trace in the matrix,
    # inflow imposes the datum through the right-hand side
    load = np.zeros(ndof)
    mismatch = 0.0
    bids = mesh.boundary_edge_ids
    sb = s[bids]                     # (nb, nqe)
    wb = we[bids]
    Tb = ctx.edge_p1_trace[bids, 0]  # (nb, 3, nqe)
    cb = mesh.edge_cells[bids, 0]
    db = (3 * cb)[:, None] + np.arange(3)[None, :]
    s_out = np.where(sb > eps_n, sb, 0.0)
    s_in = np.where(sb < -eps_n, sb, 0.0)
    blk = np.einsum("eq,ejq,eiq->eij", wb * s_out, Tb, Tb)
    rix.append(np.repeat(db, 3, axis=1).ravel())
    cix.append(np.tile(db, (1, 3)).ravel())
    data.append(blk.ravel())
    qv = datum.values
    lvec = np.einsum("eq,eiq->ei", -wb * s_in * qv, Tb)
    np.add.at(load, db.ravel(), lvec.ravel())

    # an empty datum imposes zero wherever the velocity says inflow, so a
    # mismatch is only meaningful against a declared inflow edge set
    if datum.edges:
        in_datum = np.zeros(qv.shape[0], dtype=bool)
        in_datum[list(datum.edges)] = True
        u_inflow = sb < -eps_n
        mismatch = float((wb * (u_inflow != in_datum[:, None])).sum())

    K = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rix), np.concatenate(cix))),
        shape=(ndof, ndof)).tocsr()
    return K, load, mismatch


def _dg_load(ctx, samples):
    """Load vector of (samples, v) over the DG space; samples (nt, nq)."""
    w = ctx.cell_qweights
    V = ctx.p1_at_q
    lv = np.einsum("tq,iq->ti", w * samples, V)
    return lv.ravel()


def solve_transport(u, nu, alpha, rhs, datum, part, div_tol=None,
                    mismatch_tol=None):
    """Solve nu*z + alpha*u.grad z = rhs with inflow trace values ``datum``.

    ``u`` must be discretely divergence free: its pressure-space projected
    divergence is checked against ``div_tol`` and an excess warns (the
    upwind scheme stays solvable, but the dissipation argument degrades).
    A disagreement between the discrete inflow set (sign of alpha*u.n) and
    the edge set carrying the datum is reported as a warning with its arc
    measure.
    """
    if not (nu > 0.0):
        raise ValueError("nu must be positive")
    space = rhs.space
    if alpha == 0.0:
        # reaction only: both sides live in the same space, so division by
        # nu is the exact solution, not a projection
        return space.new_field(rhs.coefficients / nu)
    ctx = space.context
    div = fes.velocity_weak_divergence_l2(u)
    un = fes.norms(u)
    if div_tol is None:
        div_tol = 1e-8 * max(1.0, un.h1_semi)
    if div > div_tol:
        warnings.warn(
            f"transport velocity has weak divergence {div:.3e} above "
            f"div_tol {div_tol:.3e}; the advected field may lose stability",
            stacklevel=2)
    eps_n = part.eps_n
    K, load, mismatch = _assemble_operator(u, nu, alpha, eps_n, datum)
    perimeter = float(ctx.mesh.boundary_lengths.sum())
    if mismatch_tol is None:
        mismatch_tol = 1e-6 * perimeter
    if mismatch > mismatch_tol:
        warnings.warn(
            f"discrete inflow set (sign of alpha*u.n) disagrees with the "
            f"datum's inflow edges on arc measure {mismatch:.3e}",
            stacklevel=2)
    b = _dg_load(ctx, fes.scalar_cell_values(rhs)) + load
    z = spla.spsolve(K.tocsc(), b)
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
    jumps = 0.0
    if interior.size:
        z1 = fes.vorticity_edge_values(z, 1)
        jump = z0[interior] - z1[interior]
        jumps = float(0.5 * (we[interior] * np.abs(s[interior])
                             * jump ** 2).sum())
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


def _fd_gradient(phi, h=1e-6):
    def grad(x, y):
        return ((phi(x + h, y) - phi(x - h, y)) / (2.0 * h),
                (phi(x, y + h) - phi(x, y - h)) / (2.0 * h))
    return grad


def green_residual(z, u, phi, part, phi_grad=None, localized=False):
    """Defect of the discrete Green identity for the pair (z, u).

    Evaluates |(z u, grad phi) + (phi u, grad z) - boundary flux| where the
    boundary flux integrates z (u.n) phi over the whole boundary, or over
    the inflow part only when ``localized`` (phi is then expected to vanish
    on the complement).  Gradients of z are broken; the residual measures
    the combined effect of interfacial jumps and the divergence defect of u.
    ``phi`` and ``phi_grad`` are called with coordinate arrays through
    :func:`gradetwo.userdata.evaluate`; without ``phi_grad`` a central
    difference of ``phi`` is used.
    """
    if phi_grad is None:
        phi_grad = _fd_gradient(phi)
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

    bids = mesh.boundary_edge_ids
    if localized:
        sel = np.array(sorted(part.gamma_minus), dtype=np.int64)
    else:
        sel = np.arange(mesh.num_boundary_edges, dtype=np.int64)
    flux = 0.0
    if sel.size:
        eids = bids[sel]
        tr = fes.velocity_edge_values(u)[eids]
        zb = fes.vorticity_edge_values(z, 0)[eids]
        n = mesh.edge_normals[eids]
        un = tr[:, :, 0] * n[:, None, 0] + tr[:, :, 1] * n[:, None, 1]
        bpts = mesh.edge_qpoints[eids]
        phib = evaluate(phi, bpts[..., 0], bpts[..., 1])
        flux = float((mesh.edge_qweights[eids] * zb * un * phib).sum())
    return abs(vol1 + vol2 - flux)


class GradientTransportResult(NamedTuple):
    fx: fes.Field
    fy: fes.Field
    iterations: int
    deltas: tuple  # successive L2 increments, one per iteration

    def gradient_max_norm(self):
        return max(np.abs(self.fx.coefficients).max(initial=0.0),
                   np.abs(self.fy.coefficients).max(initial=0.0))


def velocity_gradient_max(u):
    """Max Frobenius norm of grad u over cell corner samples."""
    ctx = u.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes
    g = ctx.p2_grad_at_corners  # (nt, 6, 3, 2)
    cx = u.coefficients[:n][nodes]
    cy = u.coefficients[n:][nodes]
    gx = np.einsum("ta,taqd->tqd", cx, g)
    gy = np.einsum("ta,taqd->tqd", cy, g)
    frob = np.sqrt((gx ** 2 + gy ** 2).sum(axis=2))
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
    K, load_x, _ = _assemble_operator(u, 1.0, W, part.eps_n, datum_x)
    _, load_y, _ = _assemble_operator(u, 1.0, W, part.eps_n, datum_y)
    lu = spla.splu(K.tocsc())

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
        new_x = space.new_field(lu.solve(bx))
        new_y = space.new_field(lu.solve(by))
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
