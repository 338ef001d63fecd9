"""Finite element spaces, quadrature and field algebra.

Three spaces on one triangulation:

* velocity -- continuous piecewise-quadratic vectors (Taylor-Hood upper half),
  one scalar node per vertex and per edge midpoint, component-block layout;
* pressure -- continuous piecewise-linear scalars with a single zero-mean
  constraint;
* vorticity -- discontinuous piecewise-linear scalars, three nodes per cell,
  which carry the transported field and its broken gradients.

Cell quadrature is a 7-point rule exact through degree 5 (the skew coupling
form pairs a linear coefficient with two quadratics); edge quadrature is the
3-point Gauss rule of :mod:`gradetwo.meshes`, also exact through degree 5,
whose edge normals, points and weights the context reads from the mesh.
Traces on an edge come from the edge's own nodes, through two tables that
serve every edge (:data:`EDGE_P1`, :data:`EDGE_P2`) and, for DG fields, the
dof index :attr:`FeContext.edge_dg_dofs`.

:class:`FeContext` tabulates once per mesh what the solvers re-read: the
quadrature weights, the barycentric gradients, the cell P1 mass, the DG edge
dofs, the velocity node layout and the consistent P1 mass M_p (``p1_mass``,
CSR) with ``p1_integrals`` = M_p 1, which give the Stokes Schur surrogate,
the weak-divergence norm, the zero-mean border and :func:`pressure_mean`.
Basis values at the quadrature points are module tables (:data:`P1_AT_Q`,
:data:`P2_AT_Q`).  Each evaluation rebuilds what is cheap to rebuild: the P2
basis gradients at the cell corners (grad u is linear on a cell, so
quadrature-point values are interpolated from them) and the quadrature
points at which :func:`data_cell_values` calls user data.  The Stokes
stiffness and divergence blocks are closed forms in the barycentric
gradients (:func:`p2_lambda_derivatives`).  The square integral of any
cellwise-linear quantity, such as grad u, div u or a P1/DG-P1 scalar, is
one closed form in its corner values (:func:`_linear_squares`), which every
such norm takes: :func:`norms`, the Stokes energy report and the transport
divergence check.

Space descriptors and the tabulation context are immutable after
construction, cache nothing and are safe to share across threads.  Field
coefficient vectors belong to one writer at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .meshes import EDGE_QP
from .userdata import evaluate

__all__ = [
    "SpaceDescriptor", "Field", "Spaces", "FieldNorms",
    "build_spaces", "interpolate", "norms",
]

# 7-point degree-5 rule, barycentric coordinates and weights summing to one
_SQ15 = np.sqrt(15.0)
_A1 = (6.0 - _SQ15) / 21.0
_A2 = (6.0 + _SQ15) / 21.0
_W1 = (155.0 - _SQ15) / 1200.0
_W2 = (155.0 + _SQ15) / 1200.0
TRI_QP = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [1.0 - 2.0 * _A1, _A1, _A1],
    [_A1, 1.0 - 2.0 * _A1, _A1],
    [_A1, _A1, 1.0 - 2.0 * _A1],
    [1.0 - 2.0 * _A2, _A2, _A2],
    [_A2, 1.0 - 2.0 * _A2, _A2],
    [_A2, _A2, 1.0 - 2.0 * _A2],
])
TRI_QW = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def p1_values(bary):
    """P1 basis at barycentric points; shape (3, nq)."""
    return np.asarray(bary).T.copy()


def p2_values(bary):
    """P2 basis at barycentric points of shape (..., 3); shape (6, ...).

    Nodes 0..2 sit at the vertices, node 3+i at the midpoint of the edge
    opposite vertex i.
    """
    b = np.moveaxis(np.asarray(bary), -1, 0)
    return np.stack([b[i] * (2.0 * b[i] - 1.0) for i in range(3)]
                    + [4.0 * b[(i + 1) % 3] * b[(i + 2) % 3] for i in range(3)])


# an edge's Gauss points in barycentrics of (v0, v1, the opposite vertex)
_EDGE_BARY = np.stack([1.0 - EDGE_QP, EDGE_QP, 0.0 * EDGE_QP], axis=1)
# traces on an edge from its own nodes, in the order of ``mesh.edges``:
# P1 at (v0, v1), shape (2, nqe); P2 at (v0, v1, midpoint), shape (3, nqe)
EDGE_P1 = p1_values(_EDGE_BARY)[:2]
EDGE_P2 = p2_values(_EDGE_BARY)[[0, 1, 5]]
# basis values at the cell quadrature points, shared read-only by every cell
P1_AT_Q = p1_values(TRI_QP)  # (3, nq)
P2_AT_Q = p2_values(TRI_QP)  # (6, nq)
P1_AT_Q.setflags(write=False)
P2_AT_Q.setflags(write=False)


def _grad_lambda(corners, areas):
    """Barycentric gradients per cell, (nt, 3, 2), from the three (nt, 2)
    corner coordinate arrays: grad lambda_i is the edge opposite vertex i
    turned clockwise, over twice the area."""
    gl = np.empty((areas.shape[0], 3, 2))
    for i in range(3):
        e = corners[(i + 1) % 3] - corners[(i + 2) % 3]
        gl[:, i, 0] = e[:, 1]
        gl[:, i, 1] = -e[:, 0]
    gl /= (2.0 * areas)[:, None, None]
    return gl


def p2_lambda_derivatives(bary):
    """d phi_a / d lambda_k of the P2 basis at barycentric points of shape
    (nq, 3); shape (6, nq, 3).  With D this table, the physical gradient of
    phi_a at point q of a cell is sum_k D[a, q, k] grad lambda_k."""
    b = np.asarray(bary)
    out = np.zeros((6, b.shape[0], 3))
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        out[i, :, i] = 4.0 * b[:, i] - 1.0
        out[3 + i, :, i1] = 4.0 * b[:, i2]
        out[3 + i, :, i2] = 4.0 * b[:, i1]
    return out


class FeContext:
    """Tabulated geometry and basis data shared by the three spaces.

    Per cell: the quadrature weights, ``grad_lambda`` (nt, 3, 2) and the P1
    mass blocks.  All arrays, the edge and node tables and the P1 mass CSR
    included, take about 330 bytes per cell, and all are read-only; the DG
    edge dofs are int32.

    The tables are built with row gathers (``np.take``), elementwise
    kernels over (nt, 2) slices and one two-operand einsum, so the build
    wakes no BLAS thread.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        nt = mesh.num_triangles
        t = mesh.triangles
        # 3 x (nt, 2); np.take gathers rows far faster than fancy indexing
        corners = [np.take(mesh.vertices, t[:, i], axis=0) for i in range(3)]
        self.cell_qweights = mesh.areas[:, None] * TRI_QW[None, :]
        self.grad_lambda = _grad_lambda(corners, mesh.areas)

        # cell P1 mass, (nt, 3, 3): one two-operand einsum, no BLAS call
        V = P1_AT_Q
        self.p1_cell_mass = np.einsum(
            "tq,kq->tk", self.cell_qweights, (V[:, None] * V).reshape(9, -1)
        ).reshape(nt, 3, 3)
        # consistent P1 mass M_p and basis integrals m = M_p 1, bit for bit;
        # entry (a, b) of cell c goes to row t[c, a], column t[c, b], with
        # int32 indices, the CSR's own, so scipy converts none
        nv = mesh.num_vertices
        t32 = t.astype(np.int32)
        self.p1_mass = sp.coo_matrix(
            (self.p1_cell_mass.ravel(),
             (np.repeat(t32.ravel(), 3), np.tile(t32, (1, 3)).ravel())),
            shape=(nv, nv)).tocsr()
        self.p1_integrals = self.p1_mass @ np.ones(nv)

        # edge (face) structures; geometry comes from the mesh ------------
        edges = mesh.edges
        ne = edges.shape[0]
        self.edge_interior = mesh.edge_cells[:, 1] >= 0
        # DG dof of each edge vertex in each side's cell, (ne, 2, 2), -1 on
        # the missing side of a boundary edge.  Scattered from the cells:
        # local edge i of a cell joins its local vertices i+1 and i+2, and
        # ``edges`` lists the lower vertex first
        dofs = np.full(4 * ne, -1, dtype=np.int32)
        cells = np.arange(nt)
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            e = mesh.cell_edges[:, i]
            at = 4 * e + 2 * (mesh.edge_cells[e, 1] == cells)
            lower = t[:, i1] < t[:, i2]
            dofs[at] = 3 * cells + np.where(lower, i1, i2)
            dofs[at + 1] = 3 * cells + np.where(lower, i2, i1)
        self.edge_dg_dofs = dofs.reshape(ne, 2, 2)

        # velocity scalar node layout: vertices then edge midpoints
        self.num_scalar_nodes = mesh.num_vertices + ne
        midpoints = 0.5 * (np.take(mesh.vertices, edges[:, 0], axis=0)
                           + np.take(mesh.vertices, edges[:, 1], axis=0))
        self.velocity_nodes = np.concatenate([mesh.vertices, midpoints])
        self.cell_scalar_nodes = np.concatenate(
            [t, mesh.num_vertices + mesh.cell_edges], axis=1)
        bverts = np.unique(mesh.boundary_edges)
        self.boundary_scalar_nodes = np.concatenate(
            [bverts, mesh.num_vertices + mesh.boundary_edge_ids])
        # freeze all arrays, the CSR's too; the context is shared read-only
        M = self.p1_mass
        for value in [*vars(self).values(), M.data, M.indices, M.indptr]:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True)
class SpaceDescriptor:
    """One discrete space: kind, dof count and dof geometry."""

    kind: str      # "velocity" | "pressure" | "vorticity"
    dof_count: int
    context: FeContext

    def dof_points(self):
        """Coordinates attached to each dof of a scalar space (velocity
        dofs sit at ``context.velocity_nodes``, once per component)."""
        ctx = self.context
        if self.kind == "pressure":
            return ctx.mesh.vertices
        return np.take(ctx.mesh.vertices, ctx.mesh.triangles,
                       axis=0).reshape(-1, 2)

    def new_field(self, coefficients=None):
        if coefficients is None:
            coefficients = np.zeros(self.dof_count)
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.dof_count,):
            raise ValueError(
                f"expected {self.dof_count} coefficients, got {coefficients.shape}")
        return Field(self, coefficients)


@dataclass
class Field:
    """Coefficient vector attached to a space."""

    space: SpaceDescriptor
    coefficients: np.ndarray


class Spaces(NamedTuple):
    velocity: SpaceDescriptor
    pressure: SpaceDescriptor
    vorticity: SpaceDescriptor
    context: FeContext


class FieldNorms(NamedTuple):
    l2: float
    h1_semi: float
    linf_dof: float


def build_spaces(mesh):
    """Build the velocity/pressure/vorticity trio over one mesh."""
    ctx = FeContext(mesh)
    velocity = SpaceDescriptor("velocity", 2 * ctx.num_scalar_nodes, ctx)
    pressure = SpaceDescriptor("pressure", mesh.num_vertices, ctx)
    vorticity = SpaceDescriptor("vorticity", 3 * mesh.num_triangles, ctx)
    return Spaces(velocity, pressure, vorticity, ctx)


def interpolate(func: Callable, space: SpaceDescriptor) -> Field:
    """Nodal interpolation of a callable into ``space``.

    ``func`` is called with coordinate arrays through
    :func:`gradetwo.userdata.evaluate`.  Velocity expects
    ``func(x, y) -> (ux, uy)``; the scalar spaces expect
    ``func(x, y) -> value``.  Pressure interpolants are shifted to zero
    mean (the space carries that constraint).
    """
    velocity = space.kind == "velocity"
    pts = space.context.velocity_nodes if velocity else space.dof_points()
    vals = evaluate(func, pts[:, 0], pts[:, 1])
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite evaluation while interpolating at "
                         f"{space.kind} nodes")
    field = space.new_field(vals.T.ravel() if velocity else vals)
    if space.kind == "pressure":
        field.coefficients -= pressure_mean(field)
    return field


def pressure_mean(field: Field) -> float:
    """Exact mean (m . p) / sum(m) of a P1 pressure field p."""
    m = field.space.context.p1_integrals
    # plain sums, not a BLAS dot, which threads on long vectors
    return float((m * field.coefficients).sum() / m.sum())


def _norm(x):
    """Euclidean norm of a vector, as a plain sum of squares: a BLAS dot
    (``np.linalg.norm``) wakes the thread pool on long vectors."""
    return float(np.sqrt((x * x).sum()))


# -- evaluation at cell quadrature points ------------------------------------

def velocity_cell_values(field: Field):
    """(nt, nq, 2) samples of a velocity field at cell quadrature points."""
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes  # (nt, 6)
    cx = field.coefficients[:n][nodes]
    cy = field.coefficients[n:][nodes]
    vx = np.einsum("ta,aq->tq", cx, P2_AT_Q)
    vy = np.einsum("ta,aq->tq", cy, P2_AT_Q)
    return np.stack([vx, vy], axis=2)


def velocity_cell_gradients(field: Field):
    """(nt, nq, 2, 2) gradients; [t, q, i, j] = d u_i / d x_j, from the
    corner values, g(q) = sum_j lambda_j(q) g_j, exact since grad u is
    linear on each cell."""
    g = velocity_corner_gradients(field)
    nt = g.shape[0]
    # the corner axis last and contiguous: 2x faster in einsum than as given
    g = np.ascontiguousarray(g.reshape(nt, 3, 4).transpose(0, 2, 1))
    return np.einsum("txj,jq->tqx", g, P1_AT_Q).reshape(nt, -1, 2, 2)


# row (a, j): d phi_a / d lambda at corner j, at most one nonzero per row
_DLAMBDA_AT_CORNERS = p2_lambda_derivatives(np.eye(3)).reshape(18, 3)


def _p2_grads_at_corners(ctx):
    """P2 basis gradients at the cell corners, (nt, 6, 3, 2), rebuilt per
    call: each entry is one product plus exact zeros, the same bits in any
    summation order; numpy hands each cell's 18x3 by 3x2 product to BLAS,
    far below its threading size."""
    return (_DLAMBDA_AT_CORNERS @ ctx.grad_lambda).reshape(-1, 6, 3, 2)


def velocity_corner_gradients(field: Field):
    """(nt, 3, 2, 2) gradients at the cell corners, laid out as
    :func:`velocity_cell_gradients`."""
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes
    G = _p2_grads_at_corners(ctx)
    gx = np.einsum("ta,tajd->tjd", field.coefficients[:n][nodes], G)
    gy = np.einsum("ta,tajd->tjd", field.coefficients[n:][nodes], G)
    return np.stack([gx, gy], axis=2)


def scalar_cell_values(field: Field):
    """(nt, nq) samples of a P1/DG-P1 scalar at cell quadrature points."""
    return np.einsum("ta,aq->tq", _cell_scalar_coeffs(field), P1_AT_Q)


def scalar_cell_gradients(field: Field):
    """(nt, 2) broken gradients (constant per cell for linear scalars)."""
    ctx = field.space.context
    c = _cell_scalar_coeffs(field)
    return np.einsum("ta,tad->td", c, ctx.grad_lambda)


def data_cell_values(ctx, func):
    """A data callable at the cell quadrature points, through
    :func:`gradetwo.userdata.evaluate`: shape (nt, nq), with a trailing
    (2,) or (2, 2) for vector or gradient data."""
    t = ctx.mesh.triangles
    corners = [np.take(ctx.mesh.vertices, t[:, i], axis=0) for i in range(3)]
    # one a*p0 + b*p1 + c*p2 per quadrature point, in that order
    pts = np.empty((t.shape[0], TRI_QP.shape[0], 2))
    for q, (a, b, c) in enumerate(TRI_QP):
        pts[:, q] = a * corners[0] + b * corners[1] + c * corners[2]
    return evaluate(func, pts[..., 0], pts[..., 1])


def _cell_scalar_coeffs(field):
    ctx = field.space.context
    if field.space.kind == "pressure":
        return field.coefficients[ctx.mesh.triangles]
    if field.space.kind == "vorticity":
        return field.coefficients.reshape(-1, 3)
    raise ValueError("expected a scalar field")


def velocity_edge_coefficients(field: Field):
    """(2, ne, 3) coefficients of each velocity component at each edge's own
    nodes (v0, v1, midpoint), the rows of :data:`EDGE_P2`."""
    ctx = field.space.context
    mesh = ctx.mesh
    nodes = np.column_stack([mesh.edges,
                             mesh.num_vertices + np.arange(mesh.num_edges)])
    return field.coefficients.reshape(2, ctx.num_scalar_nodes)[:, nodes]


def velocity_edge_values(field: Field):
    """(ne, nqe, 2) velocity traces on all edges, from their own nodes."""
    return np.einsum("cea,aq->eqc", velocity_edge_coefficients(field), EDGE_P2)


def vorticity_edge_values(field: Field, side):
    """(ne, nqe) one-sided DG traces; side 0/1 per edge_cells, 0 if none."""
    dofs = field.space.context.edge_dg_dofs[:, side]  # (ne, 2)
    vals = np.einsum("ea,aq->eq", field.coefficients[dofs], EDGE_P1)
    vals[dofs[:, 0] < 0] = 0.0
    return vals


def curl_of_velocity(field: Field, vorticity_space: SpaceDescriptor) -> Field:
    """Broken curl of a quadratic velocity, represented exactly in DG-P1.

    curl u = d u2/dx - d u1/dy is linear on each cell, so sampling it at the
    cell corners is an exact representation, not a projection.
    """
    g = velocity_corner_gradients(field)
    return vorticity_space.new_field((g[:, :, 1, 0] - g[:, :, 0, 1]).ravel())


# -- norms --------------------------------------------------------------------

def norms(field: Field) -> FieldNorms:
    """L2 norm, (broken) H1 seminorm and max dof magnitude.

    Each cellwise-linear quantity is integrated exactly from its corner
    values (:func:`_linear_squares`): the velocity gradient, and the
    values of a P1 or DG-P1 scalar.  The velocity's L2 norm takes the cell
    quadrature, exact for its degree-4 square; a scalar's gradient is
    constant on each cell.
    """
    ctx = field.space.context
    if field.space.kind == "velocity":
        v = velocity_cell_values(field)
        l2 = np.sqrt((ctx.cell_qweights * (v ** 2).sum(axis=2)).sum())
        h1 = np.sqrt(_linear_squares(ctx, velocity_corner_gradients(field)))
    else:
        l2 = np.sqrt(_linear_squares(ctx, _cell_scalar_coeffs(field)))
        g = scalar_cell_gradients(field)
        h1 = np.sqrt((ctx.mesh.areas * (g ** 2).sum(axis=1)).sum())
    linf = float(np.abs(field.coefficients).max(initial=0.0))
    return FieldNorms(float(l2), float(h1), linf)


def _linear_squares(ctx, corners):
    """Integral of the squares of cellwise-linear quantities, exact from
    their (nt, 3, ...) corner values and summed over any trailing axes: a
    linear f with corner values f_k has integral area/12 ((sum_k f_k)^2 +
    sum_k f_k^2) over its cell, from int lambda_i lambda_j = area (1 +
    delta_ij) / 12."""
    f = corners.reshape(*corners.shape[:2], math.prod(corners.shape[2:]))
    total = f.sum(axis=1)
    sq = np.einsum("ti,ti->t", total, total) + np.einsum("tki,tki->t", f, f)
    return float((ctx.mesh.areas * sq).sum() / 12.0)


def error_l2(field: Field, exact: Callable) -> float:
    """L2 distance between a field and a callable (vector for velocity);
    ``exact`` is called with coordinate arrays, as in :func:`interpolate`."""
    ctx = field.space.context
    ex = data_cell_values(ctx, exact)
    if field.space.kind == "velocity":
        diff = ((velocity_cell_values(field) - ex) ** 2).sum(axis=2)
    else:
        diff = (scalar_cell_values(field) - ex) ** 2
    return float(np.sqrt((ctx.cell_qweights * diff).sum()))


def error_h1(field: Field, exact_grad: Callable) -> float:
    """(Broken) H1-seminorm distance; ``exact_grad`` is called with
    coordinate arrays and returns the gradient rows (du1, du2) for velocity
    or (dzdx, dzdy) for scalars."""
    ctx = field.space.context
    ex = data_cell_values(ctx, exact_grad)
    if field.space.kind == "velocity":
        diff = ((velocity_cell_gradients(field) - ex) ** 2).sum(axis=(2, 3))
    else:
        g = scalar_cell_gradients(field)  # (nt, 2)
        diff = ((g[:, None, :] - ex) ** 2).sum(axis=2)
    return float(np.sqrt((ctx.cell_qweights * diff).sum()))


# CG steps on the P1 mass: 4 * 9^-16 = 2e-15 bounds the relative error of
# r^T M^-1 r (see velocity_weak_divergence_l2)
MASS_CG_STEPS = 16


def velocity_weak_divergence_l2(field: Field) -> float:
    """L2 norm of the P1 projection of div u.

    This is the quantity the divergence constraint of the mixed method
    actually controls: solver-precision small for Stokes solutions, order
    one for genuinely compressible data.  The P2 interpolant of a
    solenoidal field is not discretely divergence free: its norm is an
    interpolation error of order h^3 (1.0e-4, 1.0e-5 and 9.2e-7 for the
    ``poly`` case at h = 1/8, 1/16, 1/32), above the transport's default
    check.

    div u is linear on each cell, so its P1 load r, the integrals of
    div u against the P1 basis, is exact from its corner values d_k:
    area/12 (sum_k d_k + d_j) on each cell, from int lambda_i lambda_j =
    area (1 + delta_ij) / 12; no quadrature point enters.  The norm is
    sqrt(r^T M^-1 r) for the P1 mass M, taken by :data:`MASS_CG_STEPS`
    steps of Jacobi-preconditioned conjugate gradients from zero.  The
    Jacobi-scaled P1 mass has its spectrum in [1/2, 2] on any triangle mesh
    (Wathen, IMA J. Numer. Anal. 7, 1987), so after k steps r^T x_k falls
    short of r^T M^-1 r by the squared M-norm error, at most 4 * 9^-k of
    it: 2e-15 relative at k = 16.  The step count is fixed, so no tolerance
    enters and the result repeats bit for bit.
    """
    return _weak_divergence_l2(field.space.context,
                               velocity_corner_gradients(field))


def _weak_divergence_l2(ctx, g):
    """:func:`velocity_weak_divergence_l2` from the (nt, 3, 2, 2) corner
    gradients ``g``."""
    mesh = ctx.mesh
    div = g[:, :, 0, 0] + g[:, :, 1, 1]     # (nt, 3)
    r_cell = (mesh.areas / 12.0)[:, None] * (div.sum(axis=1)[:, None] + div)
    r = np.bincount(mesh.triangles.ravel(), r_cell.ravel(),
                    minlength=mesh.num_vertices)
    M = ctx.p1_mass
    # a vertex no cell references has a zero row and a zero load: skip it
    diag = M.diagonal()
    dinv = 1.0 / np.where(diag > 0.0, diag, np.inf)
    # inner products as sums, not BLAS dots, which thread on long vectors
    x = np.zeros_like(r)
    res = r.copy()
    s = dinv * res
    d = s.copy()
    rho = (res * s).sum()
    for _ in range(MASS_CG_STEPS):
        if rho == 0.0:
            break
        Md = M @ d
        step = rho / (d * Md).sum()
        x += step * d
        res -= step * Md
        s = dinv * res
        rho, rho_old = (res * s).sum(), rho
        d = s + (rho / rho_old) * d
    return float(np.sqrt(max((x * r).sum(), 0.0)))
