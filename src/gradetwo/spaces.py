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

:class:`FeContext` tabulates once per mesh what the solvers share: quadrature
points and weights, basis values and gradients, the cell P1 mass, the DG edge
dofs, the velocity node layout and the consistent P1 mass M_p (``p1_mass``,
CSR) with ``p1_integrals`` = M_p 1, which give the Stokes Schur surrogate,
the weak-divergence norm, the zero-mean border and :func:`pressure_mean`.

Space descriptors and the tabulation context are immutable after
construction, cache nothing and are safe to share across threads.  Field
coefficient vectors belong to one writer at a time.
"""

from __future__ import annotations

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


def _grad_lambda(vertices, triangles, areas):
    """Barycentric gradients per cell; shape (nt, 3, 2)."""
    p = vertices[triangles]  # (nt, 3, 2)
    gl = np.empty((triangles.shape[0], 3, 2))
    for i in range(3):
        e = p[:, (i + 1) % 3] - p[:, (i + 2) % 3]
        gl[:, i, 0] = e[:, 1]
        gl[:, i, 1] = -e[:, 0]
    gl /= (2.0 * areas)[:, None, None]
    return gl


def _p2_grads(bary, grad_lambda):
    """Physical P2 gradients; shape (nt, 6, nq, 2)."""
    b = np.asarray(bary)
    nq = b.shape[0]
    nt = grad_lambda.shape[0]
    out = np.zeros((nt, 6, nq, 2))
    for i in range(3):
        coef = (4.0 * b[:, i] - 1.0)  # (nq,)
        out[:, i] = grad_lambda[:, i, None, :] * coef[None, :, None]
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        out[:, 3 + i] = 4.0 * (
            grad_lambda[:, i2, None, :] * b[None, :, i1, None]
            + grad_lambda[:, i1, None, :] * b[None, :, i2, None]
        )
    return out


class FeContext:
    """Tabulated geometry and basis data shared by the three spaces."""

    def __init__(self, mesh):
        self.mesh = mesh
        nt = mesh.num_triangles
        tq = TRI_QP
        self.cell_qpoints = np.einsum(
            "qi,tid->tqd", tq, mesh.vertices[mesh.triangles])
        self.cell_qweights = mesh.areas[:, None] * TRI_QW[None, :]
        self.grad_lambda = _grad_lambda(mesh.vertices, mesh.triangles, mesh.areas)
        self.p1_at_q = p1_values(tq)            # (3, nq)
        self.p2_at_q = p2_values(tq)            # (6, nq)
        self.p2_grad_at_q = _p2_grads(tq, self.grad_lambda)  # (nt,6,nq,2)
        corners = np.eye(3)
        self.p2_grad_at_corners = _p2_grads(corners, self.grad_lambda)

        # cell P1 mass, (nt, 3, 3): one two-operand einsum, no BLAS call
        V = self.p1_at_q
        self.p1_cell_mass = np.einsum(
            "tq,kq->tk", self.cell_qweights, (V[:, None] * V).reshape(9, -1)
        ).reshape(nt, 3, 3)
        # consistent P1 mass M_p and basis integrals m = M_p 1, bit for bit
        t = mesh.triangles
        nv = mesh.num_vertices
        self.p1_mass = sp.coo_matrix(
            (self.p1_cell_mass.ravel(), (np.repeat(t, 3, axis=1).ravel(),
                                         np.tile(t, (1, 3)).ravel())),
            shape=(nv, nv)).tocsr()
        self.p1_integrals = self.p1_mass @ np.ones(nv)

        # edge (face) structures; geometry comes from the mesh ------------
        edges = mesh.edges
        ne = edges.shape[0]
        self.edge_interior = mesh.edge_cells[:, 1] >= 0
        # DG dof of each edge vertex in each side's cell, (ne, 2, 2); -1 on
        # the missing side of a boundary edge, whose cell index -1 picks the
        # last triangle until np.where masks it
        cells = mesh.edge_cells[:, :, None]
        tri = mesh.triangles[cells]                      # (ne, 2, 1, 3)
        local = np.argmax(tri == edges[:, None, :, None], axis=3)
        self.edge_dg_dofs = np.where(cells >= 0, 3 * cells + local, -1)

        # velocity scalar node layout: vertices then edge midpoints
        self.num_scalar_nodes = mesh.num_vertices + ne
        self.velocity_nodes = np.concatenate(
            [mesh.vertices, 0.5 * (mesh.vertices[edges[:, 0]]
                                   + mesh.vertices[edges[:, 1]])], axis=0)
        self.cell_scalar_nodes = np.concatenate(
            [mesh.triangles, mesh.num_vertices + mesh.cell_edges], axis=1)
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
    zero_mean: bool = False

    def dof_points(self):
        """Coordinates attached to each dof of a scalar space (velocity
        dofs sit at ``context.velocity_nodes``, once per component)."""
        ctx = self.context
        if self.kind == "pressure":
            return ctx.mesh.vertices
        return ctx.mesh.vertices[ctx.mesh.triangles].reshape(-1, 2)

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
    pressure = SpaceDescriptor("pressure", mesh.num_vertices, ctx,
                               zero_mean=True)
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


# -- evaluation at cell quadrature points ------------------------------------

def velocity_cell_values(field: Field):
    """(nt, nq, 2) samples of a velocity field at cell quadrature points."""
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes  # (nt, 6)
    cx = field.coefficients[:n][nodes]
    cy = field.coefficients[n:][nodes]
    vx = np.einsum("ta,aq->tq", cx, ctx.p2_at_q)
    vy = np.einsum("ta,aq->tq", cy, ctx.p2_at_q)
    return np.stack([vx, vy], axis=2)


def velocity_cell_gradients(field: Field):
    """(nt, nq, 2, 2) gradients; [t, q, i, j] = d u_i / d x_j."""
    return _velocity_gradients(field, field.space.context.p2_grad_at_q)


def velocity_corner_gradients(field: Field):
    """(nt, 3, 2, 2) gradients at the cell corners, laid out as
    :func:`velocity_cell_gradients`."""
    return _velocity_gradients(field, field.space.context.p2_grad_at_corners)


def _velocity_gradients(field, basis_grads):
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes
    gx = np.einsum("ta,taqd->tqd", field.coefficients[:n][nodes], basis_grads)
    gy = np.einsum("ta,taqd->tqd", field.coefficients[n:][nodes], basis_grads)
    return np.stack([gx, gy], axis=2)


def scalar_cell_values(field: Field):
    """(nt, nq) samples of a P1/DG-P1 scalar at cell quadrature points."""
    ctx = field.space.context
    c = _cell_scalar_coeffs(field)
    return np.einsum("ta,aq->tq", c, ctx.p1_at_q)


def scalar_cell_gradients(field: Field):
    """(nt, 2) broken gradients (constant per cell for linear scalars)."""
    ctx = field.space.context
    c = _cell_scalar_coeffs(field)
    return np.einsum("ta,tad->td", c, ctx.grad_lambda)


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
    """Quadrature L2 norm, (broken) H1 seminorm and max dof magnitude."""
    ctx = field.space.context
    w = ctx.cell_qweights
    if field.space.kind == "velocity":
        v = velocity_cell_values(field)
        l2 = np.sqrt((w * (v ** 2).sum(axis=2)).sum())
        g = velocity_cell_gradients(field)
        h1 = np.sqrt((w * (g ** 2).sum(axis=(2, 3))).sum())
    else:
        v = scalar_cell_values(field)
        l2 = np.sqrt((w * v ** 2).sum())
        g = scalar_cell_gradients(field)
        h1 = np.sqrt((ctx.mesh.areas * (g ** 2).sum(axis=1)).sum())
    linf = float(np.abs(field.coefficients).max(initial=0.0))
    return FieldNorms(float(l2), float(h1), linf)


def error_l2(field: Field, exact: Callable) -> float:
    """L2 distance between a field and a callable (vector for velocity);
    ``exact`` is called with coordinate arrays, as in :func:`interpolate`."""
    ctx = field.space.context
    pts = ctx.cell_qpoints
    ex = evaluate(exact, pts[..., 0], pts[..., 1])
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
    pts = ctx.cell_qpoints
    ex = evaluate(exact_grad, pts[..., 0], pts[..., 1])
    if field.space.kind == "velocity":
        diff = ((velocity_cell_gradients(field) - ex) ** 2).sum(axis=(2, 3))
    else:
        g = scalar_cell_gradients(field)  # (nt, 2)
        diff = ((g[:, None, :] - ex) ** 2).sum(axis=2)
    return float(np.sqrt((ctx.cell_qweights * diff).sum()))


def velocity_h1_semi(field: Field) -> float:
    """|u|_H1, exact from the corner gradients: grad u is linear on each
    cell, and a linear f with corner values f_k has integral
    area/12 ((sum_k f_k)^2 + sum_k f_k^2), from int lambda_i lambda_j =
    area (1 + delta_ij) / 12.  Equal to ``norms(field).h1_semi`` up to
    round-off."""
    g = velocity_corner_gradients(field).reshape(-1, 3, 4)
    total = g.sum(axis=1)
    sq = np.einsum("ti,ti->t", total, total) + np.einsum("tki,tki->t", g, g)
    return float(np.sqrt((field.space.context.mesh.areas * sq).sum() / 12.0))


# CG steps on the P1 mass: 4 * 9^-16 = 2e-15 bounds the relative error of
# r^T M^-1 r (see velocity_weak_divergence_l2)
MASS_CG_STEPS = 16


def velocity_weak_divergence_l2(field: Field) -> float:
    """L2 norm of the P1 projection of div u.

    This is the quantity the divergence constraint of the mixed method
    actually controls: solver-precision small for Stokes solutions and for
    interpolants of solenoidal fields, order one for genuinely
    compressible data.

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
    ctx = field.space.context
    mesh = ctx.mesh
    g = velocity_corner_gradients(field)
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
