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

Space descriptors and the tabulation context are immutable after
construction and safe to share across threads, with one exception: the
context's P1 mass factorisation (:attr:`FeContext.p1_mass_lu`) is built on
first use and then kept.  It is the one cache; building it is deterministic
and idempotent, so concurrent first uses at worst build it twice.  Field
coefficient vectors belong to one writer at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

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

        # edge (face) structures; geometry comes from the mesh ------------
        edges = mesh.edges
        ne = edges.shape[0]
        self.edge_interior = mesh.edge_cells[:, 1] >= 0

        def edge_bary(cells):
            """Barycentrics of the edge Gauss points in ``cells``, (ne, nqe, 3);
            zero where a boundary edge has no second cell."""
            tri = np.where(cells[:, None] >= 0, mesh.triangles[cells], -1)
            tri = tri[:, None, :]
            return ((tri == edges[:, None, 0:1]) * (1.0 - EDGE_QP)[None, :, None]
                    + (tri == edges[:, None, 1:2]) * EDGE_QP[None, :, None])

        bary0 = edge_bary(mesh.edge_cells[:, 0])
        bary1 = edge_bary(mesh.edge_cells[:, 1])
        # P1 traces equal the barycentric coordinates themselves
        self.edge_p1_trace = np.stack(
            [bary0.transpose(0, 2, 1), bary1.transpose(0, 2, 1)], axis=1
        )  # (ne, 2, 3, nqe)
        self.edge_p2_trace = np.stack(
            [p2_values(bary0), p2_values(bary1)]).transpose(2, 0, 1, 3).copy()
        # (ne, 2, 6, nqe)

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

    @cached_property
    def p1_mass_lu(self):
        """Factorisation of the continuous P1 mass matrix, built on first use.

        Not built with the context: only the weak-divergence check of a
        transport solve or an energy report needs it, and at n = 128 it
        takes about 0.16 s, three quarters of :func:`build_spaces`.
        """
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        tri = self.mesh.triangles
        P = self.p1_at_q
        mass_cell = np.einsum("tq,kq,lq->tkl", self.cell_qweights, P, P)
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        return spla.splu(
            sp.coo_matrix((mass_cell.ravel(), (rows, cols))).tocsc())


@dataclass(frozen=True)
class SpaceDescriptor:
    """One discrete space: kind, dof count and dof geometry."""

    kind: str      # "velocity" | "pressure" | "vorticity"
    dof_count: int
    context: FeContext
    zero_mean: bool = False

    def dof_points(self):
        """Coordinates attached to each dof (kind-dependent layout)."""
        ctx = self.context
        if self.kind == "velocity":
            return np.concatenate([ctx.velocity_nodes, ctx.velocity_nodes])
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

    def copy(self):
        return Field(self.space, self.coefficients.copy())


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
        shift_to_zero_mean(field)
    return field


def pressure_mean(field: Field) -> float:
    """Exact mean of a P1 pressure field."""
    ctx = field.space.context
    mesh = ctx.mesh
    cellvals = field.coefficients[mesh.triangles]  # (nt, 3)
    integral = (mesh.areas * cellvals.mean(axis=1)).sum()
    return float(integral / mesh.areas.sum())


def shift_to_zero_mean(field: Field):
    """In-place mean removal for pressure fields."""
    field.coefficients -= pressure_mean(field)


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
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes
    cx = field.coefficients[:n][nodes]
    cy = field.coefficients[n:][nodes]
    gx = np.einsum("ta,taqd->tqd", cx, ctx.p2_grad_at_q)
    gy = np.einsum("ta,taqd->tqd", cy, ctx.p2_grad_at_q)
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


def velocity_edge_values(field: Field):
    """(ne, nqe, 2) velocity traces on all edges (continuous field)."""
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    c0 = ctx.mesh.edge_cells[:, 0]
    nodes = ctx.cell_scalar_nodes[c0]  # (ne, 6)
    tr = ctx.edge_p2_trace[:, 0]       # (ne, 6, nqe)
    vx = np.einsum("ea,eaq->eq", field.coefficients[:n][nodes], tr)
    vy = np.einsum("ea,eaq->eq", field.coefficients[n:][nodes], tr)
    return np.stack([vx, vy], axis=2)


def vorticity_edge_values(field: Field, side):
    """(ne, nqe) one-sided traces of a DG scalar; side 0/1 per edge_cells."""
    ctx = field.space.context
    cells = ctx.mesh.edge_cells[:, side]
    cells = np.maximum(cells, 0)
    coeffs = field.coefficients.reshape(-1, 3)[cells]  # (ne, 3)
    tr = ctx.edge_p1_trace[:, side]  # (ne, 3, nqe)
    return np.einsum("ea,eaq->eq", coeffs, tr)


def curl_of_velocity(field: Field, vorticity_space: SpaceDescriptor) -> Field:
    """Broken curl of a quadratic velocity, represented exactly in DG-P1.

    curl u = d u2/dx - d u1/dy is linear on each cell, so sampling it at the
    cell corners is an exact representation, not a projection.
    """
    ctx = field.space.context
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes
    cx = field.coefficients[:n][nodes]
    cy = field.coefficients[n:][nodes]
    g = ctx.p2_grad_at_corners  # (nt, 6, 3, 2)
    du2dx = np.einsum("ta,taq->tq", cy, g[:, :, :, 0])
    du1dy = np.einsum("ta,taq->tq", cx, g[:, :, :, 1])
    return vorticity_space.new_field((du2dx - du1dy).ravel())


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


def integrate(ctx: FeContext, cell_values):
    """Integrate (nt, nq) samples against the cell quadrature."""
    return float((ctx.cell_qweights * cell_values).sum())


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


def velocity_weak_divergence_l2(field: Field) -> float:
    """L2 norm of the P1 projection of div u.

    This is the quantity the divergence constraint of the mixed method
    actually controls: solver-precision small for Stokes solutions and for
    interpolants of solenoidal fields, order one for genuinely
    compressible data.
    """
    ctx = field.space.context
    mesh = ctx.mesh
    g = velocity_cell_gradients(field)
    div = g[:, :, 0, 0] + g[:, :, 1, 1]
    P = ctx.p1_at_q
    r_cell = np.einsum("tq,kq,tq->tk", ctx.cell_qweights, P, div)
    r = np.zeros(mesh.num_vertices)
    np.add.at(r, mesh.triangles.ravel(), r_cell.ravel())
    d = ctx.p1_mass_lu.solve(r)
    return float(np.sqrt(max(d @ r, 0.0)))
