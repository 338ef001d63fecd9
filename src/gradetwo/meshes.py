"""Triangulations of polygonal domains and inflow/outflow boundary analysis.

A mesh is immutable after construction and safe to share between threads.
The native file format is line oriented ASCII::

    mesh2d 1
    nodes N
    <id> <x> <y>            (N lines, ids 0..N-1 in order)
    triangles M
    <id> <v0> <v1> <v2>     (M lines, counterclockwise)
    boundary_edges B
    <id> <v0> <v1> <marker> (B lines)

Boundary edges must tile the topological boundary of the triangulation and
close into loops; markers are free integers (typically one per polygon side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    BoundaryResolutionError,
    MeshFormatError,
    MeshTopologyError,
)
from .userdata import evaluate

__all__ = [
    "Mesh", "BoundaryPartition", "EDGE_QP", "EDGE_QW",
    "load_mesh", "save_mesh", "unit_square_mesh",
    "boundary_components", "classify_boundary", "flux_per_component",
    "ComponentFluxes", "normal_boundary_data",
]

# 3-point Gauss rule on [0, 1]: exact through degree 5
EDGE_QP = np.array([
    0.5 * (1.0 - np.sqrt(0.6)),
    0.5,
    0.5 * (1.0 + np.sqrt(0.6)),
])
EDGE_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


class Mesh:
    """Conforming triangulation with tagged boundary edges.

    Parameters
    ----------
    vertices : (nv, 2) float array, finite
    triangles : (nt, 3) int array, positively oriented
    boundary_edges : (nb, 2) int array
    boundary_markers : (nb,) int array, one marker per boundary edge

    Construction validates the conformity invariants: every boundary edge
    belongs to exactly one triangle, every interior edge to exactly two,
    all triangles have positive signed area and the boundary edges close
    into loops.  It also tabulates every edge's length, unit normal
    (pointing out of ``edge_cells[:, 0]``), Gauss points and weights
    (``edge_qpoints``, ``edge_qweights``, arc length measure); the
    ``boundary_lengths``, ``boundary_normals``, ``boundary_qpoints`` and
    ``boundary_qweights`` arrays are their boundary rows, in the file order
    of ``boundary_edges``, taken once here and read by every boundary
    integral.  ``edges`` holds each edge's vertices ascending, and the rows
    ascend.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_markers):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_markers = np.ascontiguousarray(boundary_markers, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshTopologyError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshTopologyError("triangles must be an (nt, 3) array")
        if self.boundary_edges.ndim != 2 or self.boundary_edges.shape[1] != 2:
            raise MeshTopologyError("boundary_edges must be an (nb, 2) array")
        if self.boundary_markers.shape != self.boundary_edges.shape[:1]:
            raise MeshTopologyError(
                f"boundary_markers has shape {self.boundary_markers.shape}, "
                f"not {self.boundary_edges.shape[:1]}: one per boundary edge")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise MeshTopologyError(f"vertex {bad[0]} has non-finite "
                                    f"coordinates {self.vertices[bad[0]]}")
        self._validate_indices()
        self._build_geometry()
        self._validate_boundary(self._build_edges())
        self._build_edge_geometry()
        bids = self.boundary_edge_ids
        self.boundary_normals = self.edge_normals[bids]
        self.boundary_lengths = self.edge_lengths[bids]
        self.boundary_qpoints = self.edge_qpoints[bids]    # (nb, 3, 2)
        self.boundary_qweights = self.edge_qweights[bids]  # (nb, 3)
        # freeze all arrays; the mesh is shared read-only from here on
        for arr in vars(self).values():
            arr.setflags(write=False)

    # -- derived quantities ------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def num_boundary_edges(self):
        return self.boundary_edges.shape[0]

    def _validate_indices(self):
        nv = self.num_vertices
        bad = np.nonzero((self.triangles < 0) | (self.triangles >= nv))[0]
        if bad.size:
            t = int(bad[0])
            raise MeshTopologyError(
                f"triangle {t} references vertex index out of range "
                f"(indices {self.triangles[t].tolist()}, nv={nv})"
            )
        bad = np.nonzero((self.boundary_edges < 0) | (self.boundary_edges >= nv))[0]
        if bad.size:
            e = int(bad[0])
            raise MeshTopologyError(
                f"boundary edge {e} references vertex index out of range"
            )

    def _build_geometry(self):
        p0, p1, p2 = (np.take(self.vertices, self.triangles[:, i], axis=0)
                      for i in range(3))
        d1 = p1 - p0
        d2 = p2 - p0
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        bad = np.nonzero(signed <= 0.0)[0]
        if bad.size:
            t0 = int(bad[0])
            raise MeshTopologyError(
                f"triangle {t0} is not positively oriented "
                f"(signed area {signed[t0]:.3e})"
            )
        self.areas = signed

    def _edge_codes(self, pairs):
        """Code ``lo * nv + hi`` of each vertex pair; codes sort as the
        sorted ``(lo, hi)`` rows do."""
        nv = self.num_vertices
        return pairs.min(axis=1) * nv + pairs.max(axis=1)

    def _build_edges(self):
        """Tabulate the edges (ascending codes) and return their codes."""
        t = self.triangles
        nt = t.shape[0]
        # local edge i sits opposite local vertex i
        raw = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1)
        # one stable sort: the edges, each entry's edge, each edge's cells
        flat = self._edge_codes(raw.reshape(-1, 2))
        order = np.argsort(flat, kind="stable")
        start = np.r_[True, np.diff(flat[order]) != 0][:flat.size]
        codes = flat[order[start]]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(start) - 1
        self.edges = np.stack(np.divmod(codes, self.num_vertices), axis=1)
        self.cell_edges = inverse.reshape(nt, 3)
        counts = np.bincount(inverse, minlength=self.edges.shape[0])
        if counts.max(initial=0) > 2:
            e = int(np.argmax(counts))
            raise MeshTopologyError(
                f"edge {self.edges[e].tolist()} is shared by {counts[e]} "
                "triangles; the triangulation is not conforming"
            )
        # slot 0 holds the lower of the edge's cells, slot 1 the other one
        # (-1 on the boundary); entry i of ``flat`` belongs to cell i // 3
        first = np.flatnonzero(start)
        self.edge_cells = np.full((self.edges.shape[0], 2), -1, dtype=np.int64)
        self.edge_cells[:, 0] = order[first] // 3
        two = counts == 2
        self.edge_cells[two, 1] = order[first[two] + 1] // 3
        return codes

    def _validate_boundary(self, codes):
        """Map the declared boundary edges to edge ids, given the ascending
        edge ``codes``, and check that they tile the boundary in loops."""
        key = np.sort(self.boundary_edges, axis=1)
        wanted = self._edge_codes(key)
        if np.unique(wanted).size != wanted.size:
            raise MeshTopologyError("duplicate boundary edge in file")
        one_cell = self.edge_cells[:, 1] < 0
        ids = np.searchsorted(codes, wanted)
        # no code is negative, so the pad matches nothing past the end
        missing = np.nonzero(np.append(codes, -1)[ids] != wanted)[0]
        if missing.size:
            b = int(missing[0])
            raise MeshTopologyError(f"boundary edge {b} {key[b].tolist()} is "
                                    "not an edge of any triangle")
        shared = np.nonzero(~one_cell[ids])[0]
        if shared.size:
            b = int(shared[0])
            raise MeshTopologyError(f"boundary edge {b} {key[b].tolist()} is "
                                    "interior (shared by two triangles)")
        self.boundary_edge_ids = ids
        declared = np.zeros(self.num_edges, dtype=bool)
        declared[ids] = True
        missing = np.nonzero(one_cell & ~declared)[0]
        if missing.size:
            e = int(missing[0])
            raise MeshTopologyError(
                f"edge {self.edges[e].tolist()} lies on the boundary but is "
                "not declared in boundary_edges; loops do not close"
            )
        # each boundary vertex must touch exactly two boundary edges
        counts = np.bincount(key.ravel(), minlength=self.num_vertices)
        bad = np.nonzero((counts != 0) & (counts != 2))[0]
        if bad.size:
            raise MeshTopologyError(
                f"boundary vertex {int(bad[0])} touches {int(counts[bad[0]])} "
                "boundary edges (loops do not close)"
            )

    def _build_edge_geometry(self):
        # rows gathered with np.take, several times faster than fancy
        # indexing on (n, 2) arrays
        v = self.vertices
        t = self.triangles
        pa = np.take(v, self.edges[:, 0], axis=0)
        pb = np.take(v, self.edges[:, 1], axis=0)
        tangent = pb - pa
        self.edge_lengths = np.hypot(tangent[:, 0], tangent[:, 1])
        if np.any(self.edge_lengths <= 0.0):
            raise MeshTopologyError("zero-length edge")
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
        normal /= self.edge_lengths[:, None]
        # orient from the first cell's centroid towards the second cell's,
        # or towards the midpoint on the boundary
        centroids = (np.take(v, t[:, 0], axis=0) + np.take(v, t[:, 1], axis=0)
                     + np.take(v, t[:, 2], axis=0)) / 3.0
        c0, c1 = self.edge_cells.T
        ref = np.where((c1 >= 0)[:, None],
                       np.take(centroids, np.maximum(c1, 0), axis=0),
                       0.5 * (pa + pb))
        flip = np.einsum("ed,ed->e", normal,
                         ref - np.take(centroids, c0, axis=0)) < 0.0
        np.negative(normal, out=normal, where=flip[:, None])
        self.edge_normals = normal
        # one pa*(1 - s) + pb*s per Gauss point s
        self.edge_qpoints = np.empty((pa.shape[0], EDGE_QP.size, 2))
        for q, s in enumerate(EDGE_QP):
            self.edge_qpoints[:, q] = pa * (1.0 - s) + pb * s
        self.edge_qweights = self.edge_lengths[:, None] * EDGE_QW[None, :]


@dataclass(frozen=True)
class BoundaryPartition:
    """Inflow/outflow split of the boundary induced by the velocity data.

    ``gamma_minus`` and ``gamma_zero_plus`` hold boundary-edge ids (file
    order).  ``junctions`` are vertices where the two incident boundary
    edges fall in different sets.  ``degenerate_points`` are vertices of the
    closure of the inflow part where the normal data degenerates to zero;
    those that are not junctions flag an unresolvable interior degeneracy.
    ``beta`` is the reciprocal of the smallest inflow speed, or ``None``
    when the inflow set is empty or touches zero.
    """

    gamma_minus: tuple
    gamma_zero_plus: tuple
    junctions: tuple
    degenerate_points: tuple
    beta: float | None
    eps_n: float = field(default=0.0, compare=False)

    def interior_degeneracies(self):
        """Degenerate points strictly inside the closure of the inflow set."""
        junc = set(self.junctions)
        return tuple(v for v in self.degenerate_points if v not in junc)


def normal_boundary_data(mesh, g):
    """g at the boundary quadrature points, (nb, 3, 2), and g.n, (nb, 3)."""
    pts = mesh.boundary_qpoints
    gv = evaluate(g, pts[..., 0], pts[..., 1])
    n = mesh.boundary_normals
    return gv, gv[..., 0] * n[:, None, 0] + gv[..., 1] * n[:, None, 1]


def boundary_components(mesh):
    """Group boundary edges into closed loops.

    Returns an int array with the component id of each boundary edge (file
    order).  Component ids are contiguous, starting from 0, ordered by the
    smallest edge id they contain.
    """
    ends = mesh.boundary_edges
    nv = mesh.num_vertices
    graph = sp.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                          shape=(nv, nv))
    labels = connected_components(graph, directed=False)[1][ends[:, 0]]
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    # rank each loop by the first boundary edge it holds
    return np.argsort(np.argsort(first))[inverse]


def classify_boundary(mesh, g, alpha, eps_n=None):
    """Split the boundary into the inflow part and its complement.

    An edge joins the inflow set iff ``alpha * g.n < -eps_n`` at all of its
    quadrature points; ties go to the complement.  A strict sign change of
    ``alpha * g.n`` inside one edge means the mesh cannot resolve the
    partition and raises :class:`BoundaryResolutionError`.

    Parameters
    ----------
    g : callable (x, y) -> (gx, gy), called with coordinate arrays through
        :func:`gradetwo.userdata.evaluate`
    alpha : float, stress modulus (sign matters, 0 gives an empty inflow set)
    eps_n : float, sign threshold; default ``1e-12 * max(1, max |g|)``
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if eps_n is not None and not (0.0 <= eps_n < np.inf):
        raise ValueError("eps_n must be nonnegative and finite")
    gv, gn = normal_boundary_data(mesh, g)
    if eps_n is None:
        gscale = float(np.hypot(gv[..., 0], gv[..., 1]).max(initial=0.0))
        eps_n = 1e-12 * max(1.0, gscale)
    eps_n = float(eps_n)
    s = alpha * gn
    neg = s < -eps_n
    pos = s > eps_n
    minus = neg.all(axis=1)
    if alpha != 0.0:
        split = np.nonzero(neg.any(axis=1) & pos.any(axis=1))[0]
        if split.size:
            raise BoundaryResolutionError(
                f"boundary edge {int(split[0])}: alpha*g.n changes sign "
                "strictly within the edge; refine the mesh to resolve the "
                "inflow partition"
            )
    # every boundary vertex touches two boundary edges, so a junction (the
    # two disagree) is a vertex that touches exactly one inflow edge
    ends = mesh.boundary_edges[minus]
    junctions = np.nonzero(np.bincount(ends.ravel(),
                                       minlength=mesh.num_vertices) == 1)[0]
    # degenerate points: vertices of closure(inflow) where |g.n_-| <= eps_n,
    # measured with the normal of an incident inflow edge
    degenerate = junctions[:0]
    if ends.size:
        verts, at = np.unique(ends.ravel(), return_inverse=True)
        gvert = evaluate(g, mesh.vertices[verts, 0], mesh.vertices[verts, 1])
        gvert = gvert[at].reshape(-1, 2, 2)  # (m edges, 2 ends, 2)
        n = mesh.boundary_normals[minus][:, None, :]
        gnv = gvert[..., 0] * n[..., 0] + gvert[..., 1] * n[..., 1]
        degenerate = np.unique(ends[np.abs(gnv) <= eps_n])
    beta = None
    if minus.any():
        m = float(np.abs(gn[minus]).min())
        if m > eps_n:
            beta = 1.0 / m
    return BoundaryPartition(
        gamma_minus=tuple(np.nonzero(minus)[0].tolist()),
        gamma_zero_plus=tuple(np.nonzero(~minus)[0].tolist()),
        junctions=tuple(junctions.tolist()),
        degenerate_points=tuple(degenerate.tolist()),
        beta=beta,
        eps_n=eps_n,
    )


class ComponentFluxes(NamedTuple):
    net: list         # net flux of g through boundary component c, at [c]
    absolute: float   # integral of |g.n| over the whole boundary


def flux_per_component(mesh, g):
    """Fluxes of g through the boundary (edge quadrature), from one
    evaluation of g; see :class:`ComponentFluxes`."""
    gn = normal_boundary_data(mesh, g)[1] * mesh.boundary_qweights
    return ComponentFluxes(
        np.bincount(boundary_components(mesh), gn.sum(axis=1)).tolist(),
        float(np.abs(gn).sum()))


# -- file format ------------------------------------------------------------

def load_mesh(path):
    """Read a mesh in the native format; see the module docstring.

    Raises :class:`MeshFormatError` with a line number on malformed input
    and :class:`MeshTopologyError` on conformity violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def fail(lineno, msg):
        raise MeshFormatError(msg, line=lineno)

    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines):
            idx += 1
            text = lines[idx - 1].strip()
            if text and not text.startswith("#"):
                return idx, text
        return idx, None

    lineno, header = next_line()
    if header is None or header.split() != ["mesh2d", "1"]:
        fail(lineno if header is not None else 1,
             f"expected header 'mesh2d 1', got {header!r}")

    def section(name, width, kind):
        lineno, text = next_line()
        parts = text.split() if text else []
        if len(parts) != 2 or parts[0] != name:
            fail(lineno, f"expected section header '{name} <count>', got {text!r}")
        try:
            count = int(parts[1])
        except ValueError:
            fail(lineno, f"bad count in section header {text!r}")
        if count < 0:
            fail(lineno, f"negative count in section {name}")
        rows = np.empty((count, width), dtype=kind)
        for k in range(count):
            lineno, text = next_line()
            if text is None:
                fail(lineno, f"unexpected end of file inside section {name}")
            parts = text.split()
            if len(parts) != width + 1:
                fail(lineno, f"expected {width + 1} fields, got {len(parts)}")
            try:
                rid = int(parts[0])
                vals = [kind(p) for p in parts[1:]]
            except ValueError as exc:
                fail(lineno, f"bad field: {exc}")
            if rid != k:
                fail(lineno, f"ids must be contiguous from 0; expected {k}, got {rid}")
            rows[k] = vals
        return rows

    nodes = section("nodes", 2, float)
    tris = section("triangles", 3, int)
    bnd = section("boundary_edges", 3, int)
    lineno, trailing = next_line()
    if trailing is not None:
        fail(lineno, f"trailing content after boundary_edges: {trailing!r}")
    return Mesh(nodes, tris, bnd[:, :2], bnd[:, 2])


def save_mesh(mesh, path):
    """Write a mesh in the native format (floats use shortest round-trip)."""
    out = ["mesh2d 1", f"nodes {mesh.num_vertices}"]
    for i, (x, y) in enumerate(mesh.vertices):
        out.append(f"{i} {float(x)!r} {float(y)!r}")
    out.append(f"triangles {mesh.num_triangles}")
    for i, (a, b, c) in enumerate(mesh.triangles):
        out.append(f"{i} {a} {b} {c}")
    out.append(f"boundary_edges {mesh.num_boundary_edges}")
    for i, ((a, b), m) in enumerate(zip(mesh.boundary_edges, mesh.boundary_markers)):
        out.append(f"{i} {a} {b} {m}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def unit_square_mesh(n):
    """Structured n-by-n triangulation of the unit square (2n^2 cells).

    Boundary markers: 1 bottom, 2 right, 3 top, 4 left.  This is the mesh
    family used by the refinement studies; h = 1/n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([vx.ravel(), vy.ravel()], axis=1)
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # vertex (i, j)
    a, b = vid[:-1, :-1].ravel(), vid[1:, :-1].ravel()
    c, d = vid[1:, 1:].ravel(), vid[:-1, 1:].ravel()
    # square (i, j) splits into (a, b, c) and (a, c, d)
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    r = np.arange(n)
    # counterclockwise: bottom, right, top, left
    bedges = np.concatenate([
        np.stack([vid[r, 0], vid[r + 1, 0]], axis=1),
        np.stack([vid[n, r], vid[n, r + 1]], axis=1),
        np.stack([vid[n - r, n], vid[n - r - 1, n]], axis=1),
        np.stack([vid[0, n - r], vid[0, n - r - 1]], axis=1),
    ])
    return Mesh(vertices, tris, bedges, np.repeat([1, 2, 3, 4], n))
