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

import numpy as np

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
    "normal_boundary_data",
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
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    boundary_edges : (nb, 2) int array
    boundary_markers : (nb,) int array

    Construction validates the conformity invariants: every boundary edge
    belongs to exactly one triangle, every interior edge to exactly two,
    all triangles have positive signed area and the boundary edges close
    into loops.  It also tabulates every edge's length, unit normal
    (pointing out of ``edge_cells[:, 0]``) and Gauss points, and each
    vertex's two boundary edges (``vertex_boundary_edges``, -1 off the
    boundary); the ``boundary_*`` arrays are the boundary rows of these.
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
        self._validate_indices()
        self._build_geometry()
        self._build_edges()
        self._validate_boundary()
        self._build_edge_geometry()
        bids = self.boundary_edge_ids
        self.boundary_normals = self.edge_normals[bids]
        self.boundary_lengths = self.edge_lengths[bids]
        # freeze all arrays; the mesh is shared read-only from here on
        for arr in (self.vertices, self.triangles, self.boundary_edges,
                    self.boundary_markers, self.edges, self.cell_edges,
                    self.edge_cells, self.areas, self.boundary_edge_ids,
                    self.vertex_boundary_edges, self.edge_lengths,
                    self.edge_normals, self.edge_qpoints, self.edge_qweights,
                    self.boundary_normals,
                    self.boundary_lengths):
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
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        bad = np.nonzero(signed <= 0.0)[0]
        if bad.size:
            t0 = int(bad[0])
            raise MeshTopologyError(
                f"triangle {t0} is not positively oriented "
                f"(signed area {signed[t0]:.3e})"
            )
        self.areas = signed

    def _build_edges(self):
        t = self.triangles
        nt = t.shape[0]
        # local edge i sits opposite local vertex i
        raw = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1)
        raw = raw.reshape(-1, 2)
        key = np.sort(raw, axis=1)
        self.edges, inverse = np.unique(key, axis=0, return_inverse=True)
        self.cell_edges = inverse.reshape(nt, 3)
        counts = np.bincount(inverse, minlength=self.edges.shape[0])
        if counts.max(initial=0) > 2:
            e = int(np.argmax(counts))
            raise MeshTopologyError(
                f"edge {self.edges[e].tolist()} is shared by {counts[e]} "
                "triangles; the triangulation is not conforming"
            )
        # slot 0 holds the lower of the edge's cells, slot 1 the other one
        # (-1 on the boundary); entry i of ``inverse`` belongs to cell i // 3
        order = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts
        self.edge_cells = np.full((self.edges.shape[0], 2), -1, dtype=np.int64)
        self.edge_cells[:, 0] = order[first] // 3
        two = counts == 2
        self.edge_cells[two, 1] = order[first[two] + 1] // 3

    def _validate_boundary(self):
        key = np.sort(self.boundary_edges, axis=1)
        uniq = np.unique(key, axis=0)
        if uniq.shape[0] != key.shape[0]:
            raise MeshTopologyError("duplicate boundary edge in file")
        one_cell = self.edge_cells[:, 1] < 0
        # map each declared boundary edge to a global edge id; the edges are
        # sorted, so their codes v0 * nv + v1 ascend
        nv = self.num_vertices
        codes = self.edges[:, 0] * nv + self.edges[:, 1]
        wanted = key[:, 0] * nv + key[:, 1]
        missing = np.nonzero(~np.isin(wanted, codes))[0]
        if missing.size:
            b = int(missing[0])
            raise MeshTopologyError(f"boundary edge {b} {key[b].tolist()} is "
                                    "not an edge of any triangle")
        ids = np.searchsorted(codes, wanted)
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
        # a stable sort by vertex keeps each vertex's two edges ascending
        order = np.argsort(key.ravel(), kind="stable")
        self.vertex_boundary_edges = np.full((self.num_vertices, 2), -1,
                                             dtype=np.int64)
        self.vertex_boundary_edges[key.ravel()[order[::2]]] = (
            order // 2).reshape(-1, 2)

    def _build_edge_geometry(self):
        pa = self.vertices[self.edges[:, 0]]
        pb = self.vertices[self.edges[:, 1]]
        tangent = pb - pa
        self.edge_lengths = np.hypot(tangent[:, 0], tangent[:, 1])
        if np.any(self.edge_lengths <= 0.0):
            raise MeshTopologyError("zero-length edge")
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
        normal /= self.edge_lengths[:, None]
        # orient from the first cell's centroid towards the second cell's,
        # or towards the midpoint on the boundary
        centroids = self.vertices[self.triangles].mean(axis=1)
        c1 = self.edge_cells[:, 1]
        ref = np.where((c1 >= 0)[:, None], centroids[np.maximum(c1, 0)],
                       0.5 * (pa + pb))
        flip = np.einsum("ed,ed->e", normal,
                         ref - centroids[self.edge_cells[:, 0]]) < 0.0
        normal[flip] *= -1.0
        self.edge_normals = normal
        self.edge_qpoints = (pa[:, None, :] * (1.0 - EDGE_QP)[None, :, None]
                             + pb[:, None, :] * EDGE_QP[None, :, None])
        self.edge_qweights = self.edge_lengths[:, None] * EDGE_QW[None, :]

    # -- boundary quadrature -------------------------------------------------

    def boundary_quad_points(self):
        """Physical quadrature points per boundary edge, shape (nb, 3, 2)."""
        return self.edge_qpoints[self.boundary_edge_ids]

    def boundary_quad_weights(self):
        """Quadrature weights (arc length measure), shape (nb, 3)."""
        return self.edge_qweights[self.boundary_edge_ids]


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
    pts = mesh.boundary_quad_points()
    gv = evaluate(g, pts[..., 0], pts[..., 1])
    n = mesh.boundary_normals
    return gv, gv[..., 0] * n[:, None, 0] + gv[..., 1] * n[:, None, 1]


def boundary_components(mesh):
    """Group boundary edges into closed loops.

    Returns a dict mapping boundary-edge id to component id.  Component ids
    are contiguous, starting from 0, ordered by the smallest edge id they
    contain.
    """
    ends = mesh.edges[mesh.boundary_edge_ids]
    comp = {}
    current = 0
    for start in range(mesh.num_boundary_edges):
        if start in comp:
            continue
        stack = [start]
        comp[start] = current
        while stack:
            b = stack.pop()
            for nb_edge in mesh.vertex_boundary_edges[ends[b]].ravel().tolist():
                if nb_edge not in comp:
                    comp[nb_edge] = current
                    stack.append(nb_edge)
        current += 1
    return comp


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
    gv, gn = normal_boundary_data(mesh, g)
    if eps_n is None:
        gscale = float(np.hypot(gv[..., 0], gv[..., 1]).max(initial=0.0))
        eps_n = 1e-12 * max(1.0, gscale)
    eps_n = float(eps_n)
    if eps_n < 0.0:
        raise ValueError("eps_n must be nonnegative")
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
    # per boundary vertex (ascending): is each of its two edges inflow?
    bverts = np.nonzero(mesh.vertex_boundary_edges[:, 0] >= 0)[0]
    vedges = mesh.vertex_boundary_edges[bverts]
    inflow = minus[vedges]
    # junction vertices: the two incident boundary edges disagree
    junctions = bverts[inflow[:, 0] != inflow[:, 1]]
    # degenerate points: vertices of closure(inflow) where |g.n_-| <= eps_n,
    # measured with the normal of an incident inflow edge
    degenerate = bverts[:0]
    closure = inflow.any(axis=1)
    if closure.any():
        pts = mesh.vertices[bverts[closure]]
        gvert = evaluate(g, pts[:, 0], pts[:, 1])
        n = mesh.boundary_normals[vedges[closure]]  # (m, 2 edges, 2)
        gnv = gvert[:, None, 0] * n[..., 0] + gvert[:, None, 1] * n[..., 1]
        hit = (np.abs(gnv) <= eps_n) & inflow[closure]
        degenerate = bverts[closure][hit.any(axis=1)]
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


def flux_per_component(mesh, g):
    """Net flux of g through each boundary component (edge quadrature)."""
    comp = boundary_components(mesh)
    k = max(comp.values()) + 1 if comp else 0
    per_edge = (normal_boundary_data(mesh, g)[1]
                * mesh.boundary_quad_weights()).sum(axis=1)
    out = [0.0] * k
    for b, c in comp.items():
        out[c] += float(per_edge[b])
    return out


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
