import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradetwo import meshes
from gradetwo.errors import (
    BoundaryResolutionError,
    MeshFormatError,
    MeshTopologyError,
)

from conftest import perturbed_square, ring_mesh

TWO_TRI = """mesh2d 1
nodes 4
0 0.0 0.0
1 1.0 0.0
2 1.0 1.0
3 0.0 1.0
triangles 2
0 0 1 2
1 0 2 3
boundary_edges 4
0 0 1 1
1 1 2 2
2 2 3 3
3 3 0 4
"""


def test_load_two_triangle_square(tmp_path):
    path = tmp_path / "sq.m2d"
    path.write_text(TWO_TRI)
    m = meshes.load_mesh(str(path))
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_boundary_edges == 4
    assert m.num_edges == 5


def test_save_load_roundtrip(tmp_path):
    m = meshes.unit_square_mesh(5)
    path = tmp_path / "m.m2d"
    meshes.save_mesh(m, str(path))
    m2 = meshes.load_mesh(str(path))
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.boundary_edges, m2.boundary_edges)
    assert np.array_equal(m.boundary_markers, m2.boundary_markers)


def test_vertex_out_of_range(tmp_path):
    bad = TWO_TRI.replace("0 0 1 2", "0 0 1 9")
    path = tmp_path / "bad.m2d"
    path.write_text(bad)
    with pytest.raises(MeshTopologyError, match="triangle 0"):
        meshes.load_mesh(str(path))


def test_parse_error_reports_line(tmp_path):
    bad = TWO_TRI.replace("1 1.0 0.0", "1 1.0 oops")
    path = tmp_path / "bad.m2d"
    path.write_text(bad)
    with pytest.raises(MeshFormatError, match="line 4"):
        meshes.load_mesh(str(path))


def test_wrong_header(tmp_path):
    path = tmp_path / "bad.m2d"
    path.write_text("mesh3d 1\n")
    with pytest.raises(MeshFormatError, match="mesh2d"):
        meshes.load_mesh(str(path))


def test_noncontiguous_ids(tmp_path):
    bad = TWO_TRI.replace("1 1.0 0.0", "7 1.0 0.0")
    path = tmp_path / "bad.m2d"
    path.write_text(bad)
    with pytest.raises(MeshFormatError, match="contiguous"):
        meshes.load_mesh(str(path))


def test_open_boundary_loop(tmp_path):
    # drop one boundary edge: the loop no longer closes
    bad = TWO_TRI.replace("boundary_edges 4", "boundary_edges 3")
    bad = bad.replace("3 3 0 4\n", "")
    path = tmp_path / "bad.m2d"
    path.write_text(bad)
    with pytest.raises(MeshTopologyError, match="loops do not close"):
        meshes.load_mesh(str(path))


def test_negative_orientation_rejected(tmp_path):
    bad = TWO_TRI.replace("0 0 1 2", "0 0 2 1")
    path = tmp_path / "bad.m2d"
    path.write_text(bad)
    with pytest.raises(MeshTopologyError, match="positively oriented"):
        meshes.load_mesh(str(path))


def test_interior_edge_declared_boundary(tmp_path):
    bad = TWO_TRI.replace("0 0 1 1", "0 0 2 1")
    path = tmp_path / "bad.m2d"
    path.write_text(bad)
    with pytest.raises(MeshTopologyError):
        meshes.load_mesh(str(path))


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_TRIS = [(0, 1, 2), (0, 2, 3)]
SQUARE_LOOP = [(0, 1), (1, 2), (2, 3), (3, 0)]
# two triangles that meet only at vertex 0
BOW_TIE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
BOW_TIE_TRIS = [(0, 1, 2), (0, 3, 4)]
BOW_TIE_LOOPS = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


@pytest.mark.parametrize("vertices, tris, bedges, message", [
    (SQUARE, SQUARE_TRIS, SQUARE_LOOP + [(1, 0)],
     "duplicate boundary edge in file"),
    (SQUARE, SQUARE_TRIS, [(1, 3)] + SQUARE_LOOP[1:],
     r"boundary edge 0 \[1, 3\] is not an edge of any triangle"),
    (SQUARE, SQUARE_TRIS, [(0, 2)] + SQUARE_LOOP[1:],
     r"boundary edge 0 \[0, 2\] is interior \(shared by two triangles\)"),
    # a third triangle on edge 0-2, overlapping (0, 2, 3)
    (SQUARE + [(-1.0, 2.0)], SQUARE_TRIS + [(0, 2, 4)], SQUARE_LOOP,
     r"edge \[0, 2\] is shared by 3 triangles"),
    (SQUARE, SQUARE_TRIS, SQUARE_LOOP[:3],
     r"edge \[0, 3\] lies on the boundary but is not declared in "
     "boundary_edges; loops do not close"),
    (BOW_TIE, BOW_TIE_TRIS, BOW_TIE_LOOPS,
     r"boundary vertex 0 touches 4 boundary edges \(loops do not close\)"),
], ids=["duplicate", "not_an_edge", "interior", "three_cells", "undeclared",
        "bow_tie"])
def test_topology_errors_named(vertices, tris, bedges, message):
    with pytest.raises(MeshTopologyError, match=message):
        meshes.Mesh(np.array(vertices), np.array(tris), np.array(bedges),
                    np.ones(len(bedges), dtype=int))


def _square2(vertex4=None, bedges=lambda b: b, markers=lambda m: m):
    base = meshes.unit_square_mesh(2)
    v = base.vertices.copy()
    if vertex4 is not None:
        v[4] = vertex4
    return meshes.Mesh(v, base.triangles, bedges(base.boundary_edges),
                       markers(base.boundary_markers))


@pytest.mark.parametrize("kwargs, message", [
    (dict(vertex4=(np.nan, 0.5)), r"vertex 4 has non-finite coordinates"),
    (dict(vertex4=(0.5, np.inf)), r"vertex 4 has non-finite coordinates"),
    (dict(markers=lambda m: m[:3]),
     r"boundary_markers has shape \(3,\), not \(8,\): one per boundary"),
    (dict(markers=lambda m: m[:, None]),
     r"boundary_markers has shape \(8, 1\), not \(8,\)"),
    (dict(bedges=lambda b: b[:, :1]), r"boundary_edges must be an \(nb, 2\)"),
], ids=["nan_vertex", "inf_vertex", "few_markers", "marker_column",
        "one_column_edges"])
def test_mesh_arrays_checked(kwargs, message):
    """Non-finite coordinates, a marker count other than the boundary edge
    count and a boundary edge array of the wrong shape are named; unchecked,
    they built a mesh with NaN geometry, built one that save_mesh wrote as
    a file load_mesh rejects, or failed on an edge lookup."""
    with pytest.raises(MeshTopologyError, match=message):
        _square2(**kwargs)


TABLE_MESHES = {
    "square1": lambda: meshes.unit_square_mesh(1),
    "square5": lambda: meshes.unit_square_mesh(5),
    "perturbed": lambda: perturbed_square(6, 3),
    "ring": lambda: ring_mesh(2),
}


@pytest.mark.parametrize("name", TABLE_MESHES)
def test_edge_tables_match_loop_reference(name):
    """The vectorised connectivity tables equal the per-item loops."""
    mesh = TABLE_MESHES[name]()
    edge_cells = np.full((mesh.num_edges, 2), -1)
    for cell, edges in enumerate(mesh.cell_edges):
        for e in edges:
            edge_cells[e, 0 if edge_cells[e, 0] < 0 else 1] = cell
    assert np.array_equal(mesh.edge_cells, edge_cells)
    lookup = {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}
    ids = [lookup[tuple(sorted(e))] for e in mesh.boundary_edges.tolist()]
    assert mesh.boundary_edge_ids.tolist() == ids


@pytest.mark.parametrize("name", TABLE_MESHES)
def test_edge_geometry_shared_by_boundary(name):
    """Unit normals point out of the first cell of every edge, Gauss points
    lie on the edge, and the boundary arrays are rows of the edge arrays."""
    mesh = TABLE_MESHES[name]()
    n = mesh.edge_normals
    assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, rtol=0, atol=1e-14)
    mid = mesh.vertices[mesh.edges].mean(axis=1)
    first = mesh.vertices[mesh.triangles[mesh.edge_cells[:, 0]]].mean(axis=1)
    assert (np.einsum("ed,ed->e", n, mid - first) > 0.0).all()
    assert np.allclose(mesh.edge_qpoints.mean(axis=1), mid, atol=1e-14)
    assert np.allclose(mesh.edge_qweights.sum(axis=1), mesh.edge_lengths,
                       rtol=1e-14, atol=0)
    b = mesh.boundary_edge_ids
    assert np.array_equal(mesh.boundary_normals, n[b])
    assert np.array_equal(mesh.boundary_lengths, mesh.edge_lengths[b])
    assert np.array_equal(mesh.boundary_qpoints, mesh.edge_qpoints[b])
    assert np.array_equal(mesh.boundary_qweights, mesh.edge_qweights[b])


@pytest.mark.parametrize("name", TABLE_MESHES)
def test_edge_geometry_matches_pointwise_forms(name):
    """Edge normals and Gauss points equal a per-edge evaluation of their
    definitions, bit for bit: the normal turns the tangent clockwise and
    points from the first cell's centroid towards the second's (towards
    the midpoint on the boundary)."""
    mesh = TABLE_MESHES[name]()
    v, t = mesh.vertices, mesh.triangles

    def centroid(c):
        return (v[t[c, 0]] + v[t[c, 1]] + v[t[c, 2]]) / 3.0

    for e, (a, b) in enumerate(mesh.edges):
        pa, pb = v[a], v[b]
        tx, ty = pb - pa
        length = np.hypot(tx, ty)
        normal = np.array([ty / length, -tx / length])
        c0, c1 = mesh.edge_cells[e]
        towards = centroid(c1) if c1 >= 0 else 0.5 * (pa + pb)
        d = towards - centroid(c0)
        if normal[0] * d[0] + normal[1] * d[1] < 0.0:
            normal = -normal
        assert np.array_equal(mesh.edge_normals[e], normal), e
        points = [pa * (1.0 - s) + pb * s for s in meshes.EDGE_QP]
        assert np.array_equal(mesh.edge_qpoints[e], points), e


def test_unit_square_mesh_matches_loop_reference():
    n = 3
    vid = lambda i, j: i * (n + 1) + j  # noqa: E731
    tris = []
    for i in range(n):
        for j in range(n):
            tris += [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)),
                     (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))]
    edges = ([(vid(i, 0), vid(i + 1, 0)) for i in range(n)]
             + [(vid(n, j), vid(n, j + 1)) for j in range(n)]
             + [(vid(n - i, n), vid(n - i - 1, n)) for i in range(n)]
             + [(vid(0, n - j), vid(0, n - j - 1)) for j in range(n)])
    mesh = meshes.unit_square_mesh(n)
    assert mesh.triangles.tolist() == [list(t) for t in tris]
    assert mesh.boundary_edges.tolist() == [list(e) for e in edges]
    assert mesh.boundary_markers.tolist() == [1] * n + [2] * n + [3] * n + [4] * n


def test_boundary_components_square(mesh8):
    comp = meshes.boundary_components(mesh8)
    assert comp.shape == (mesh8.num_boundary_edges,)
    assert set(comp.tolist()) == {0}


def test_boundary_components_ring():
    m = ring_mesh(1)
    comp = meshes.boundary_components(m)
    assert set(comp.tolist()) == {0, 1}
    # the outer loop contains edge 0 by construction, so it gets id 0
    assert np.count_nonzero(comp == 0) == 12
    assert np.count_nonzero(comp == 1) == 4


def test_component_count_refinement_invariant():
    for k in (1, 2, 3):
        comp = meshes.boundary_components(ring_mesh(k))
        assert comp.max() == 1


def edges_at_vertex(mesh):
    """Reference: boundary-edge ids touching each boundary vertex."""
    at = {}
    for b, pair in enumerate(mesh.boundary_edges.tolist()):
        for v in pair:
            at.setdefault(v, []).append(b)
    return at


def loop_components(mesh):
    """Reference: walk each boundary loop edge to edge, numbering the loops
    in the order of their smallest edge id."""
    at = edges_at_vertex(mesh)
    comp = [-1] * mesh.num_boundary_edges
    current = 0
    for start in range(mesh.num_boundary_edges):
        if comp[start] >= 0:
            continue
        comp[start] = current
        stack = [start]
        while stack:
            b = stack.pop()
            for v in mesh.boundary_edges[b].tolist():
                for other in at[v]:
                    if comp[other] < 0:
                        comp[other] = current
                        stack.append(other)
        current += 1
    return comp


def test_loop_numbering_follows_first_edge():
    base = ring_mesh(2)
    # put a hole edge (marker 2) first, the rest in a fixed shuffle
    perm = np.random.default_rng(5).permutation(base.num_boundary_edges)
    hole = int(np.flatnonzero(base.boundary_markers[perm] == 2)[0])
    perm[[0, hole]] = perm[[hole, 0]]
    m = meshes.Mesh(base.vertices, base.triangles, base.boundary_edges[perm],
                    base.boundary_markers[perm])
    comp = meshes.boundary_components(m)
    ref = loop_components(m)
    assert comp.tolist() == ref
    assert set(m.boundary_markers[comp == 0].tolist()) == {2}
    g = lambda x, y: (0.5 * x, 0.5 * y)
    flux = meshes.flux_per_component(m, g).net
    per_edge = (meshes.normal_boundary_data(m, g)[1]
                * m.boundary_qweights).sum(axis=1)
    expect = [0.0, 0.0]
    for b, c in enumerate(ref):
        expect[c] += per_edge[b]
    assert flux == pytest.approx(expect, rel=1e-14)
    # the hole, measured with the normal into it, first; then the outer loop
    assert flux == pytest.approx([-1.0, 9.0], rel=1e-13)


# -- classification -----------------------------------------------------------

def test_classify_uniform_flow(mesh8):
    part = meshes.classify_boundary(mesh8, lambda x, y: (1.0, 0.0), 1.0)
    left = {b for b in range(mesh8.num_boundary_edges)
            if mesh8.boundary_markers[b] == 4}
    assert set(part.gamma_minus) == left
    assert len(part.gamma_minus) + len(part.gamma_zero_plus) == \
        mesh8.num_boundary_edges
    # junctions at the two left corners
    corners = {0, 8}  # vid(0,0) and vid(0,8) for n=8
    assert set(part.junctions) == corners
    assert part.beta == pytest.approx(1.0)
    assert part.degenerate_points == ()


def test_classify_sign_flip(mesh8):
    plus = meshes.classify_boundary(mesh8, lambda x, y: (1.0, 0.0), 1.0)
    minus = meshes.classify_boundary(mesh8, lambda x, y: (1.0, 0.0), -1.0)
    right = {b for b in range(mesh8.num_boundary_edges)
             if mesh8.boundary_markers[b] == 2}
    assert set(minus.gamma_minus) == right
    # edges with |g.n| <= eps (top/bottom) stay in the complement either way
    assert set(plus.gamma_minus).isdisjoint(minus.gamma_minus)


def test_classify_alpha_zero(mesh8):
    part = meshes.classify_boundary(mesh8, lambda x, y: (1.0, 0.0), 0.0)
    assert part.gamma_minus == ()
    assert len(part.gamma_zero_plus) == mesh8.num_boundary_edges
    assert part.beta is None


def test_classify_unresolved_sign_change():
    # g.n flips sign strictly inside the single left edge of a 1-cell mesh
    m = meshes.unit_square_mesh(1)
    with pytest.raises(BoundaryResolutionError):
        meshes.classify_boundary(m, lambda x, y: (y - 0.5, 0.0), 1.0)


def test_classify_degenerate_interior_vertex(mesh16):
    # g.n = -(y-1/2)^2 on the left edge: zero at the mesh vertex y = 1/2,
    # strictly negative at all quadrature points
    part = meshes.classify_boundary(
        mesh16, lambda x, y: ((y - 0.5) ** 2, 0.0), 1.0)
    left = {b for b in range(mesh16.num_boundary_edges)
            if mesh16.boundary_markers[b] == 4}
    assert set(part.gamma_minus) == left
    mid = 8  # vid(0, 8) = vertex (0, 0.5) for n=16
    assert mid in part.degenerate_points
    assert mid in part.interior_degeneracies()
    assert part.beta is None or part.beta > 0  # beta may degrade, never negative


@pytest.mark.parametrize("name", ["ring", "perturbed"])
def test_classify_vertex_sets_match_loop_reference(name):
    """Junctions and degenerate points equal a per-vertex loop over the
    boundary edges.  g.n = -sin^2(pi y) on the inflow sides vanishes at
    their end points, and inside the ring's outer left side."""
    mesh = TABLE_MESHES[name]()
    g = lambda x, y: (np.sin(np.pi * y) ** 2, 0.0)
    part = meshes.classify_boundary(mesh, g, 1.0)
    inflow = set(part.gamma_minus)
    normals = mesh.boundary_normals
    junctions, degenerate = [], []
    for v, edges in sorted(edges_at_vertex(mesh).items()):
        flags = [b in inflow for b in edges]
        if flags[0] != flags[1]:
            junctions.append(v)
        x, y = mesh.vertices[v]
        gv = g(x, y)
        if any(abs(gv[0] * normals[b, 0] + gv[1] * normals[b, 1])
               <= part.eps_n for b in edges if b in inflow):
            degenerate.append(v)
    assert part.junctions == tuple(junctions)
    assert part.degenerate_points == tuple(degenerate)
    assert junctions and degenerate
    if name == "ring":
        # the outer left side at y = 1 and y = 2
        assert part.interior_degeneracies() == (2, 4)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.sampled_from([-1.0, -0.3, 0.0, 0.7, 1.0]))
@settings(max_examples=40, deadline=None)
def test_partition_complete_for_constant_data(gx, gy, alpha):
    m = meshes.unit_square_mesh(4)
    part = meshes.classify_boundary(m, lambda x, y: (gx, gy), alpha)
    assert len(part.gamma_minus) + len(part.gamma_zero_plus) == \
        m.num_boundary_edges
    assert set(part.gamma_minus).isdisjoint(part.gamma_zero_plus)


# -- fluxes ---------------------------------------------------------------------

def test_flux_uniform_flow(mesh8):
    flux = meshes.flux_per_component(mesh8, lambda x, y: (1.0, 0.0))
    assert flux.net == pytest.approx([0.0], abs=1e-14)
    # in at x = 0 and out at x = 1: |g.n| integrates to 2
    assert flux.absolute == pytest.approx(2.0, rel=1e-13)


def test_flux_divergent_field(mesh8):
    flux = meshes.flux_per_component(mesh8, lambda x, y: (x, y)).net
    assert flux == pytest.approx([2.0], rel=1e-13)


def test_flux_polynomial_exactness():
    # hand-computed line integrals for g = (x^2 y, x y^2) on the unit square:
    # net flux = integral of div g = 4 * int xy = 1; exact for the
    # degree-5 edge rule, so coarse and fine meshes agree to round-off
    g = lambda x, y: (x * x * y, x * y * y)
    f2 = meshes.flux_per_component(meshes.unit_square_mesh(2), g).net
    f4 = meshes.flux_per_component(meshes.unit_square_mesh(4), g).net
    assert f2[0] == pytest.approx(1.0, rel=1e-13)
    assert f4[0] == pytest.approx(1.0, rel=1e-13)


def test_flux_ring_components():
    m = ring_mesh(1)
    # g = (x, y)/2 has div = 1: outer flux = area-ish by Gauss on each loop
    flux = meshes.flux_per_component(m, lambda x, y: (0.5 * x, 0.5 * y)).net
    # outer loop: integral over [0,3]^2 boundary = 9; hole loop measured
    # with outward (into the hole) normal = -1
    assert flux[0] == pytest.approx(9.0, rel=1e-13)
    assert flux[1] == pytest.approx(-1.0, rel=1e-13)
