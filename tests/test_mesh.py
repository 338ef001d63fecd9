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

from conftest import ring_mesh

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


def _perturbed_square(n, seed):
    base = meshes.unit_square_mesh(n)
    v = base.vertices.copy()
    inside = np.ones(len(v), dtype=bool)
    inside[base.boundary_edges.ravel()] = False
    v[inside] += np.random.default_rng(seed).uniform(-0.1 / n, 0.1 / n,
                                                     (inside.sum(), 2))
    return meshes.Mesh(v, base.triangles, base.boundary_edges,
                       base.boundary_markers)


TABLE_MESHES = {
    "square1": lambda: meshes.unit_square_mesh(1),
    "square5": lambda: meshes.unit_square_mesh(5),
    "perturbed": lambda: _perturbed_square(6, 3),
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
    vertex_edges = {}
    for b, pair in enumerate(mesh.boundary_edges.tolist()):
        for v in pair:
            vertex_edges.setdefault(v, []).append(b)
    expect = np.full((mesh.num_vertices, 2), -1)
    for v, edges in vertex_edges.items():
        expect[v] = edges
    assert np.array_equal(mesh.vertex_boundary_edges, expect)


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
    assert np.array_equal(mesh.boundary_quad_points(), mesh.edge_qpoints[b])
    assert np.array_equal(mesh.boundary_quad_weights(), mesh.edge_qweights[b])


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
    assert set(comp.values()) == {0}


def test_boundary_components_ring():
    m = ring_mesh(1)
    comp = meshes.boundary_components(m)
    assert set(comp.values()) == {0, 1}
    # the outer loop contains edge 0 by construction, so it gets id 0
    outer = {b for b, c in comp.items() if c == 0}
    inner = {b for b, c in comp.items() if c == 1}
    assert len(outer) == 12 and len(inner) == 4


def test_component_count_refinement_invariant():
    for k in (1, 2, 3):
        comp = meshes.boundary_components(ring_mesh(k))
        assert max(comp.values()) == 1


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
    assert flux == pytest.approx([0.0], abs=1e-14)


def test_flux_divergent_field(mesh8):
    flux = meshes.flux_per_component(mesh8, lambda x, y: (x, y))
    assert flux == pytest.approx([2.0], rel=1e-13)


def test_flux_polynomial_exactness():
    # hand-computed line integrals for g = (x^2 y, x y^2) on the unit square:
    # net flux = integral of div g = 4 * int xy = 1; exact for the
    # degree-5 edge rule, so coarse and fine meshes agree to round-off
    g = lambda x, y: (x * x * y, x * y * y)
    f2 = meshes.flux_per_component(meshes.unit_square_mesh(2), g)
    f4 = meshes.flux_per_component(meshes.unit_square_mesh(4), g)
    assert f2[0] == pytest.approx(1.0, rel=1e-13)
    assert f4[0] == pytest.approx(1.0, rel=1e-13)


def test_flux_ring_components():
    m = ring_mesh(1)
    # g = (x, y)/2 has div = 1: outer flux = area-ish by Gauss on each loop
    flux = meshes.flux_per_component(m, lambda x, y: (0.5 * x, 0.5 * y))
    # outer loop: integral over [0,3]^2 boundary = 9; hole loop measured
    # with outward (into the hole) normal = -1
    assert flux[0] == pytest.approx(9.0, rel=1e-13)
    assert flux[1] == pytest.approx(-1.0, rel=1e-13)
