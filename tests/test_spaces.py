import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gradetwo import meshes, spaces, stokes
from conftest import l2_orders, perturbed_square, ring_mesh


@pytest.fixture(scope="module")
def two_tri():
    return spaces.build_spaces(meshes.unit_square_mesh(1))


def test_dof_counts_two_triangle_square(two_tri):
    # 4 vertices + 5 edges = 9 scalar nodes per component
    assert two_tri.velocity.dof_count == 18
    assert two_tri.pressure.dof_count == 4
    assert two_tri.vorticity.dof_count == 6
    assert two_tri.pressure.zero_mean


def test_quadrature_exact_through_degree5(spaces8):
    # reference integrals: int over unit square of x^a y^b = 1/((a+1)(b+1))
    ctx = spaces8.context
    pts = ctx.cell_qpoints
    for a, b in [(0, 0), (1, 0), (2, 1), (3, 2), (5, 0), (2, 3), (4, 1)]:
        val = (ctx.cell_qweights * pts[:, :, 0] ** a * pts[:, :, 1] ** b).sum()
        assert val == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)


def test_context_arrays_read_only(spaces8):
    ctx = spaces8.context
    with pytest.raises(ValueError, match="read-only"):
        ctx.cell_qweights[0, 0] = 1.0


def test_edge_quadrature_exact_through_degree5(mesh8):
    # sum of int_e y^5 over the left edge equals 1/6
    pts = mesh8.boundary_quad_points()
    w = mesh8.boundary_quad_weights()
    left = [b for b in range(mesh8.num_boundary_edges)
            if mesh8.boundary_markers[b] == 4]
    total = sum((w[b] * pts[b, :, 1] ** 5).sum() for b in left)
    assert total == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_interpolation_reproduces_polynomials(spaces8):
    # quadratics are exact in the velocity space
    u = spaces.interpolate(lambda x, y: (x * x - y, 2 * x * y), spaces8.velocity)
    assert spaces.error_l2(u, lambda x, y: (x * x - y, 2 * x * y)) < 1e-13
    # linears exact in pressure (up to the mean shift) and vorticity
    z = spaces.interpolate(lambda x, y: 1 + 2 * x - 3 * y, spaces8.vorticity)
    assert spaces.error_l2(z, lambda x, y: 1 + 2 * x - 3 * y) < 1e-13


def test_pressure_constant_is_mean_shifted(spaces8):
    p = spaces.interpolate(lambda x, y: 1.0, spaces8.pressure)
    assert np.abs(p.coefficients).max() < 1e-14
    assert abs(spaces.pressure_mean(p)) < 1e-14


def test_pressure_interpolant_zero_mean(spaces8):
    p = spaces.interpolate(lambda x, y: x * 3 + y, spaces8.pressure)
    assert abs(spaces.pressure_mean(p)) < 1e-13


@pytest.mark.parametrize("build", [
    lambda: meshes.unit_square_mesh(8),
    lambda: perturbed_square(6, 3),
    lambda: ring_mesh(2)], ids=["square", "perturbed", "ring"])
def test_p1_mass_maps_one_to_integrals(build):
    """m = M_p 1 bit for bit, m is the integral of each P1 basis function
    (a third of the area of each cell around the vertex), and a vertex no
    cell references has an empty row and a zero integral."""
    mesh = build()
    ctx = spaces.build_spaces(mesh).context
    M, m = ctx.p1_mass, ctx.p1_integrals
    assert np.array_equal(M @ np.ones(mesh.num_vertices), m)
    lumped = np.bincount(mesh.triangles.ravel(),
                         np.repeat(mesh.areas / 3.0, 3),
                         minlength=mesh.num_vertices)
    assert np.abs(m - lumped).max() <= 1e-15 * m.max()
    orphans = np.bincount(mesh.triangles.ravel(),
                          minlength=mesh.num_vertices) == 0
    assert np.all(np.diff(M.indptr)[orphans] == 0)
    assert np.all(m[orphans] == 0.0)


def test_p1_mass_read_only(spaces8):
    M = spaces8.context.p1_mass
    for arr in (M.data, M.indices, M.indptr, spaces8.context.p1_integrals):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_schur_lu_maps_integrals_to_one(spaces8):
    zero = lambda x, y: (0.0, 0.0)  # noqa: E731
    prep = stokes.prepare_generalized_stokes(spaces8, 1.0, zero, zero)
    ones = prep.schur.solve(spaces8.context.p1_integrals)
    assert np.abs(ones - 1.0).max() <= 1e-14


@pytest.mark.parametrize("c", [1.0, -2.5, 1e3, np.pi])
def test_pressure_mean_of_constant(spaces8, c):
    p = spaces8.pressure.new_field(np.full(spaces8.pressure.dof_count, c))
    assert spaces.pressure_mean(p) == pytest.approx(c, rel=1e-15)


def test_interpolation_order_at_least_two():
    errs = []
    for n in (4, 8, 16, 32):
        sp_ = spaces.build_spaces(meshes.unit_square_mesh(n))
        z = spaces.interpolate(lambda x, y: math.sin(math.pi * x),
                               sp_.vorticity)
        errs.append(spaces.error_l2(z, lambda x, y: math.sin(math.pi * x)))
    for order in l2_orders(errs):
        assert order >= 2.0 - 0.1


def test_norms_constant(spaces8):
    z = spaces.interpolate(lambda x, y: -3.0, spaces8.vorticity)
    n = spaces.norms(z)
    assert n.l2 == pytest.approx(3.0, rel=1e-13)
    assert n.h1_semi == pytest.approx(0.0, abs=1e-12)
    assert n.linf_dof == pytest.approx(3.0)


def test_norms_linear_field(spaces8):
    z = spaces.interpolate(lambda x, y: x, spaces8.vorticity)
    n = spaces.norms(z)
    assert n.h1_semi == pytest.approx(1.0, rel=1e-13)


def test_norms_sine_product():
    # ||sin(pi x) sin(pi y)||_L2 = 1/2 on the unit square
    sp_ = spaces.build_spaces(meshes.unit_square_mesh(48))
    f = lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y)
    z = spaces.interpolate(f, sp_.vorticity)
    assert spaces.norms(z).l2 == pytest.approx(0.5, rel=2e-3)


def test_velocity_norms(spaces8):
    u = spaces.interpolate(lambda x, y: (y, 0.0), spaces8.velocity)
    n = spaces.norms(u)
    assert n.h1_semi == pytest.approx(1.0, rel=1e-13)
    assert n.l2 == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-13)


def test_interpolate_rejects_nonfinite(spaces8):
    blowup = lambda x, y: (math.inf if x == 0.0 else 1.0, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        spaces.interpolate(blowup, spaces8.velocity)


def test_curl_exact_for_quadratics(spaces8):
    u = spaces.interpolate(lambda x, y: (y * y, x * x), spaces8.velocity)
    cu = spaces.curl_of_velocity(u, spaces8.vorticity)
    assert spaces.error_l2(cu, lambda x, y: 2 * x - 2 * y) < 1e-13



def edge_point_barycentrics(mesh, cells, edge_ids):
    """Barycentrics of the Gauss points of ``edge_ids`` in ``cells``,
    (len, nqe, 3), solved from each cell's vertex coordinates."""
    corners = mesh.vertices[mesh.triangles[cells]]  # (m, 3, 2)
    A = np.concatenate([np.ones((len(cells), 1, 3)),
                        corners.transpose(0, 2, 1)], axis=1)
    pts = mesh.edge_qpoints[edge_ids]               # (m, nqe, 2)
    b = np.concatenate([np.ones(pts.shape[:2] + (1,)), pts], axis=2)
    return np.linalg.solve(A[:, None], b[..., None])[..., 0]


@pytest.mark.parametrize("name", ["square8", "perturbed16", "ring3"])
def test_edge_traces_match_cell_evaluation(name):
    mesh = {"square8": lambda: meshes.unit_square_mesh(8),
            "perturbed16": lambda: perturbed_square(16, 3),
            "ring3": lambda: ring_mesh(3)}[name]()
    sp_ = spaces.build_spaces(mesh)
    rng = np.random.default_rng(11)
    u = sp_.velocity.new_field(rng.standard_normal(sp_.velocity.dof_count))
    z = sp_.vorticity.new_field(rng.standard_normal(sp_.vorticity.dof_count))
    ne = mesh.num_edges
    all_edges = np.arange(ne)

    # the velocity in side 0's cell: P2 nodes are the vertices, then the
    # midpoints of the edges opposite them
    c0 = mesh.edge_cells[:, 0]
    nodes = np.concatenate([mesh.triangles,
                            mesh.num_vertices + mesh.cell_edges], axis=1)[c0]
    phi = spaces.p2_values(edge_point_barycentrics(mesh, c0, all_edges))
    coef = u.coefficients.reshape(2, -1)[:, nodes]   # (2, ne, 6)
    expect = np.einsum("cea,aeq->eqc", coef, phi)
    got = spaces.velocity_edge_values(u)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    for side in (0, 1):
        cells = mesh.edge_cells[:, side]
        has = cells >= 0
        expect = np.zeros(mesh.edge_qpoints.shape[:2])
        expect[has] = np.einsum(
            "ea,eqa->eq", z.coefficients.reshape(-1, 3)[cells[has]],
            edge_point_barycentrics(mesh, cells[has], all_edges[has]))
        got = spaces.vorticity_edge_values(z, side)
        assert np.all(got[~has] == 0.0)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

def test_weak_divergence_split(spaces8):
    solenoidal = spaces.interpolate(lambda x, y: (y, x), spaces8.velocity)
    assert spaces.velocity_weak_divergence_l2(solenoidal) < 1e-12
    expanding = spaces.interpolate(lambda x, y: (x, y), spaces8.velocity)
    assert spaces.velocity_weak_divergence_l2(expanding) == pytest.approx(
        2.0, rel=1e-12)


def lu_weak_divergence(u):
    """sqrt(r^T M^-1 r) with a sparse LU of the assembled P1 mass M over
    the vertices that some cell references (the ring mesh has others)."""
    ctx = u.space.context
    used, tri = np.unique(ctx.mesh.triangles, return_inverse=True)
    g = spaces.velocity_cell_gradients(u)
    r_cell = np.einsum("tq,kq,tq->tk", ctx.cell_qweights, ctx.p1_at_q,
                       g[:, :, 0, 0] + g[:, :, 1, 1])
    r = np.zeros(used.size)
    np.add.at(r, tri.ravel(), r_cell.ravel())
    M = sp.coo_matrix((ctx.p1_cell_mass.ravel(),
                       (np.repeat(tri, 3, axis=1).ravel(),
                        np.tile(tri, (1, 3)).ravel()))).tocsc()
    return math.sqrt(r @ spla.splu(M).solve(r))


@pytest.mark.parametrize("build", [
    lambda: meshes.unit_square_mesh(16),
    lambda: perturbed_square(16, 3),
    lambda: ring_mesh(3)], ids=["square", "perturbed", "ring"])
def test_weak_divergence_matches_mass_lu(build):
    sp_ = spaces.build_spaces(build())
    rng = np.random.default_rng(11)
    fields = [
        spaces.interpolate(lambda x, y: (np.sin(x) * y, x * x - np.cos(y)),
                           sp_.velocity),
        sp_.velocity.new_field(rng.standard_normal(sp_.velocity.dof_count))]
    for u in fields:
        ref = lu_weak_divergence(u)
        assert ref > 0.1
        assert spaces.velocity_weak_divergence_l2(u) == pytest.approx(
            ref, rel=1e-13)


@pytest.mark.parametrize("build", [
    lambda: meshes.unit_square_mesh(16),
    lambda: perturbed_square(16, 3),
    lambda: ring_mesh(3)], ids=["square", "perturbed", "ring"])
def test_h1_semi_from_corners_matches_quadrature(build):
    # |u|_H1 from the corner gradients against the 7-point quadrature of
    # norms(); the weak divergence is checked against its quadrature load
    # by test_weak_divergence_matches_mass_lu
    sp_ = spaces.build_spaces(build())
    rng = np.random.default_rng(12)
    fields = [
        spaces.interpolate(lambda x, y: (np.sin(x) * y, x * x - np.cos(y)),
                           sp_.velocity),
        sp_.velocity.new_field(rng.standard_normal(sp_.velocity.dof_count))]
    for u in fields:
        assert spaces.velocity_h1_semi(u) == pytest.approx(
            spaces.norms(u).h1_semi, rel=1e-13)


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_norms_scale_linearly(c):
    sp_ = spaces.build_spaces(meshes.unit_square_mesh(3))
    z = spaces.interpolate(lambda x, y: x - 2 * y + 0.3, sp_.vorticity)
    scaled = sp_.vorticity.new_field(c * z.coefficients)
    n0, n1 = spaces.norms(z), spaces.norms(scaled)
    assert n1.l2 == pytest.approx(abs(c) * n0.l2, rel=1e-12, abs=1e-12)
    assert n1.h1_semi == pytest.approx(abs(c) * n0.h1_semi, rel=1e-12, abs=1e-12)
    assert n1.linf_dof == pytest.approx(abs(c) * n0.linf_dof, rel=1e-12, abs=1e-12)
