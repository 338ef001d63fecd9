import math

import numpy as np
import pytest

from gradetwo import manufactured as mms
from gradetwo import meshes, spaces
from conftest import fd_gradient, fd_laplacian


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown manufactured case"):
        mms.manufactured_case("nope", 1.0, 0.1)
    with pytest.raises(ValueError):
        mms.manufactured_case("trig", -1.0, 0.1)


def test_poly_velocity_vanishes_on_boundary():
    case = mms.manufactured_case("poly", 1.0, 0.1)
    for t in np.linspace(0.0, 1.0, 17):
        for x, y in [(t, 0.0), (t, 1.0), (0.0, t), (1.0, t)]:
            ux, uy = case.u(x, y)
            assert abs(ux) < 1e-15 and abs(uy) < 1e-15
    part = meshes.classify_boundary(meshes.unit_square_mesh(8), case.u,
                                    case.alpha)
    assert part.gamma_minus == ()


def test_trig_inflow_is_left_edge():
    case = mms.manufactured_case("trig", 1.0, 0.25)
    m = meshes.unit_square_mesh(8)
    part = meshes.classify_boundary(m, case.u, case.alpha)
    left = {b for b in range(m.num_boundary_edges)
            if m.boundary_markers[b] == case.inflow_marker}
    assert set(part.gamma_minus) == left
    assert part.interior_degeneracies() == ()
    # g.n = -(1 + sin(pi y)/pi) on the left edge: the continuous minimum 1
    # is sampled at quadrature points only, so beta sits slightly below 1
    assert 0.95 <= part.beta <= 1.0
    # the z trace there is nonzero: both variants get real data
    assert abs(case.h_trace(0.0, 0.25)) > 0.1
    assert abs(case.h_flux(0.0, 0.25)) > 0.1


def test_trig_flux_matches_hand_integrals():
    # hand values per side: left = -1 - 2/pi^2, right = 1 - 2/pi^2,
    # bottom = top = 2/pi^2; the total vanishes
    case = mms.manufactured_case("trig", 1.0, 0.1)
    m = meshes.unit_square_mesh(16)
    pts = m.boundary_qpoints
    w = m.boundary_qweights
    n = m.boundary_normals
    per_marker = {}
    for b in range(m.num_boundary_edges):
        acc = 0.0
        for k in range(pts.shape[1]):
            gx, gy = case.u(pts[b, k, 0], pts[b, k, 1])
            acc += w[b, k] * (gx * n[b, 0] + gy * n[b, 1])
        per_marker[int(m.boundary_markers[b])] = \
            per_marker.get(int(m.boundary_markers[b]), 0.0) + acc
    # the degree-5 edge rule integrates the sine profile to O(h^6)
    two_over_pi2 = 2.0 / math.pi ** 2
    assert per_marker[4] == pytest.approx(-1.0 - two_over_pi2, rel=1e-9)
    assert per_marker[2] == pytest.approx(1.0 - two_over_pi2, rel=1e-9)
    assert per_marker[1] == pytest.approx(two_over_pi2, rel=1e-9)
    assert per_marker[3] == pytest.approx(two_over_pi2, rel=1e-9)
    assert meshes.flux_per_component(m, case.u).net[0] == pytest.approx(
        0.0, abs=1e-13)


def test_alpha_zero_reduces_z_to_curl():
    rng = np.random.default_rng(2)
    for name in mms.CASE_NAMES:
        case = mms.manufactured_case(name, 1.0, 0.0)
        for _ in range(20):
            x, y = rng.random(), rng.random()
            (du1dx, du1dy), (du2dx, du2dy) = case.grad_u(x, y)
            assert case.z(x, y) == pytest.approx(du2dx - du1dy, rel=1e-12,
                                                 abs=1e-12)


@pytest.mark.parametrize("name,alpha", [("trig", 0.13), ("poly", 0.13),
                                        ("trig", -0.2)])
def test_derivative_pieces_match_finite_differences(name, alpha):
    case = mms.manufactured_case(name, 0.7, alpha)
    rng = np.random.default_rng(4)
    u1 = lambda x, y: case.u(x, y)[0]
    u2 = lambda x, y: case.u(x, y)[1]
    for _ in range(40):
        x, y = 0.05 + 0.9 * rng.random(), 0.05 + 0.9 * rng.random()
        g = case.grad_u(x, y)
        for got, ref in zip(g[0] + g[1],
                            fd_gradient(u1, x, y) + fd_gradient(u2, x, y)):
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-7)
        lap = case.lap_u(x, y)
        assert lap[0] == pytest.approx(fd_laplacian(u1, x, y), rel=1e-5,
                                       abs=1e-5)
        assert lap[1] == pytest.approx(fd_laplacian(u2, x, y), rel=1e-5,
                                       abs=1e-5)
        gp = case.grad_p(x, y)
        fp = fd_gradient(case.p, x, y)
        assert gp[0] == pytest.approx(fp[0], rel=1e-8, abs=1e-8)
        assert gp[1] == pytest.approx(fp[1], rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("name", mms.CASE_NAMES)
def test_forcing_matches_momentum_equation_fd(name):
    """Spot-check f = -nu*lap(u) + z x u + grad p at >= 100 random points,
    with the laplacian and pressure gradient replaced by finite differences
    and z by an FD curl of u - alpha*lap u (lap_u itself FD-verified above).
    """
    case = mms.manufactured_case(name, 1.3, 0.21)
    rng = np.random.default_rng(11)
    w1 = lambda x, y: case.u(x, y)[0] - case.alpha * case.lap_u(x, y)[0]
    w2 = lambda x, y: case.u(x, y)[1] - case.alpha * case.lap_u(x, y)[1]
    u1 = lambda x, y: case.u(x, y)[0]
    u2 = lambda x, y: case.u(x, y)[1]
    for _ in range(120):
        x, y = 0.05 + 0.9 * rng.random(), 0.05 + 0.9 * rng.random()
        z_fd = fd_gradient(w2, x, y)[0] - fd_gradient(w1, x, y)[1]
        assert case.z(x, y) == pytest.approx(z_fd, rel=1e-6, abs=1e-6)
        lap1 = fd_laplacian(u1, x, y)
        lap2 = fd_laplacian(u2, x, y)
        gp = fd_gradient(case.p, x, y)
        f_fd = (-case.nu * lap1 - z_fd * u2(x, y) + gp[0],
                -case.nu * lap2 + z_fd * u1(x, y) + gp[1])
        got = case.f(x, y)
        scale = max(1.0, abs(f_fd[0]), abs(f_fd[1]))
        assert abs(got[0] - f_fd[0]) <= 1e-4 * scale
        assert abs(got[1] - f_fd[1]) <= 1e-4 * scale
        # curl_f against first differences of the hard-coded f
        cf = (fd_gradient(lambda a, b: case.f(a, b)[1], x, y)[0]
              - fd_gradient(lambda a, b: case.f(a, b)[0], x, y)[1])
        assert case.curl_f(x, y) == pytest.approx(cf, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("name", mms.CASE_NAMES)
def test_momentum_substitution_residual(name):
    # quadrature residual of the momentum equation over a mesh; catches a
    # desynchronised f transcription
    case = mms.manufactured_case(name, 0.9, 0.17)
    sp_ = spaces.build_spaces(meshes.unit_square_mesh(6))
    pts = spaces.data_cell_values(sp_.context, lambda x, y: (x, y))
    w = sp_.context.cell_qweights
    res2 = 0.0
    fnorm2 = 0.0
    for t in range(pts.shape[0]):
        for q in range(pts.shape[1]):
            x, y = pts[t, q]
            l1, l2 = case.lap_u(x, y)
            zv = case.z(x, y)
            ux, uy = case.u(x, y)
            px, py = case.grad_p(x, y)
            fx, fy = case.f(x, y)
            rx = -case.nu * l1 - zv * uy + px - fx
            ry = -case.nu * l2 + zv * ux + py - fy
            res2 += w[t, q] * (rx * rx + ry * ry)
            fnorm2 += w[t, q] * (fx * fx + fy * fy)
    assert math.sqrt(res2) <= 1e-8 * math.sqrt(fnorm2)


def test_study_input_validation():
    case = mms.manufactured_case("trig", 1.0, 0.1)
    with pytest.raises(ValueError, match="three mesh sizes"):
        mms.convergence_study(case, [8, 16])
    with pytest.raises(ValueError, match="nested"):
        mms.convergence_study(case, [8, 12, 16])
    with pytest.raises(ValueError, match="mode"):
        mms.convergence_study(case, [4, 8, 16], mode="magic")


@pytest.mark.parametrize("mode", ["coupled", "stokes", "transport"])
def test_study_rejects_unknown_variant(mode):
    # before any level runs: no row fails on it, and stokes mode, which
    # never reads the variant, does not ignore it
    case = mms.manufactured_case("trig", 1.0, 0.1)
    with pytest.raises(ValueError,
                       match="variant must be P_I or P_II, got 'P_III'"):
        mms.convergence_study(case, [4, 8, 16], mode=mode, variant="P_III")


def test_stokes_study_rates():
    case = mms.manufactured_case("trig", 1.0, 0.1)
    res = mms.convergence_study(case, [4, 8, 16], mode="stokes")
    assert not any(r.failed for r in res.rows)
    last = res.orders[-1]
    assert last["err_u_h1"] == pytest.approx(2.0, abs=0.3)
    assert last["err_p_l2"] == pytest.approx(2.0, abs=0.3)


def test_transport_study_rate():
    case = mms.manufactured_case("trig", 1.0, 0.1)
    res = mms.convergence_study(case, [4, 8, 16], mode="transport")
    assert res.orders[-1]["err_z_l2"] >= 1.5


@pytest.mark.parametrize("variant", ["P_II", "P_I"])
def test_coupled_study_tracks_subsolver_rates(variant):
    case = mms.manufactured_case("trig", 1.0, 0.1)
    coupled = mms.convergence_study(case, [4, 8, 16], mode="coupled",
                                    variant=variant)
    assert not any(r.failed for r in coupled.rows)
    stokes_res = mms.convergence_study(case, [4, 8, 16], mode="stokes")
    transport_res = mms.convergence_study(case, [4, 8, 16], mode="transport")
    last = coupled.orders[-1]
    assert abs(last["err_u_h1"] - stokes_res.orders[-1]["err_u_h1"]) <= 0.3
    assert abs(last["err_z_l2"] - transport_res.orders[-1]["err_z_l2"]) <= 0.3
    # orders must not degrade between the two finest levels
    for key in ("err_u_h1", "err_p_l2", "err_z_l2"):
        assert coupled.orders[-1][key] >= coupled.orders[-2][key] - 0.3


def test_poly_coupled_error_decreases():
    case = mms.manufactured_case("poly", 1.0, 0.1)
    res = mms.convergence_study(case, [4, 8, 16], mode="coupled")
    assert not any(r.failed for r in res.rows)
    errs = [r.err_u_h1 for r in res.rows]
    assert errs[0] > errs[1] > errs[2]


def test_study_marks_failed_rows():
    case = mms.manufactured_case("trig", 0.2, 20.0)
    res = mms.convergence_study(case, [4, 8, 16], mode="coupled",
                                max_iter=10)
    assert all(r.failed for r in res.rows)
    assert all("NotConverged" in r.message for r in res.rows)
    assert all(math.isnan(o["err_u_h1"]) for o in res.orders)
