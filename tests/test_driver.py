import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gradetwo import driver, manufactured, meshes, spaces, stokes
from gradetwo.driver import ProblemSpec, fixed_point_solve
from gradetwo.errors import DegenerateInflow, NotConverged

SMALL_F = lambda x, y: (1e-4 * math.sin(math.pi * y),  # noqa: E731
                        1e-4 * math.cos(math.pi * x))
SMOOTH_F = lambda x, y: (0.5 * math.sin(math.pi * y),  # noqa: E731
                         0.5 * math.cos(math.pi * x))
SMOOTH_CURL_F = lambda x, y: -0.5 * math.pi * (  # noqa: E731
    math.sin(math.pi * x) + math.cos(math.pi * y))


def test_spec_validation(mesh8):
    with pytest.raises(ValueError):
        ProblemSpec(mesh=mesh8, nu=-1.0, alpha=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.0, relaxation=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.0, variant="P_III")


def test_spec_loads_mesh_from_path(tmp_path):
    path = tmp_path / "m.m2d"
    meshes.save_mesh(meshes.unit_square_mesh(2), str(path))
    spec = ProblemSpec(mesh=str(path), nu=1.0, alpha=0.0)
    assert spec.mesh.num_triangles == 8


def test_zero_data_single_iteration(mesh8):
    u, p, z, rep = fixed_point_solve(ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.3))
    assert rep.iterations == 1
    assert rep.converged
    assert np.abs(u.coefficients).max() == 0.0
    assert np.abs(p.coefficients).max() == 0.0
    assert np.abs(z.coefficients).max() == 0.0


def test_alpha_zero_two_iterations_and_curl_identity(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.0, f=SMALL_F)
    u, p, z, rep = fixed_point_solve(spec)
    assert rep.iterations <= 2
    cu = spaces.curl_of_velocity(u, z.space)
    # at alpha = 0 the transported field reduces to the curl of the velocity
    assert np.abs(z.coefficients - cu.coefficients).max() <= \
        1e-8 * max(1.0, np.abs(z.coefficients).max())


def test_converged_report_content(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.1, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F)
    u, p, z, rep = fixed_point_solve(spec)
    assert rep.stopping_reason == "converged"
    assert rep.iterations == len(rep.z_l2) == len(rep.u_h1)
    assert rep.dz_l2[-1] <= spec.fp_tol * (rep.z_l2[-1] + 1.0)
    assert rep.wall_time > 0.0
    # residuals decrease after the opening iterations in the small-data regime
    tail = rep.dz_l2[2:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_determinism_bitwise(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.1, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F)
    res1 = fixed_point_solve(spec)
    res2 = fixed_point_solve(spec)
    assert np.array_equal(res1[2].coefficients, res2[2].coefficients)
    assert res1[3].dz_l2 == res2[3].dz_l2
    assert res1[3].z_l2 == res2[3].z_l2


def test_setup_work_once_per_solve(mesh8, monkeypatch):
    """The flux check and the Stokes factorisation run once per
    fixed_point_solve, however many coupling iterations it takes."""
    counts = {"flux_checks": 0, "stokes_lu": 0}
    check = stokes.check_flux_compatibility
    splu = spla.splu

    def counted_check(*args, **kwargs):
        counts["flux_checks"] += 1
        return check(*args, **kwargs)

    def counted_splu(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == stokes.__name__:
            counts["stokes_lu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(stokes, "check_flux_compatibility", counted_check)
    monkeypatch.setattr(spla, "splu", counted_splu)
    case = manufactured.manufactured_case("trig", 1.0, 0.1)
    _, _, _, rep = fixed_point_solve(case.problem_spec(mesh8))
    assert rep.converged and rep.iterations > 2
    assert counts == {"flux_checks": 1, "stokes_lu": 1}


def test_data_evaluated_in_batches(mesh8):
    """Each data callable is called with arrays a handful of times per
    fixed_point_solve, not once per quadrature point or node."""
    case = manufactured.manufactured_case("trig", 1.0, 0.1)
    spec = case.problem_spec(mesh8)
    calls = dict.fromkeys(("f", "g", "h", "curl_f"), 0)

    def counted(name):
        fn = getattr(spec, name)

        def wrapper(x, y):
            calls[name] += 1
            return fn(x, y)
        return wrapper

    _, _, _, rep = fixed_point_solve(
        spec.replace(**{name: counted(name) for name in calls}))
    assert rep.converged and rep.iterations > 2
    assert all(1 <= n <= 24 for n in calls.values()), calls


def test_relaxation_neutrality(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.1, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F)
    _, _, z1, _ = fixed_point_solve(spec)
    _, _, z2, _ = fixed_point_solve(spec.replace(relaxation=0.5))
    dz = spaces.norms(z1.space.new_field(z2.coefficients - z1.coefficients))
    assert dz.l2 <= 10.0 * spec.fp_tol


def test_not_converged_raises_with_report(mesh8):
    # strongly coupled data far outside the smallness regime
    bigf = lambda x, y: (40.0 * math.sin(math.pi * y),
                         40.0 * math.cos(math.pi * x))
    spec = ProblemSpec(mesh=mesh8, nu=0.05, alpha=5.0, f=bigf,
                       max_iter=40)
    with pytest.raises(NotConverged) as err:
        fixed_point_solve(spec)
    rep = err.value.report
    assert rep is not None
    assert rep.stopping_reason in ("diverged", "max_iter")
    assert rep.iterations >= 1


def test_strict_trace_variant_rejects_interior_degeneracy(mesh16):
    g = lambda x, y: ((y - 0.5) ** 2, 0.0)
    spec = ProblemSpec(mesh=mesh16, nu=1.0, alpha=1.0, g=g, variant="P_II",
                       flux_tol=1.0)
    with pytest.raises(DegenerateInflow):
        fixed_point_solve(spec)
    relaxed = spec.replace(strict=False)
    with pytest.warns(UserWarning, match="vanishes strictly inside"):
        u, p, z, rep = fixed_point_solve(relaxed)
    assert rep.converged


def test_limit_study_monotone_and_zero_row(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.2, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F)
    rows = driver.navier_stokes_limit_study(spec, [0.2, 0.1, 0.05, 0.0])
    assert [r.alpha for r in rows] == [0.2, 0.1, 0.05, 0.0]
    errs = [r.err_u_h1 for r in rows[:-1]]
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert rows[-1].err_u_h1 == 0.0
    assert rows[-1].err_z_l2 == 0.0
    assert not any(r.failed for r in rows)


def test_limit_study_failed_row_isolated(mesh8):
    # alpha = 20 sits outside the contraction regime at nu = 0.2 while the
    # small-alpha rows (and the alpha=0 reference) converge
    spec = ProblemSpec(mesh=mesh8, nu=0.2, alpha=0.001, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F, max_iter=40)
    rows = driver.navier_stokes_limit_study(spec, [20.0, 0.001])
    assert rows[0].failed and "NotConverged" in rows[0].message
    assert not rows[1].failed


def test_uniqueness_probe_rejects_single_start(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        driver.uniqueness_probe(spec, 1, seed=0)


def test_uniqueness_probe_linear_case(mesh8):
    # alpha = 0: after the first sweep the iteration forgets its start
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.0, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F, fp_tol=1e-12)
    worst = driver.uniqueness_probe(spec, 3, seed=1)
    assert worst <= 1e-10


def test_uniqueness_probe_deterministic(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.05, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F, fp_tol=1e-10)
    w1 = driver.uniqueness_probe(spec, 2, seed=7)
    w2 = driver.uniqueness_probe(spec, 2, seed=7)
    assert w1 == w2


def test_diagnostics_zero_solution(mesh8):
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.3)
    u, p, z, rep = fixed_point_solve(spec)
    part = meshes.classify_boundary(mesh8, spec.g, spec.alpha)
    diag = driver.diagnostics(u, p, z, spec, part)
    assert diag.u_norms.l2 == 0.0
    assert diag.p_norms.l2 == 0.0
    assert diag.z_norms.l2 == 0.0
    assert diag.sign.total == 0.0
    assert diag.beta is None


def test_diagnostics_inflow_case(mesh16):
    spec = ProblemSpec(
        mesh=mesh16, nu=1.0, alpha=0.1, g=lambda x, y: (1.0, 0.0),
        h=lambda x, y: math.sin(math.pi * y), variant="P_II")
    u, p, z, rep = fixed_point_solve(spec)
    part = meshes.classify_boundary(mesh16, spec.g, spec.alpha)
    diag = driver.diagnostics(u, p, z, spec, part)
    assert diag.beta == pytest.approx(1.0)
    scale = max(1.0, diag.z_norms.l2 ** 2 * diag.u_norms.h1_semi)
    assert diag.sign.total >= -1e-10 * scale
    assert diag.junctions == (0, 16)
    assert math.isfinite(diag.green_residual)
