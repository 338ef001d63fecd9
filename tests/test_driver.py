import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gradetwo import driver, manufactured, meshes, spaces, stokes, transport
from gradetwo.driver import ProblemSpec, fixed_point_solve
from gradetwo.errors import DegenerateInflow, MeshTopologyError, NotConverged

from conftest import ring_mesh

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



@pytest.mark.parametrize("nu,alpha", [(math.inf, 0.0), (math.nan, 0.0),
                                      (1.0, math.inf), (1.0, math.nan)])
def test_spec_rejects_nonfinite_constants(mesh8, nu, alpha):
    with pytest.raises(ValueError, match="finite"):
        ProblemSpec(mesh=mesh8, nu=nu, alpha=alpha)

@pytest.mark.parametrize("name,value", [
    ("fp_tol", math.nan), ("fp_tol", math.inf), ("fp_tol", 0.0),
    ("flux_tol", math.inf), ("div_tol", math.nan), ("div_tol", -1.0),
    ("eps_n", math.nan), ("eps_n", -1e-3)])
def test_spec_rejects_bad_tolerances(mesh8, name, value):
    with pytest.raises(ValueError, match=name):
        ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.0, **{name: value})


def _classify(**kw):
    args = dict(g=lambda x, y: (1.0, 0.0), alpha=1.0) | kw
    meshes.classify_boundary(meshes.unit_square_mesh(4), **args)


def _prepare(flux_tol):
    sp_ = spaces.build_spaces(meshes.unit_square_mesh(4))
    stokes.prepare_generalized_stokes(sp_, 1.0, lambda x, y: (0.0, 0.0),
                                      lambda x, y: (x, y), flux_tol=flux_tol)


def _transport(div_tol=None, nu=1.0, alpha=1.0, flow=lambda x, y: (x, 0.0)):
    mesh = meshes.unit_square_mesh(4)
    sp_ = spaces.build_spaces(mesh)
    u = spaces.interpolate(flow, sp_.velocity)
    part = meshes.classify_boundary(mesh, flow, 1.0)
    datum = transport.build_inflow_datum(mesh, "P_II", lambda x, y: 1.0,
                                         flow, part)
    transport.solve_transport(u, nu, alpha, sp_.vorticity.new_field(), datum,
                              part, div_tol=div_tol)


@pytest.mark.parametrize("call, name, value", [
    (_classify, "eps_n", math.nan), (_classify, "eps_n", math.inf),
    (_classify, "alpha", math.nan),
    (_prepare, "flux_tol", math.nan), (_transport, "div_tol", math.nan)])
def test_library_rejects_nonfinite_tolerances(call, name, value):
    """The library calls check what ProblemSpec checks on the driver path;
    unchecked, these gave no inflow edge, passed a net flux of 2 and
    silenced the divergence warning."""
    with pytest.raises(ValueError, match=name):
        call(**{name: value})


def _transport_uniform(**kw):
    _transport(flow=lambda x, y: (1.0, 0.0), **kw)


def _prepare_zero(nu):
    sp_ = spaces.build_spaces(meshes.unit_square_mesh(4))
    zero = lambda x, y: (0.0, 0.0)  # noqa: E731
    stokes.prepare_generalized_stokes(sp_, nu, zero, zero)


def _manufactured(**kw):
    manufactured.manufactured_case("trig", **(dict(nu=1.0, alpha=0.1) | kw))


@pytest.mark.parametrize("call, name, value", [
    (_transport_uniform, "alpha", math.nan),
    (_transport_uniform, "alpha", math.inf),
    (_transport_uniform, "nu", math.inf),
    (_prepare_zero, "nu", math.inf),
    (_manufactured, "nu", math.inf), (_manufactured, "alpha", math.nan)])
def test_library_rejects_nonfinite_constants(call, name, value):
    """The library calls check nu and alpha as ProblemSpec does; unchecked,
    the solvers failed on a singular or non-finite matrix instead, and the
    manufactured case was accepted."""
    with pytest.raises(ValueError, match=f"{name} must be"):
        call(**{name: value})


def test_flux_variant_degenerate_inflow_raises_without_warning():
    """g.n = -(y - 1/2)^2 vanishes at vertex y = 1/2 inside the inflow
    edge x = 0: P_I raises, and no warning precedes the error."""
    spec = ProblemSpec(mesh=meshes.unit_square_mesh(8), nu=1.0, alpha=1.0,
                       g=lambda x, y: ((y - 0.5) ** 2, 0.0), variant="P_I")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInflow, match="vanishes strictly"):
            driver.prepare(spec)


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


def test_stokes_solves_warm_started(mesh8):
    """The pairing solve starts from the loop's last solutions, so it needs
    at most half the iterations of the first solve at nonzero z."""
    case = manufactured.manufactured_case("trig", 1.0, 0.1)
    _, _, _, rep = fixed_point_solve(case.problem_spec(mesh8))
    counts = rep.gmres_iterations
    assert rep.converged and rep.iterations > 2
    assert len(counts) == rep.iterations + 1
    assert 0 < counts[-1] <= counts[1] // 2, counts


def test_history_start_saves_gmres_iterations(mesh8, monkeypatch):
    """Starting each solve from the last three solutions takes fewer GMRES
    iterations than from the last one alone, with the same coupling
    iterations and the same fixed point to within 10*fp_tol."""
    spec = manufactured.manufactured_case("trig", 1.0, 0.1).problem_spec(mesh8)
    _, _, z, rep = fixed_point_solve(spec)
    monkeypatch.setattr(driver, "_HISTORY", 1)
    _, _, z_last, rep_last = fixed_point_solve(spec)
    assert rep.iterations == rep_last.iterations
    assert sum(rep.gmres_iterations) < sum(rep_last.gmres_iterations)
    dz = np.abs(z.coefficients - z_last.coefficients).max()
    assert dz <= 10 * spec.fp_tol * np.abs(z_last.coefficients).max()


def gmres_rtols(monkeypatch):
    """The rtol of each Stokes GMRES call."""
    rtols = []
    gmres = stokes._gmres

    def recorded(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        return gmres(*args, **kwargs)

    monkeypatch.setattr(stokes, "_gmres", recorded)
    return rtols


@pytest.mark.parametrize("fp_tol,loop_rtol", [(1e-8, 1e-10),
                                               (1e-11, 1e-12)])
def test_loop_stokes_tolerance(mesh8, monkeypatch, fp_tol, loop_rtol):
    """Loop solves stop at min(1e-10, max(1e-12, fp_tol/100)); the pairing
    solve at 1e-12."""
    rtols = gmres_rtols(monkeypatch)
    spec = manufactured.manufactured_case("trig", 1.0, 0.1).problem_spec(
        mesh8, fp_tol=fp_tol)
    _, _, _, rep = fixed_point_solve(spec)
    assert rep.converged
    assert rtols == [loop_rtol] * rep.iterations + [1e-12]


def test_loop_tolerance_keeps_fixed_point(mesh8, monkeypatch):
    """The loop tolerance leaves the iteration count and z (to 10*fp_tol)
    as with every solve at 1e-12."""
    spec = manufactured.manufactured_case("trig", 1.0, 0.1).problem_spec(mesh8)
    _, _, z, rep = fixed_point_solve(spec)
    solve = driver.solve_generalized_stokes
    monkeypatch.setattr(driver, "solve_generalized_stokes",
                        lambda *a, **kw: solve(*a, **{**kw, "rtol": 1e-12}))
    _, _, z_tight, rep_tight = fixed_point_solve(spec)
    assert rep.iterations == rep_tight.iterations
    dz = np.abs(z.coefficients - z_tight.coefficients).max()
    assert dz <= 10 * spec.fp_tol * np.abs(z_tight.coefficients).max()


def test_no_warm_state_across_calls(mesh8):
    """Each fixed_point_solve starts cold, even on a shared set-up."""
    spec = manufactured.manufactured_case("trig", 1.0, 0.1).problem_spec(mesh8)
    setup = driver.prepare(spec)
    first = fixed_point_solve(spec, setup=setup)
    second = fixed_point_solve(spec, setup=setup)
    for a, b in zip(first[:3], second[:3]):
        assert np.array_equal(a.coefficients, b.coefficients)
    assert first[3].dz_l2 == second[3].dz_l2


def test_setup_work_once_per_solve(mesh8, monkeypatch, stokes_splu_shapes):
    """The flux check and the two Stokes factorisations (velocity block and
    pressure mass) run once per fixed_point_solve, however many coupling
    iterations it takes."""
    flux_checks = []
    check = stokes.check_flux_compatibility

    def counted_check(*args, **kwargs):
        flux_checks.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(stokes, "check_flux_compatibility", counted_check)
    case = manufactured.manufactured_case("trig", 1.0, 0.1)
    _, _, _, rep = fixed_point_solve(case.problem_spec(mesh8))
    assert rep.converged and rep.iterations > 2
    assert len(flux_checks) == 1
    assert len(stokes_splu_shapes) == 2
    assert (mesh8.num_vertices,) * 2 in stokes_splu_shapes


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
    # a Stokes solve that fails on an iterate reports its count last
    assert rep.iterations <= len(rep.gmres_iterations) <= rep.iterations + 1


def test_orphan_vertices_stop_the_solve_not_the_transport():
    # ring_mesh keeps the hole's 4 interior vertices, which no cell uses
    mesh = ring_mesh(3)
    with pytest.raises(MeshTopologyError, match="4 mesh vertices"):
        fixed_point_solve(ProblemSpec(mesh=mesh, nu=1.0, alpha=0.1))
    uniform = lambda x, y: (1.0, 0.0)  # noqa: E731
    sp_ = spaces.build_spaces(mesh)
    part = meshes.classify_boundary(mesh, uniform, 1.0)
    datum = transport.build_inflow_datum(mesh, "P_II", lambda x, y: 1.0,
                                         uniform, part)
    z = transport.solve_transport(
        spaces.interpolate(uniform, sp_.velocity), 1.0, 1.0,
        sp_.vorticity.new_field(), datum, part)
    assert np.all(np.isfinite(z.coefficients))


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


def test_limit_study_factorises_once(mesh8, monkeypatch, stokes_splu_shapes):
    """Every row reuses the alpha=0 reference's Stokes factorisations
    (velocity block and pressure mass) and matches a separate solve at its
    alpha bit for bit."""
    spec = ProblemSpec(mesh=mesh8, nu=1.0, alpha=0.2, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F)
    alphas = [0.2, 0.1, 0.05, 0.0]
    rows = driver.navier_stokes_limit_study(spec, alphas)
    assert len(stokes_splu_shapes) == 2
    monkeypatch.undo()
    u0, _, z0, _ = fixed_point_solve(spec.replace(alpha=0.0))
    for row, alpha in zip(rows, alphas):
        ua, _, za, rep = fixed_point_solve(spec.replace(alpha=alpha))
        du = spaces.norms(u0.space.new_field(ua.coefficients - u0.coefficients))
        dz = spaces.norms(z0.space.new_field(za.coefficients - z0.coefficients))
        assert (row.err_u_h1, row.err_z_l2, row.iterations) == \
            (du.h1_semi, dz.l2, rep.iterations)


def test_limit_study_failed_row_isolated(mesh8):
    # alpha = 20 sits outside the contraction regime at nu = 0.2 while the
    # small-alpha rows (and the alpha=0 reference) converge
    spec = ProblemSpec(mesh=mesh8, nu=0.2, alpha=0.001, f=SMOOTH_F,
                       curl_f=SMOOTH_CURL_F, max_iter=40)
    rows = driver.navier_stokes_limit_study(spec, [20.0, 0.001])
    assert rows[0].failed and "NotConverged" in rows[0].message
    assert not rows[1].failed


def test_ns_limit_script_runs():
    """``scripts/run_ns_limit.py`` runs the limit study on scalar-only data
    (``math.sin``), so its data is evaluated point by point."""
    script = Path(__file__).parents[1] / "scripts" / "run_ns_limit.py"
    src = os.path.dirname(os.path.dirname(driver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(script), "4"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert len(rows) == 6 and not any("FAILED:" in row for row in rows)
    assert rows[-1][:3] == ["0.0", "0.0000e+00", "0.0000e+00"]


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
