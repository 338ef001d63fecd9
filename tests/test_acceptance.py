"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them all).
Tolerances are pinned here and nowhere else."""

import math
import time
import warnings

import numpy as np
import pytest

from gradetwo import cli, driver, meshes, spaces, stokes, transport
from gradetwo import manufactured as mms
from gradetwo.driver import ProblemSpec, fixed_point_solve
from gradetwo.errors import DegenerateInflow, FluxIncompatible

from conftest import filled_coupling, skew_defect, zero_datum

UNIFORM = lambda x, y: (1.0, 0.0)  # noqa: E731
SMOOTH_F = lambda x, y: (0.5 * math.sin(math.pi * y),  # noqa: E731
                         0.5 * math.cos(math.pi * x))
SMOOTH_CURL_F = lambda x, y: -0.5 * math.pi * (  # noqa: E731
    math.sin(math.pi * x) + math.cos(math.pi * y))


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_transport_exact_solution():
    exact = lambda x, y: math.exp(-x) * math.sin(math.pi * y)
    errors = []
    times = []
    for n in (16, 32, 64):
        t0 = time.perf_counter()
        mesh = meshes.unit_square_mesh(n)
        sp_ = spaces.build_spaces(mesh)
        u = spaces.interpolate(UNIFORM, sp_.velocity)
        part = meshes.classify_boundary(mesh, UNIFORM, 1.0)
        datum = transport.build_inflow_datum(
            mesh, "P_II", lambda x, y: math.sin(math.pi * y), UNIFORM, part)
        z = transport.solve_transport(u, 1.0, 1.0, sp_.vorticity.new_field(),
                                      datum, part)
        errors.append(spaces.error_l2(z, exact))
        times.append(time.perf_counter() - t0)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = (errors[-1] <= 1e-2 and min(orders) >= 1.5
          and max(times) <= 10.0)
    _report(1, "transport exact solution", ok,
            f"err(h=1/64)={errors[-1]:.3e} (<=1e-2), orders={orders}, "
            f"max level time={max(times):.2f}s (<=10s)")


def test_criterion_2_stokes_mms_rates():
    case = mms.manufactured_case("trig", 1.0, 0.1)
    res = mms.convergence_study(case, [8, 16, 32], mode="stokes")
    u_orders = [o["err_u_h1"] for o in res.orders]
    p_orders = [o["err_p_l2"] for o in res.orders]
    ok = (not any(r.failed for r in res.rows)
          and all(abs(o - 2.0) <= 0.3 for o in u_orders)
          and all(abs(o - 2.0) <= 0.3 for o in p_orders))
    _report(2, "Taylor-Hood rates with exact coefficient", ok,
            f"u_H1 orders={u_orders}, p_L2 orders={p_orders} (2 +/- 0.3)")


def test_criterion_3_skew_symmetry():
    sp_ = spaces.build_spaces(meshes.unit_square_mesh(8))
    zero = lambda x, y: (0.0, 0.0)  # noqa: E731
    prepared = stokes.prepare_generalized_stokes(sp_, 1.0, zero, zero)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        z = sp_.vorticity.new_field(
            rng.standard_normal(sp_.vorticity.dof_count))
        worst = max(worst, skew_defect(filled_coupling(prepared, z), rng, 100))
    ok = worst <= 1e-12
    _report(3, "skew-symmetry of the filled coupling block", ok,
            f"max |v^T C v| / (||C||_F ||v||^2) = {worst:.3e} (<=1e-12)")


def test_criterion_4_sign_inequality():
    mesh = meshes.unit_square_mesh(16)
    sp_ = spaces.build_spaces(mesh)
    velocities = [
        UNIFORM,
        lambda x, y: (0.0, 1.0),
        lambda x, y: (2.0, -1.0),
        lambda x, y: (y, x),
        lambda x, y: (-y, x),
        lambda x, y: (y * y, x * x),
    ]
    rhss = [lambda x, y: math.sin(3 * x) * y,
            lambda x, y: x - y * y]
    cases = 0
    worst = math.inf
    for gfun in velocities:
        u = spaces.interpolate(gfun, sp_.velocity)
        for nu in (0.5, 1.0):
            for alpha in (1.0, -1.0):
                part = meshes.classify_boundary(mesh, gfun, alpha)
                for rfun in rhss:
                    rhs = spaces.interpolate(rfun, sp_.vorticity)
                    z = transport.solve_transport(
                        u, nu, alpha, rhs, zero_datum(mesh), part)
                    total = transport.sign_functional_report(z, u, alpha).total
                    scale = max(1.0, spaces.norms(z).l2 ** 2
                                * spaces.norms(u).l2 * abs(alpha))
                    worst = min(worst, total / scale)
                    cases += 1
    ok = cases >= 20 and worst >= -1e-10
    _report(4, "discrete sign inequality (zero inflow datum)", ok,
            f"{cases} cases, min scaled value = {worst:.3e} (>=-1e-10)")


def test_criterion_5_coupled_mms():
    case = mms.manufactured_case("trig", 1.0, 0.1)
    spec = case.problem_spec(meshes.unit_square_mesh(32), fp_tol=1e-8)
    _, _, _, rep = fixed_point_solve(spec)
    res = mms.convergence_study(case, [8, 16, 32], mode="coupled",
                                fp_tol=1e-8)
    u_orders = [o["err_u_h1"] for o in res.orders]
    ok = (rep.converged and rep.iterations <= 50
          and not any(r.failed for r in res.rows)
          and min(u_orders) >= 1.5)
    _report(5, "coupled manufactured solution", ok,
            f"iterations(h=1/32)={rep.iterations} (<=50), "
            f"u_H1 orders={u_orders} (>=1.5)")


def test_criterion_6_navier_stokes_limit():
    spec = ProblemSpec(mesh=meshes.unit_square_mesh(12), nu=1.0, alpha=0.2,
                       f=SMOOTH_F, curl_f=SMOOTH_CURL_F, fp_tol=1e-9)
    rows = driver.navier_stokes_limit_study(spec, [0.2, 0.1, 0.05, 0.025])
    errs = [r.err_u_h1 for r in rows]
    ok = (not any(r.failed for r in rows)
          and all(a > b for a, b in zip(errs, errs[1:]))
          and errs[-1] > 0.0)
    _report(6, "limit toward the alpha=0 solution", ok,
            f"|u_a - u_0|_H1 = {['%.3e' % e for e in errs]} strictly decreasing")


def test_criterion_7_uniqueness_probe():
    spec = ProblemSpec(mesh=meshes.unit_square_mesh(8), nu=1.0, alpha=0.05,
                       f=SMOOTH_F, curl_f=SMOOTH_CURL_F, fp_tol=1e-10)
    worst = driver.uniqueness_probe(spec, 3, seed=2024)
    ok = worst <= 1e-6
    _report(7, "multi-start uniqueness probe", ok,
            f"max pairwise relative z distance = {worst:.3e} (<=1e-6)")


def test_criterion_8_guard_rails():
    mesh = meshes.unit_square_mesh(16)
    # component-wise flux imbalance of 2.0 >= 1e-4 must refuse to solve
    spec = ProblemSpec(mesh=mesh, nu=1.0, alpha=0.1,
                       g=lambda x, y: (x, y))
    try:
        fixed_point_solve(spec)
        flux_ok = False
        flux_msg = "no error raised"
    except FluxIncompatible as exc:
        flux_ok = abs(exc.flux) >= 1e-4
        flux_msg = f"FluxIncompatible flux={exc.flux:.3e}"
    # flux-variant datum with |g.n| <= eps_n inside the inflow closure: an
    # error, with no warning before it
    g = lambda x, y: ((y - 0.5) ** 2, 0.0)
    spec2 = ProblemSpec(mesh=mesh, nu=1.0, alpha=1.0, g=g,
                        h=lambda x, y: 1.0, variant="P_I", flux_tol=1.0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed_point_solve(spec2)
        degen_ok = False
        degen_msg = "no error raised"
    except DegenerateInflow:
        degen_ok = True
        degen_msg = "DegenerateInflow raised"
    ok = flux_ok and degen_ok
    _report(8, "guard rails", ok, f"{flux_msg}; {degen_msg}")


def test_criterion_9_green_residual_order():
    case = mms.manufactured_case("trig", 1.0, 0.1)
    phi = lambda x, y: math.sin(x) * math.cos(y)
    gphi = lambda x, y: (math.cos(x) * math.cos(y),
                         -math.sin(x) * math.sin(y))
    errs = []
    for n in (8, 16, 32):
        mesh = meshes.unit_square_mesh(n)
        sp_ = spaces.build_spaces(mesh)
        u = spaces.interpolate(case.u, sp_.velocity)
        z = spaces.interpolate(case.z, sp_.vorticity)
        errs.append(transport.green_residual(z, u, phi, phi_grad=gphi))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.0
    _report(9, "Green identity defect decay", ok,
            f"residuals={['%.2e' % e for e in errs]}, orders={orders} (>=1)")


def test_criterion_10_gradient_transport_crosscheck():
    nu, alpha = 1.0, 0.5
    W = alpha / nu
    shear = 0.2  # max|grad u| = 0.2 <= 1/(2|W|) = 1
    gfun = lambda x, y: (1.0 + shear * math.sin(math.pi * y) / math.pi, 0.0)
    lfun = lambda x, y: math.sin(1.3 * x + 0.4) * math.cos(y)
    errs = []
    for n in (8, 16, 32):
        mesh = meshes.unit_square_mesh(n)
        sp_ = spaces.build_spaces(mesh)
        u = spaces.interpolate(gfun, sp_.velocity)
        part = meshes.classify_boundary(mesh, gfun, alpha)
        l = spaces.interpolate(lfun, sp_.vorticity)
        res = transport.solve_gradient_transport(u, W, l, part)
        datum = transport.build_inflow_datum(mesh, "P_II", lfun, gfun, part)
        z = transport.solve_transport(u, 1.0, W, l, datum, part)
        gz = spaces.scalar_cell_gradients(z)
        dx = spaces.scalar_cell_values(res.fx) - gz[:, 0][:, None]
        dy = spaces.scalar_cell_values(res.fy) - gz[:, 1][:, None]
        ctx = sp_.context
        errs.append(math.sqrt(
            float((ctx.cell_qweights * (dx * dx + dy * dy)).sum())))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 0.8 and errs[-1] < errs[0]
    _report(10, "gradient transport tracks the broken gradient", ok,
            f"||F - grad z|| = {['%.3e' % e for e in errs]}, "
            f"orders={orders} (>=0.8)")


SOLVE_CFG = """
[problem]
mesh = {mesh}
nu = 1.0
alpha = 0.1
variant = P_II

[data]
f_x = 0.2*sin(pi*y)
f_y = 0
g_x = 1
g_y = 0
h = sin(pi*y)
curl_f = -0.2*pi*cos(pi*y)

[output]
dir = {out}
"""


def test_criterion_11_deterministic_outputs(tmp_path):
    mesh_path = tmp_path / "m.m2d"
    meshes.save_mesh(meshes.unit_square_mesh(12), str(mesh_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SOLVE_CFG.format(mesh=str(mesh_path),
                                    out=str(tmp_path / "a")))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    assert cli.main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 0
    same = True
    names = ("fields.vtk", "iterations.csv", "diagnostics.csv")
    for name in names:
        same &= ((tmp_path / "a" / name).read_bytes()
                 == (tmp_path / "b" / name).read_bytes())
    _report(11, "byte-identical reruns", same,
            f"compared {', '.join(names)}")
