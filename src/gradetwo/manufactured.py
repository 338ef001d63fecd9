"""Manufactured solutions and convergence studies.

Each case fixes a divergence-free velocity (built from a stream function),
a zero-mean pressure, the induced auxiliary field z = curl(u - alpha*lap u)
and the body force that makes the momentum equation hold exactly:

    f = -nu*lap(u) + z x u + grad(p).

The closed forms below were derived offline by ``scripts/derive_forcings.py``
(sympy) and are hard-coded so that the package itself stays free of symbolic
dependencies; the test suite cross-checks them against finite differences.

Cases
-----
poly
    Stream function x^2(1-x)^2 y^2(1-y)^2: velocity vanishes on the whole
    boundary of the unit square, so the inflow set is empty and the problem
    sits in the tangential-data regime.
trig
    Trigonometric flow with a uniform crossflow component: the left edge of
    the unit square is the inflow part for alpha > 0 (g.n = -1 - sin(pi y)/pi
    there, bounded away from zero), the right edge is outflow, top and
    bottom carry no normal flow.  The z trace on the left edge is nonzero,
    so both boundary-condition variants are exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import spaces as fes
from .driver import ProblemSpec, fixed_point_solve
from .meshes import classify_boundary, unit_square_mesh
from .stokes import prepare_generalized_stokes, solve_generalized_stokes
from .transport import build_inflow_datum, solve_transport

__all__ = ["ManufacturedCase", "manufactured_case", "convergence_study",
           "StudyRow", "StudyResult", "CASE_NAMES"]

_PI = math.pi
_SIN = math.sin
_COS = math.cos


# ---- trig case pieces -------------------------------------------------------

def _trig_u1(x, y):
    return _SIN(_PI * x) * _COS(_PI * y) + _COS(_PI * x) * _SIN(_PI * y) / _PI + 1.0


def _trig_u2(x, y):
    return -_COS(_PI * x) * _SIN(_PI * y) - _SIN(_PI * x) * _COS(_PI * y) / _PI


def _trig_grad_u(x, y):
    sx, cx = _SIN(_PI * x), _COS(_PI * x)
    sy, cy = _SIN(_PI * y), _COS(_PI * y)
    du1dx = -sx * sy + _PI * cx * cy
    du1dy = -_PI * sx * sy + cx * cy
    du2dx = _PI * sx * sy - cx * cy
    du2dy = sx * sy - _PI * cx * cy
    return ((du1dx, du1dy), (du2dx, du2dy))


def _trig_lap_u(x, y):
    sx, cx = _SIN(_PI * x), _COS(_PI * x)
    sy, cy = _SIN(_PI * y), _COS(_PI * y)
    return (-2.0 * _PI * (_PI * sx * cy + cx * sy),
            2.0 * _PI * (sx * cy + _PI * cx * sy))


def _trig_p(x, y):
    return _SIN(_PI * x) * _COS(_PI * y)


def _trig_grad_p(x, y):
    return (_PI * _COS(_PI * x) * _COS(_PI * y),
            -_PI * _SIN(_PI * x) * _SIN(_PI * y))


def _trig_z(x, y, alpha):
    return (1.0 + 2.0 * alpha * _PI ** 2) * (
        2.0 * _PI * _SIN(_PI * x) * _SIN(_PI * y)
        - 2.0 * _COS(_PI * x) * _COS(_PI * y))


def _trig_curl_f(x, y, nu, alpha):
    sx, cx = _SIN(_PI * x), _COS(_PI * x)
    sy, cy = _SIN(_PI * y), _COS(_PI * y)
    return 2.0 * _PI * (2.0 * _PI ** 2 * alpha * sx * cy
                        + 2.0 * _PI ** 3 * alpha * cx * sy
                        + 2.0 * _PI ** 2 * nu * sx * sy
                        - 2.0 * _PI * nu * cx * cy
                        + sx * cy + _PI * cx * sy)


# ---- poly case pieces -------------------------------------------------------

def _poly_u1(x, y):
    return 2.0 * x ** 2 * y * (2 * x ** 2 * y ** 2 - 3 * x ** 2 * y + x ** 2
                               - 4 * x * y ** 2 + 6 * x * y - 2 * x
                               + 2 * y ** 2 - 3 * y + 1)


def _poly_u2(x, y):
    return 2.0 * x * y ** 2 * (-2 * x ** 2 * y ** 2 + 4 * x ** 2 * y
                               - 2 * x ** 2 + 3 * x * y ** 2 - 6 * x * y
                               + 3 * x - y ** 2 + 2 * y - 1)


def _poly_grad_u(x, y):
    du1dx = 4 * x * y * (4 * x ** 2 * y ** 2 - 6 * x ** 2 * y + 2 * x ** 2
                         - 6 * x * y ** 2 + 9 * x * y - 3 * x
                         + 2 * y ** 2 - 3 * y + 1)
    du1dy = 2 * x ** 2 * (6 * x ** 2 * y ** 2 - 6 * x ** 2 * y + x ** 2
                          - 12 * x * y ** 2 + 12 * x * y - 2 * x
                          + 6 * y ** 2 - 6 * y + 1)
    du2dx = 2 * y ** 2 * (-6 * x ** 2 * y ** 2 + 12 * x ** 2 * y - 6 * x ** 2
                          + 6 * x * y ** 2 - 12 * x * y + 6 * x
                          - y ** 2 + 2 * y - 1)
    du2dy = 4 * x * y * (-4 * x ** 2 * y ** 2 + 6 * x ** 2 * y - 2 * x ** 2
                         + 6 * x * y ** 2 - 9 * x * y + 3 * x
                         - 2 * y ** 2 + 3 * y - 1)
    return ((du1dx, du1dy), (du2dx, du2dy))


def _poly_lap_u(x, y):
    l1 = (24 * x ** 4 * y - 12 * x ** 4 - 48 * x ** 3 * y + 24 * x ** 3
          + 48 * x ** 2 * y ** 3 - 72 * x ** 2 * y ** 2 + 48 * x ** 2 * y
          - 12 * x ** 2 - 48 * x * y ** 3 + 72 * x * y ** 2 - 24 * x * y
          + 8 * y ** 3 - 12 * y ** 2 + 4 * y)
    l2 = (-48 * x ** 3 * y ** 2 + 48 * x ** 3 * y - 8 * x ** 3
          + 72 * x ** 2 * y ** 2 - 72 * x ** 2 * y + 12 * x ** 2
          - 24 * x * y ** 4 + 48 * x * y ** 3 - 48 * x * y ** 2
          + 24 * x * y - 4 * x + 12 * y ** 4 - 24 * y ** 3 + 12 * y ** 2)
    return (l1, l2)


def _poly_p(x, y):
    return x ** 3 + y ** 3 - 0.5


def _poly_grad_p(x, y):
    return (3.0 * x ** 2, 3.0 * y ** 2)


def _poly_z(x, y, alpha):
    za = (24 * x ** 4 - 48 * x ** 3 + 288 * x ** 2 * y ** 2
          - 288 * x ** 2 * y + 72 * x ** 2 - 288 * x * y ** 2
          + 288 * x * y - 48 * x + 24 * y ** 4 - 48 * y ** 3
          + 72 * y ** 2 - 48 * y + 8)
    z0 = (-12 * x ** 4 * y ** 2 + 12 * x ** 4 * y - 2 * x ** 4
          + 24 * x ** 3 * y ** 2 - 24 * x ** 3 * y + 4 * x ** 3
          - 12 * x ** 2 * y ** 4 + 24 * x ** 2 * y ** 3
          - 24 * x ** 2 * y ** 2 + 12 * x ** 2 * y - 2 * x ** 2
          + 12 * x * y ** 4 - 24 * x * y ** 3 + 12 * x * y ** 2
          - 2 * y ** 4 + 4 * y ** 3 - 2 * y ** 2)
    return alpha * za + z0


def _poly_curl_f(x, y, nu, alpha):
    ca = (384 * x ** 7 * y ** 3 - 576 * x ** 7 * y ** 2 + 192 * x ** 7 * y
          - 1344 * x ** 6 * y ** 3 + 2016 * x ** 6 * y ** 2 - 672 * x ** 6 * y
          + 2112 * x ** 5 * y ** 3 - 3168 * x ** 5 * y ** 2 + 1056 * x ** 5 * y
          - 1920 * x ** 4 * y ** 3 + 2880 * x ** 4 * y ** 2 - 960 * x ** 4 * y
          - 384 * x ** 3 * y ** 7 + 1344 * x ** 3 * y ** 6
          - 2112 * x ** 3 * y ** 5 + 1920 * x ** 3 * y ** 4
          - 1248 * x ** 3 * y ** 2 + 480 * x ** 3 * y
          + 576 * x ** 2 * y ** 7 - 2016 * x ** 2 * y ** 6
          + 3168 * x ** 2 * y ** 5 - 2880 * x ** 2 * y ** 4
          + 1248 * x ** 2 * y ** 3 - 96 * x ** 2 * y
          - 192 * x * y ** 7 + 672 * x * y ** 6 - 1056 * x * y ** 5
          + 960 * x * y ** 4 - 480 * x * y ** 3 + 96 * x * y ** 2)
    cn = (24 * x ** 4 - 48 * x ** 3 + 288 * x ** 2 * y ** 2
          - 288 * x ** 2 * y + 72 * x ** 2 - 288 * x * y ** 2
          + 288 * x * y - 48 * x + 24 * y ** 4 - 48 * y ** 3
          + 72 * y ** 2 - 48 * y + 8)
    c0 = (-96 * x ** 7 * y ** 5 + 240 * x ** 7 * y ** 4 - 224 * x ** 7 * y ** 3
          + 96 * x ** 7 * y ** 2 - 16 * x ** 7 * y + 336 * x ** 6 * y ** 5
          - 840 * x ** 6 * y ** 4 + 784 * x ** 6 * y ** 3
          - 336 * x ** 6 * y ** 2 + 56 * x ** 6 * y + 96 * x ** 5 * y ** 7
          - 336 * x ** 5 * y ** 6 + 840 * x ** 5 * y ** 4
          - 960 * x ** 5 * y ** 3 + 432 * x ** 5 * y ** 2 - 72 * x ** 5 * y
          - 240 * x ** 4 * y ** 7 + 840 * x ** 4 * y ** 6
          - 840 * x ** 4 * y ** 5 + 440 * x ** 4 * y ** 3
          - 240 * x ** 4 * y ** 2 + 40 * x ** 4 * y + 224 * x ** 3 * y ** 7
          - 784 * x ** 3 * y ** 6 + 960 * x ** 3 * y ** 5
          - 440 * x ** 3 * y ** 4 + 48 * x ** 3 * y ** 2 - 8 * x ** 3 * y
          - 96 * x ** 2 * y ** 7 + 336 * x ** 2 * y ** 6
          - 432 * x ** 2 * y ** 5 + 240 * x ** 2 * y ** 4
          - 48 * x ** 2 * y ** 3 + 16 * x * y ** 7 - 56 * x * y ** 6
          + 72 * x * y ** 5 - 40 * x * y ** 4 + 8 * x * y ** 3)
    return alpha * ca + nu * cn + c0


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution bundle for one (name, nu, alpha) combination.

    ``h_trace`` is the z trace (trace-variant datum) and ``h_flux`` the
    normal flux (z g).n (flux-variant datum); both are only meaningful on
    the inflow portion of the boundary.  ``inflow_marker`` names the mesh
    marker of that portion on the unit-square family (None when empty).
    """

    name: str
    nu: float
    alpha: float
    u: Callable
    grad_u: Callable
    lap_u: Callable
    p: Callable
    grad_p: Callable
    z: Callable
    f: Callable
    curl_f: Callable
    h_trace: Callable
    h_flux: Callable
    inflow_marker: Optional[int]

    def g(self, x, y):
        return self.u(x, y)

    def h_for(self, variant):
        return self.h_trace if variant == "P_II" else self.h_flux

    def problem_spec(self, mesh, variant="P_II", **kw):
        return ProblemSpec(
            mesh=mesh, nu=self.nu, alpha=self.alpha, f=self.f, g=self.u,
            h=self.h_for(variant), curl_f=self.curl_f, variant=variant, **kw)


def _compose(name, nu, alpha, u1, u2, grad_u, lap_u, p, grad_p, z_of, curl_f,
             inflow_marker, inflow_normal):
    def u(x, y):
        return (u1(x, y), u2(x, y))

    def z(x, y):
        return z_of(x, y, alpha)

    def f(x, y):
        l1, l2 = lap_u(x, y)
        dpx, dpy = grad_p(x, y)
        zv = z_of(x, y, alpha)
        return (-nu * l1 - zv * u2(x, y) + dpx,
                -nu * l2 + zv * u1(x, y) + dpy)

    def curlf(x, y):
        return curl_f(x, y, nu, alpha)

    def h_trace(x, y):
        return z_of(x, y, alpha)

    nx, ny = inflow_normal

    def h_flux(x, y):
        return z_of(x, y, alpha) * (u1(x, y) * nx + u2(x, y) * ny)

    return ManufacturedCase(
        name=name, nu=nu, alpha=alpha, u=u, grad_u=grad_u, lap_u=lap_u,
        p=p, grad_p=grad_p, z=z, f=f, curl_f=curlf,
        h_trace=h_trace, h_flux=h_flux, inflow_marker=inflow_marker)


CASE_NAMES = ("poly", "trig")


def manufactured_case(name, nu, alpha):
    """Construct a registered case; raises ValueError on unknown names."""
    if not (nu > 0.0):
        raise ValueError("nu must be positive")
    if name == "trig":
        # inflow (alpha > 0) is the left edge of the unit square, n = (-1, 0)
        return _compose("trig", nu, alpha, _trig_u1, _trig_u2, _trig_grad_u,
                        _trig_lap_u, _trig_p, _trig_grad_p, _trig_z,
                        _trig_curl_f, inflow_marker=4, inflow_normal=(-1.0, 0.0))
    if name == "poly":
        return _compose("poly", nu, alpha, _poly_u1, _poly_u2, _poly_grad_u,
                        _poly_lap_u, _poly_p, _poly_grad_p, _poly_z,
                        _poly_curl_f, inflow_marker=None, inflow_normal=(0.0, 0.0))
    raise ValueError(f"unknown manufactured case {name!r}; "
                     f"known cases: {', '.join(CASE_NAMES)}")


class StudyRow(NamedTuple):
    n: int
    h: float
    err_u_l2: float
    err_u_h1: float
    err_p_l2: float
    err_z_l2: float
    iterations: int
    failed: bool
    message: str


class StudyResult(NamedTuple):
    case: str
    mode: str
    variant: str
    rows: tuple
    orders: tuple  # one entry per consecutive row pair, same field layout


_ERR_FIELDS = ("err_u_l2", "err_u_h1", "err_p_l2", "err_z_l2")


def _observed_orders(rows):
    orders = []
    for a, b in zip(rows, rows[1:]):
        if a.failed or b.failed:
            orders.append({k: float("nan") for k in _ERR_FIELDS})
            continue
        ratio = math.log(a.h / b.h)
        entry = {}
        for k in _ERR_FIELDS:
            ea, eb = getattr(a, k), getattr(b, k)
            if ea > 0.0 and eb > 0.0:
                entry[k] = math.log(ea / eb) / ratio
            else:
                entry[k] = float("nan")
        orders.append(entry)
    return tuple(orders)


def convergence_study(case, ns, variant="P_II", mode="coupled",
                      fp_tol=1e-10, max_iter=200):
    """Refinement study on the unit-square mesh family, h = 1/n.

    ``mode`` selects the solve: "coupled" runs the full fixed point,
    "stokes" supplies the exact z as coefficient and solves the saddle
    problem only, "transport" advects with the interpolated exact velocity
    and measures the scalar error only.  Requires at least three nested
    sizes; failures mark their row and do not abort the study.
    """
    ns = [int(n) for n in ns]
    if len(ns) < 3:
        raise ValueError("need at least three mesh sizes")
    for a, b in zip(ns, ns[1:]):
        if b <= a or b % a != 0:
            raise ValueError("mesh sizes must be strictly nested refinements")
    if mode not in ("coupled", "stokes", "transport"):
        raise ValueError(f"unknown study mode {mode!r}")
    rows = []
    for n in ns:
        mesh = unit_square_mesh(n)
        spaces_ = fes.build_spaces(mesh)
        try:
            iterations = 0
            if mode == "coupled":
                spec = case.problem_spec(mesh, variant=variant,
                                         fp_tol=fp_tol, max_iter=max_iter)
                u, p, z, rep = fixed_point_solve(spec)
                iterations = rep.iterations
            elif mode == "stokes":
                z = fes.interpolate(case.z, spaces_.vorticity)
                u, p = solve_generalized_stokes(prepare_generalized_stokes(
                    spaces_, case.nu, case.f, case.u), z)
            else:
                u = fes.interpolate(case.u, spaces_.velocity)
                p = fes.interpolate(case.p, spaces_.pressure)
                part = classify_boundary(mesh, case.u, case.alpha)
                datum = build_inflow_datum(
                    mesh, variant, case.h_for(variant), case.u, part)
                curl_u = fes.curl_of_velocity(u, spaces_.vorticity)
                curlf = fes.interpolate(case.curl_f, spaces_.vorticity)
                rhs = spaces_.vorticity.new_field(
                    case.nu * curl_u.coefficients
                    + case.alpha * curlf.coefficients)
                z = solve_transport(u, case.nu, case.alpha, rhs, datum, part)
            rows.append(StudyRow(
                n=n, h=1.0 / n,
                err_u_l2=fes.error_l2(u, case.u),
                err_u_h1=fes.error_h1(u, case.grad_u),
                err_p_l2=fes.error_l2(p, case.p),
                err_z_l2=fes.error_l2(z, case.z),
                iterations=iterations, failed=False, message=""))
        except Exception as exc:
            rows.append(StudyRow(
                n=n, h=1.0 / n, err_u_l2=float("nan"),
                err_u_h1=float("nan"), err_p_l2=float("nan"),
                err_z_l2=float("nan"), iterations=0, failed=True,
                message=f"{type(exc).__name__}: {exc}"))
    rows = tuple(rows)
    return StudyResult(case.name, mode, variant, rows, _observed_orders(rows))
