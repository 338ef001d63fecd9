"""Manufactured solutions and convergence studies.

Each case is defined by a stream function psi and a pressure p alone.  Both
are short sums of separable terms c*X(x)*Y(y) whose factors are numpy
polynomials or a*sin(pi t) + b*cos(pi t), so every partial derivative is
exact and every field follows from them:

    u = (psi_y, -psi_x)                 (divergence free by construction)
    z = curl(u - alpha*lap u) = -lap psi + alpha*lap^2 psi
    f = -nu*lap(u) + z x u + grad(p),   z x u = (-z*u2, z*u1)
    curl f = nu*lap^2 psi + u.grad z

The test suite cross-checks these fields against finite differences.

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

import numpy as np
from numpy.polynomial import Polynomial

from . import spaces as fes
from .driver import ProblemSpec, fixed_point_solve, inflow
from .meshes import unit_square_mesh
from .stokes import prepare_generalized_stokes, solve_generalized_stokes
from .transport import check_variant, solve_transport

__all__ = ["ManufacturedCase", "manufactured_case", "convergence_study",
           "StudyRow", "StudyResult", "CASE_NAMES"]


class _SinCos(NamedTuple):
    """The factor a*sin(pi t) + b*cos(pi t); its derivative has that form."""

    a: float
    b: float

    def deriv(self):
        return _SinCos(-np.pi * self.b, np.pi * self.a)

    def __call__(self, t):
        return self.a * np.sin(np.pi * t) + self.b * np.cos(np.pi * t)


class _Separable:
    """The sum of c*X(x)*Y(y) over ``terms`` (c, X, Y), where each factor
    is a numpy ``Polynomial`` or a :class:`_SinCos`."""

    def __init__(self, *terms):
        def derivatives(factor):  # orders 0 to 5
            out = [factor]
            for _ in range(5):
                out.append(out[-1].deriv())
            return out
        self._terms = [(c, derivatives(X), derivatives(Y)) for c, X, Y in terms]

    def partials(self, x, y, order):
        """{(i, j): d^(i+j)/dx^i dy^j at (x, y)} for i + j <= order, with
        x and y scalars or coordinate arrays."""
        vals = [(c, [X[i](x) for i in range(order + 1)],
                 [Y[j](y) for j in range(order + 1)])
                for c, X, Y in self._terms]
        return {(i, j): sum(c * X[i] * Y[j] for c, X, Y in vals)
                for i in range(order + 1) for j in range(order + 1 - i)}


_ONE = Polynomial([1.0])
_CUBE = Polynomial([0.0, 0.0, 0.0, 1.0])
_BUMP = Polynomial([0.0, 0.0, 1.0, -2.0, 1.0])  # t^2 (1 - t)^2
_SIN = _SinCos(1.0, 0.0)
_COS = _SinCos(0.0, 1.0)

# name: (psi, p, inflow marker on the unit square, its outer normal)
_CASES = {
    # psi = x^2 (1-x)^2 y^2 (1-y)^2, p = x^3 + y^3 - 1/2
    "poly": (_Separable((1.0, _BUMP, _BUMP)),
             _Separable((1.0, _CUBE, _ONE), (1.0, _ONE, _CUBE),
                        (-0.5, _ONE, _ONE)),
             None, (0.0, 0.0)),
    # psi = sin(pi x) sin(pi y)/pi - cos(pi x) cos(pi y)/pi^2 + y,
    # p = sin(pi x) cos(pi y); inflow (alpha > 0) is the left edge
    "trig": (_Separable((1.0 / np.pi, _SIN, _SIN),
                        (-1.0 / np.pi ** 2, _COS, _COS),
                        (1.0, _ONE, Polynomial([0.0, 1.0]))),
             _Separable((1.0, _SIN, _COS)),
             4, (-1.0, 0.0)),
}
CASE_NAMES = tuple(_CASES)


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

    def h_for(self, variant):
        return self.h_trace if variant == "P_II" else self.h_flux

    def problem_spec(self, mesh, variant="P_II", **kw):
        return ProblemSpec(
            mesh=mesh, nu=self.nu, alpha=self.alpha, f=self.f, g=self.u,
            h=self.h_for(variant), curl_f=self.curl_f, variant=variant, **kw)


def manufactured_case(name, nu, alpha):
    """Construct a registered case; raises ValueError on unknown names."""
    if not (0.0 < nu < np.inf):
        raise ValueError("nu must be positive and finite")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if name not in _CASES:
        raise ValueError(f"unknown manufactured case {name!r}; "
                         f"known cases: {', '.join(CASE_NAMES)}")
    psi, pressure, inflow_marker, (nx, ny) = _CASES[name]

    def lap(d, i=0, j=0):  # d^(i+j)/dx^i dy^j of lap psi
        return d[i + 2, j] + d[i, j + 2]

    def z_of(d, i=0, j=0):  # the same derivative of z
        return -lap(d, i, j) + alpha * (lap(d, i + 2, j) + lap(d, i, j + 2))

    def u(x, y):
        d = psi.partials(x, y, 1)
        return (d[0, 1], -d[1, 0])

    def grad_u(x, y):
        d = psi.partials(x, y, 2)
        return ((d[1, 1], d[0, 2]), (-d[2, 0], -d[1, 1]))

    def lap_u(x, y):
        d = psi.partials(x, y, 3)
        return (lap(d, 0, 1), -lap(d, 1, 0))

    def z(x, y):
        return z_of(psi.partials(x, y, 4))

    def p(x, y):
        return pressure.partials(x, y, 0)[0, 0]

    def grad_p(x, y):
        d = pressure.partials(x, y, 1)
        return (d[1, 0], d[0, 1])

    def f(x, y):
        d = psi.partials(x, y, 4)
        zv = z_of(d)
        dpx, dpy = grad_p(x, y)
        return (-nu * lap(d, 0, 1) + zv * d[1, 0] + dpx,
                nu * lap(d, 1, 0) + zv * d[0, 1] + dpy)

    def curl_f(x, y):
        d = psi.partials(x, y, 5)
        return (nu * (lap(d, 2, 0) + lap(d, 0, 2))
                + d[0, 1] * z_of(d, 1, 0) - d[1, 0] * z_of(d, 0, 1))

    def h_flux(x, y):
        u1, u2 = u(x, y)
        return z(x, y) * (u1 * nx + u2 * ny)

    return ManufacturedCase(
        name=name, nu=nu, alpha=alpha, u=u, grad_u=grad_u, lap_u=lap_u,
        p=p, grad_p=grad_p, z=z, f=f, curl_f=curl_f,
        h_trace=z, h_flux=h_flux, inflow_marker=inflow_marker)


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
    and the inflow datum of :func:`gradetwo.driver.inflow` (so its
    ``strict`` rule applies) and measures the scalar error only.  Requires
    at least three nested sizes, a known ``mode`` and a known ``variant``
    (else ``ValueError``, before any solve); failures mark their row and do
    not abort the study.
    """
    ns = [int(n) for n in ns]
    if len(ns) < 3:
        raise ValueError("need at least three mesh sizes")
    for a, b in zip(ns, ns[1:]):
        if b <= a or b % a != 0:
            raise ValueError("mesh sizes must be strictly nested refinements")
    if mode not in ("coupled", "stokes", "transport"):
        raise ValueError(f"unknown study mode {mode!r}")
    check_variant(variant)
    rows = []
    for n in ns:
        mesh = unit_square_mesh(n)
        try:
            iterations = 0
            if mode == "coupled":
                spec = case.problem_spec(mesh, variant=variant,
                                         fp_tol=fp_tol, max_iter=max_iter)
                u, p, z, rep = fixed_point_solve(spec)
                iterations = rep.iterations
            elif mode == "stokes":
                spaces_ = fes.build_spaces(mesh)
                z = fes.interpolate(case.z, spaces_.vorticity)
                u, p = solve_generalized_stokes(prepare_generalized_stokes(
                    spaces_, case.nu, case.f, case.u), z)
            else:
                spaces_ = fes.build_spaces(mesh)
                u = fes.interpolate(case.u, spaces_.velocity)
                p = fes.interpolate(case.p, spaces_.pressure)
                part, datum = inflow(case.problem_spec(mesh, variant=variant))
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
