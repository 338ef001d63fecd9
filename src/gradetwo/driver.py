"""Coupling loop between the generalized Stokes and transport solvers.

The constructive iteration alternates the two sub-solves starting from a
zero vorticity guess: given z_n, solve the generalized Stokes problem for
(u_n, p_n), feed the transport right-hand side  nu*curl(u_n) + alpha*curl(f)
and the inflow datum back into the transport solve, and under-relax.  On
convergence one more Stokes solve pairs the velocity and pressure with the
converged vorticity.  Every Stokes solve after the first starts GMRES from
the previous (u, p); each call of :func:`fixed_point_solve` starts cold.
Only the fixed point must be accurate, so the loop's Stokes solves stop at
rtol = min(1e-10, max(1e-12, fp_tol/100)) of their right-hand side; the
pairing solve keeps 1e-12.  The cap keeps the weak divergence of u below
the transport's default check (at 1e-8 it tripped that check); the floor
is the pairing solve's tolerance, so fp_tol <= 1e-10 solves as before.

One solve pipeline is sequential; independent problem specs (continuation
points, probe starts) are safe to run concurrently since all shared
structures are read-only after setup.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import spaces as fes
from . import transport as trs
from .errors import DegenerateInflow, LinearSolveFailure, NotConverged
from .meshes import Mesh, classify_boundary, load_mesh
from .stokes import (
    PreparedStokes,
    prepare_generalized_stokes,
    solve_generalized_stokes,
    stokes_energy_report,
)

__all__ = [
    "ProblemSpec", "IterationReport", "DiagnosticsReport",
    "prepare", "fixed_point_solve", "navier_stokes_limit_study",
    "uniqueness_probe", "diagnostics", "LimitStudyRow",
]

_ZERO_SCALAR = lambda x, y: 0.0  # noqa: E731
_ZERO_VECTOR = lambda x, y: (0.0, 0.0)  # noqa: E731


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one coupled solve.

    ``mesh`` may be a loaded :class:`Mesh` or a path to the native format.
    ``f`` and ``g`` are vector callables, ``h`` the scalar inflow datum;
    all data callables receive coordinate arrays (see
    :func:`gradetwo.userdata.evaluate`; scalar-only callables are called
    per point instead).  ``curl_f`` is optional; when absent, the curl of the quadratic
    interpolant of f is used (exact for quadratic f, O(h^2)-consistent
    otherwise).
    """

    mesh: Mesh
    nu: float
    alpha: float
    f: Callable = _ZERO_VECTOR
    g: Callable = _ZERO_VECTOR
    h: Callable = _ZERO_SCALAR
    curl_f: Optional[Callable] = None
    variant: str = "P_II"
    fp_tol: float = 1e-8
    max_iter: int = 200
    relaxation: float = 1.0
    flux_tol: Optional[float] = None
    eps_n: Optional[float] = None
    div_tol: Optional[float] = None
    strict: bool = True

    def __post_init__(self):
        if isinstance(self.mesh, str):
            object.__setattr__(self, "mesh", load_mesh(self.mesh))
        if not (0.0 < self.nu < math.inf):
            raise ValueError("nu must be positive and finite")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError("relaxation must lie in (0, 1]")
        if self.variant not in ("P_I", "P_II"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.fp_tol < math.inf):
            raise ValueError("fp_tol must be positive and finite")
        for name in ("flux_tol", "div_tol"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        if self.eps_n is not None and not (0.0 <= self.eps_n < math.inf):
            raise ValueError("eps_n must be nonnegative and finite")

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


@dataclass
class IterationReport:
    """Per-iteration history of the coupling loop."""

    dz_l2: list = dc_field(default_factory=list)
    z_l2: list = dc_field(default_factory=list)
    u_h1: list = dc_field(default_factory=list)
    p_l2: list = dc_field(default_factory=list)
    z_h1_broken: list = dc_field(default_factory=list)
    stopping_reason: str = "max_iter"
    wall_time: float = 0.0

    @property
    def iterations(self):
        return len(self.dz_l2)

    @property
    def converged(self):
        return self.stopping_reason == "converged"


class _Setup(NamedTuple):
    spaces: fes.Spaces
    part: object
    datum: trs.InflowDatum
    curlf: fes.Field
    stokes: PreparedStokes


def _inflow(spec):
    """Boundary partition and inflow datum of ``spec``: the set-up work
    that depends on alpha."""
    part = classify_boundary(spec.mesh, spec.g, spec.alpha, spec.eps_n)
    interior_bad = part.interior_degeneracies()
    # P_I cannot divide by g.n there: build_inflow_datum raises below
    if interior_bad and spec.variant == "P_II":
        msg = ("normal boundary data vanishes strictly inside the inflow "
               f"boundary at vertices {list(interior_bad)}")
        if spec.strict:
            raise DegenerateInflow(msg + " (strict trace-variant mode)")
        warnings.warn(msg, stacklevel=4)
    datum = trs.build_inflow_datum(
        spec.mesh, spec.variant, spec.h, spec.g, part)
    return part, datum


def prepare(spec):
    """Spaces, boundary partition, inflow datum and prepared Stokes problem
    of ``spec``: the work that does not depend on z.  Pass the result as
    ``setup`` to :func:`fixed_point_solve` to reuse it."""
    spaces_ = fes.build_spaces(spec.mesh)
    part, datum = _inflow(spec)
    stokes_setup = prepare_generalized_stokes(
        spaces_, spec.nu, spec.f, spec.g, spec.flux_tol)
    if spec.curl_f is not None:
        curlf = fes.interpolate(spec.curl_f, spaces_.vorticity)
    else:
        f_interp = fes.interpolate(spec.f, spaces_.velocity)
        curlf = fes.curl_of_velocity(f_interp, spaces_.vorticity)
    return _Setup(spaces_, part, datum, curlf, stokes_setup)


def fixed_point_solve(spec, initial_z=None, setup=None):
    """Run the coupled iteration; returns (u, p, z, report).

    The loop stops when ||z_{n+1} - z_n|| <= fp_tol * (||z_n|| + 1).  Its
    Stokes solves run GMRES to min(1e-10, max(1e-12, fp_tol/100)) of their
    right-hand side: well below the increment the loop stops on, capped at
    1e-10 so the weak divergence of u stays inside the transport's default
    check, and floored at the 1e-12 that the final pairing solve keeps.  On
    failure (iteration cap, blow-up past 1e6 times the data scale, a
    residual that stops contracting, or a Stokes solve that fails on an
    iterate of the loop) the partial history is attached to the raised
    :class:`NotConverged`; data outside the smallness regime of the
    underlying fixed-point argument typically ends up there.
    """
    t0 = time.perf_counter()
    if setup is None:
        setup = prepare(spec)
    spaces_, part, datum, curlf, stokes_setup = setup
    vort = spaces_.vorticity
    if initial_z is None:
        z = vort.new_field()
    else:
        z = vort.new_field(np.asarray(initial_z.coefficients, dtype=float).copy())
    report = IterationReport()
    omega = spec.relaxation
    scale = None
    best_dz = np.inf
    u = p = None
    z_prev_norm = fes.norms(z).l2
    stokes_failure = ""
    loop_rtol = min(1e-10, max(1e-12, spec.fp_tol / 100.0))
    for _ in range(spec.max_iter):
        try:
            u, p = solve_generalized_stokes(
                stokes_setup, z, guess=None if u is None else (u, p),
                rtol=loop_rtol)
        except LinearSolveFailure as exc:
            if not report.iterations:  # the starting z is the caller's
                raise
            report.stopping_reason = "diverged"
            stokes_failure = f"; the Stokes solve failed on it ({exc})"
            break
        curl_u = fes.curl_of_velocity(u, vort)
        rhs = vort.new_field(
            spec.nu * curl_u.coefficients + spec.alpha * curlf.coefficients)
        z_raw = trs.solve_transport(
            u, spec.nu, spec.alpha, rhs, datum, part, div_tol=spec.div_tol)
        z_new = vort.new_field(
            omega * z_raw.coefficients + (1.0 - omega) * z.coefficients)
        dz = fes.norms(vort.new_field(
            z_new.coefficients - z.coefficients)).l2
        zn = fes.norms(z_new)
        report.dz_l2.append(dz)
        report.z_l2.append(zn.l2)
        report.u_h1.append(fes.norms(u).h1_semi)
        report.p_l2.append(fes.norms(p).l2)
        report.z_h1_broken.append(zn.h1_semi)
        z = z_new
        if scale is None:
            scale = max(1.0, zn.l2, datum.max_abs())
        if dz <= spec.fp_tol * (z_prev_norm + 1.0):
            report.stopping_reason = "converged"
            break
        if zn.l2 > 1e6 * scale:
            report.stopping_reason = "diverged"
            break
        if (report.iterations > 3 and dz > 10.0 * best_dz
                and dz > 10.0 * spec.fp_tol * (z_prev_norm + 1.0)):
            report.stopping_reason = "diverged"
            break
        best_dz = min(best_dz, dz)
        z_prev_norm = zn.l2
    report.wall_time = time.perf_counter() - t0
    if not report.converged:
        raise NotConverged(
            f"coupling loop stopped ({report.stopping_reason}) after "
            f"{report.iterations} iterations, last increment "
            f"{report.dz_l2[-1]:.3e}{stokes_failure}; the data may sit "
            "outside the small-data regime of the fixed-point argument",
            report=report)
    # pair (u, p) with the converged vorticity
    u, p = solve_generalized_stokes(stokes_setup, z, guess=(u, p))
    report.wall_time = time.perf_counter() - t0
    return u, p, z, report


class LimitStudyRow(NamedTuple):
    alpha: float
    err_u_h1: float
    err_z_l2: float
    iterations: int
    failed: bool
    message: str


def navier_stokes_limit_study(spec, alphas):
    """Distance of the coupled solution to its alpha=0 limit.

    Solves the alpha=0 problem once as the reference (there z equals the
    curl of the velocity), then |u_a - u_0|_H1 and ||z_a - curl u_0||_L2
    for each alpha in the given (decreasing) list.  Every row reuses the
    reference's spaces, prepared Stokes problem and curl f interpolant;
    only the boundary partition and the inflow datum depend on alpha.  A
    failed alpha is marked and does not abort the remaining rows.
    """
    ref_spec = spec.replace(alpha=0.0)
    setup0 = prepare(ref_spec)
    u0, _, z0, _ = fixed_point_solve(ref_spec, setup=setup0)
    vel = u0.space
    vort = z0.space
    rows = []
    for alpha in alphas:
        sub = spec.replace(alpha=float(alpha))
        try:
            part, datum = _inflow(sub)
            ua, _, za, rep = fixed_point_solve(
                sub, setup=setup0._replace(part=part, datum=datum))
            du = vel.new_field(ua.coefficients - u0.coefficients)
            dz = vort.new_field(za.coefficients - z0.coefficients)
            rows.append(LimitStudyRow(
                alpha=float(alpha),
                err_u_h1=fes.norms(du).h1_semi,
                err_z_l2=fes.norms(dz).l2,
                iterations=rep.iterations,
                failed=False,
                message=""))
        except Exception as exc:  # failed rows are reported, not fatal
            rows.append(LimitStudyRow(
                alpha=float(alpha), err_u_h1=float("nan"),
                err_z_l2=float("nan"), iterations=0,
                failed=True, message=f"{type(exc).__name__}: {exc}"))
    return rows


def uniqueness_probe(spec, n_starts, seed, start_scale=1.0):
    """Empirical uniqueness check by multi-start iteration.

    Runs the coupling loop from ``n_starts`` random initial vorticity
    fields of magnitude ``start_scale`` and returns the maximum pairwise
    relative L2 distance between the converged solutions.  A genuinely
    unique fixed point in the contraction regime yields values at the
    stopping-tolerance level.
    """
    if n_starts < 2:
        raise ValueError("n_starts must be >= 2 to compare solutions")
    setup = prepare(spec)
    vort = setup.spaces.vorticity
    rng = np.random.default_rng(seed)
    solutions = []
    for _ in range(n_starts):
        z0 = vort.new_field(
            start_scale * rng.standard_normal(vort.dof_count))
        _, _, z, _ = fixed_point_solve(spec, initial_z=z0, setup=setup)
        solutions.append(z)
    norm_scale = max(max(fes.norms(z).l2 for z in solutions), 1e-30)
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            d = vort.new_field(
                solutions[i].coefficients - solutions[j].coefficients)
            worst = max(worst, fes.norms(d).l2 / norm_scale)
    return worst


class DiagnosticsReport(NamedTuple):
    u_norms: fes.FieldNorms
    p_norms: fes.FieldNorms
    z_norms: fes.FieldNorms
    energy: object
    sign: trs.SignFunctionalReport
    green_residual: float
    beta: Optional[float]
    degenerate_points: tuple
    junctions: tuple


def diagnostics(u, p, z, spec, part):
    """Pure post-solve report: norms, energy balance, sign functional,
    Green-identity defect (with a fixed smooth test function), inflow
    speed reciprocal and degeneracy listing."""
    energy = stokes_energy_report(u, p, z, spec.f, spec.nu)
    sign = trs.sign_functional_report(z, u, spec.alpha)
    green = trs.green_residual(z, u, lambda x, y: x + y,
                               lambda x, y: (1.0, 1.0))
    return DiagnosticsReport(
        u_norms=fes.norms(u),
        p_norms=fes.norms(p),
        z_norms=fes.norms(z),
        energy=energy,
        sign=sign,
        green_residual=green,
        beta=part.beta,
        degenerate_points=part.degenerate_points,
        junctions=part.junctions,
    )
