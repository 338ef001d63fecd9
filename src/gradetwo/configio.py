"""Run configuration: flat sectioned key=value files.

Sections: ``[problem]`` names the mesh, constants and variant, ``[data]``
holds the expressions for f, g, h (see :mod:`gradetwo.exprlang` for the
grammar), ``[solver]`` the tolerances, ``[output]`` directory and formats.
Subcommand-specific sections ``[mms]`` and ``[transport]`` are read only by
the corresponding commands.  Unknown keys are rejected so typos fail fast.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from . import exprlang
from .driver import ProblemSpec
from .errors import GradeTwoError

__all__ = ["RunConfig", "ConfigError", "load_config"]


class ConfigError(GradeTwoError):
    """Malformed or inconsistent run configuration."""


_KNOWN = {
    "problem": {"mesh", "nu", "alpha", "variant"},
    "data": {"f_x", "f_y", "g_x", "g_y", "h", "curl_f"},
    "solver": {"fp_tol", "max_iter", "relaxation", "flux_tol", "eps_n",
               "strict", "div_tol"},
    "output": {"dir", "formats"},
    "mms": {"case", "levels", "mode", "variant"},
    "transport": {"u_x", "u_y", "rhs", "nu", "alpha"},
}


def _scalar_fn(text, where):
    try:
        ast = exprlang.parse(text)
    except exprlang.ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    def fn(x, y):
        try:
            return exprlang.evaluate(ast, x, y)
        except exprlang.DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return fn


def _vector_fn(text_x, text_y, where):
    fx = _scalar_fn(text_x, where + " (x component)")
    fy = _scalar_fn(text_y, where + " (y component)")
    return lambda x, y: (fx(x, y), fy(x, y))


@dataclass
class MmsOptions:
    case: str = "trig"
    levels: tuple = (8, 16, 32)
    mode: str = "coupled"
    variant: str = "P_II"


@dataclass
class TransportOptions:
    u: object = None
    rhs: object = None
    nu: float = 1.0
    alpha: float = 1.0


@dataclass
class RunConfig:
    """Parsed configuration; mirrors the solve inputs plus output options."""

    path: str
    mesh_path: Optional[str]
    nu: float
    alpha: float
    variant: str
    f: object
    g: object
    h: object
    curl_f: object
    fp_tol: float = 1e-8
    max_iter: int = 200
    relaxation: float = 1.0
    flux_tol: Optional[float] = None
    eps_n: Optional[float] = None
    div_tol: Optional[float] = None
    strict: bool = True
    out_dir: str = "out"
    formats: tuple = ("vtk", "csv")
    mms: MmsOptions = field(default_factory=MmsOptions)
    transport: TransportOptions = field(default_factory=TransportOptions)

    def problem_spec(self):
        if self.mesh_path is None:
            raise ConfigError("[problem] mesh is required for this command")
        return ProblemSpec(
            mesh=self.mesh_path, nu=self.nu, alpha=self.alpha,
            f=self.f, g=self.g, h=self.h, curl_f=self.curl_f,
            variant=self.variant, fp_tol=self.fp_tol,
            max_iter=self.max_iter, relaxation=self.relaxation,
            flux_tol=self.flux_tol, eps_n=self.eps_n, div_tol=self.div_tol,
            strict=self.strict)


def _finite(text, name, positive=False):
    """Parse a finite float, positive if asked; errors name ``name``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {text!r}")
    if positive and not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def load_config(path, require_mesh=True):
    """Parse and validate a config file into a :class:`RunConfig`."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default=None):
        if parser.has_option(section, key):
            value = parser.get(section, key).strip()
            return value if value else default
        return default

    mesh_path = get("problem", "mesh")
    if mesh_path is not None:
        mesh_path = os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), mesh_path))
        if not os.path.exists(mesh_path):
            raise ConfigError(f"mesh file not found: {mesh_path}")
    elif require_mesh:
        raise ConfigError("[problem] mesh is required")

    nu = _finite(get("problem", "nu", "1.0"), "[problem] nu", positive=True)
    alpha = _finite(get("problem", "alpha", "0.0"), "[problem] alpha")
    variant = get("problem", "variant", "P_II")
    if variant not in ("P_I", "P_II"):
        raise ConfigError(f"[problem] variant must be P_I or P_II, got {variant!r}")

    f = _vector_fn(get("data", "f_x", "0"), get("data", "f_y", "0"), "[data] f")
    g = _vector_fn(get("data", "g_x", "0"), get("data", "g_y", "0"), "[data] g")
    h = _scalar_fn(get("data", "h", "0"), "[data] h")
    curl_f_text = get("data", "curl_f")
    curl_f = _scalar_fn(curl_f_text, "[data] curl_f") if curl_f_text else None

    def fnum(key, default, positive=False):
        raw = get("solver", key, default)
        if raw is None:
            return None
        return _finite(raw, f"[solver] {key}", positive)

    fp_tol = fnum("fp_tol", "1e-8", positive=True)
    relaxation = fnum("relaxation", "1.0")
    if not (0.0 < relaxation <= 1.0):
        raise ConfigError("[solver] relaxation must lie in (0, 1]")
    flux_tol = fnum("flux_tol", None, positive=True)
    eps_n = fnum("eps_n", None)
    if eps_n is not None and eps_n < 0.0:
        raise ConfigError("[solver] eps_n must be nonnegative")
    div_tol = fnum("div_tol", None, positive=True)
    try:
        max_iter = int(get("solver", "max_iter", "200"))
    except ValueError as exc:
        raise ConfigError(f"bad integer in [solver]: {exc}") from exc
    if max_iter < 1:
        raise ConfigError("[solver] max_iter must be >= 1")
    strict_text = get("solver", "strict", "true").lower()
    if strict_text not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError("[solver] strict must be boolean")
    strict = strict_text in ("true", "1", "yes")

    out_dir = get("output", "dir", "out")
    formats = tuple(s.strip() for s in get("output", "formats", "vtk,csv").split(",")
                    if s.strip())
    for fmt in formats:
        if fmt not in ("vtk", "csv"):
            raise ConfigError(f"unknown output format {fmt!r}")

    mms_levels_text = get("mms", "levels", "8,16,32")
    try:
        levels = tuple(int(s) for s in mms_levels_text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad [mms] levels: {exc}") from exc
    mms = MmsOptions(
        case=get("mms", "case", "trig"),
        levels=levels,
        mode=get("mms", "mode", "coupled"),
        variant=get("mms", "variant", variant))

    transport = TransportOptions(
        u=_vector_fn(get("transport", "u_x", "0"),
                     get("transport", "u_y", "0"), "[transport] u"),
        rhs=_scalar_fn(get("transport", "rhs", "0"), "[transport] rhs"),
        nu=_finite(get("transport", "nu", str(nu)), "[transport] nu",
                   positive=True),
        alpha=_finite(get("transport", "alpha", str(alpha)),
                      "[transport] alpha"))

    return RunConfig(
        path=os.path.abspath(path), mesh_path=mesh_path, nu=nu, alpha=alpha,
        variant=variant, f=f, g=g, h=h, curl_f=curl_f, fp_tol=fp_tol,
        max_iter=max_iter, relaxation=relaxation, flux_tol=flux_tol,
        eps_n=eps_n, div_tol=div_tol, strict=strict, out_dir=out_dir,
        formats=formats, mms=mms, transport=transport)
