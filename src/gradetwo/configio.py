"""Run configuration: flat sectioned key=value files.

Sections: ``[problem]`` names the mesh, constants and variant, ``[data]``
holds the expressions for f, g, h (see :mod:`gradetwo.exprlang` for the
grammar), ``[solver]`` the tolerances, ``[output]`` directory and formats.
Subcommand-specific sections ``[mms]`` and ``[transport]`` are read only by
the corresponding commands.  Unknown keys are rejected so typos fail fast.

Loading parses: number, integer and boolean syntax and the expressions.
The ranges of the ``[problem]`` and ``[solver]`` values are checked once,
by :class:`gradetwo.driver.ProblemSpec`, whose ``ValueError`` comes back
as a :class:`ConfigError` naming the ``[section] key``.  Every command
reads that one spec (``mms`` its variant and ``[solver]`` options).
"""

from __future__ import annotations

import configparser
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
    "mms": {"case", "levels", "mode"},
    "transport": {"u_x", "u_y", "rhs"},
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


@dataclass
class TransportOptions:
    u: object = None
    rhs: object = None


@dataclass
class RunConfig:
    """Parsed configuration: the problem as a :class:`ProblemSpec` whose
    mesh stays unset (see :meth:`problem_spec`), plus output options and
    the ``[mms]`` and ``[transport]`` sections."""

    mesh_path: Optional[str]
    spec: ProblemSpec
    out_dir: str = "out"
    formats: tuple = ("vtk", "csv")
    mms: MmsOptions = field(default_factory=MmsOptions)
    transport: TransportOptions = field(default_factory=TransportOptions)

    def problem_spec(self):
        """``spec`` with the mesh loaded from ``mesh_path``."""
        if self.mesh_path is None:
            raise ConfigError("[problem] mesh is required for this command")
        return self.spec.replace(mesh=self.mesh_path)


def load_config(path, require_mesh=True):
    """Parse a config file into a :class:`RunConfig`; raises
    :class:`ConfigError` on malformed text or an out-of-range value."""
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

    f = _vector_fn(get("data", "f_x", "0"), get("data", "f_y", "0"), "[data] f")
    g = _vector_fn(get("data", "g_x", "0"), get("data", "g_y", "0"), "[data] g")
    h = _scalar_fn(get("data", "h", "0"), "[data] h")
    curl_f_text = get("data", "curl_f")
    curl_f = _scalar_fn(curl_f_text, "[data] curl_f") if curl_f_text else None

    def number(section, key, default, kind=float):
        raw = get(section, key, default)
        try:
            return None if raw is None else kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"[{section}] {key} must be {what}, got {raw!r}") from None

    strict_text = get("solver", "strict", "true").lower()
    if strict_text not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError("[solver] strict must be boolean")
    try:
        spec = ProblemSpec(
            mesh=None, nu=number("problem", "nu", "1.0"),
            alpha=number("problem", "alpha", "0.0"),
            variant=get("problem", "variant", "P_II"), f=f, g=g, h=h,
            curl_f=curl_f, fp_tol=number("solver", "fp_tol", "1e-8"),
            max_iter=number("solver", "max_iter", "200", int),
            relaxation=number("solver", "relaxation", "1.0"),
            flux_tol=number("solver", "flux_tol", None),
            eps_n=number("solver", "eps_n", None),
            div_tol=number("solver", "div_tol", None),
            strict=strict_text in ("true", "1", "yes"))
    except ValueError as exc:  # its message starts with the key
        key = str(exc).split()[0]
        section = "problem" if key in _KNOWN["problem"] else "solver"
        raise ConfigError(f"[{section}] {exc}") from None

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
        mode=get("mms", "mode", "coupled"))

    transport = TransportOptions(
        u=_vector_fn(get("transport", "u_x", "0"),
                     get("transport", "u_y", "0"), "[transport] u"),
        rhs=_scalar_fn(get("transport", "rhs", "0"), "[transport] rhs"))

    return RunConfig(mesh_path=mesh_path, spec=spec, out_dir=out_dir,
                     formats=formats, mms=mms, transport=transport)
