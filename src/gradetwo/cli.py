"""Command line entry points.

Subcommands: ``solve`` runs the coupled iteration and exports fields and
reports, ``mms`` runs a manufactured-solution refinement study, ``check-boundary``
prints the inflow/outflow analysis of the boundary data, ``transport``
solves a single transport problem with a prescribed velocity.

Exit codes: 0 on success, 2 when the coupling iteration stops without
converging (for ``mms``: when any level fails; its table is still
written), 1 on any input error (bad config, mesh, incompatible fluxes,
degenerate inflow data).  All file outputs are byte-reproducible for a
fixed config; wall times go to stdout only.  The environment variable
``GRADE2_THREADS`` caps the thread pools of the underlying linear algebra;
the package applies it on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from . import spaces as fes
from . import transport as trs
from .configio import load_config
from .driver import diagnostics, fixed_point_solve, inflow, prepare
from .errors import GradeTwoError, NotConverged
from .manufactured import convergence_study, manufactured_case
from .meshes import classify_boundary, flux_per_component
from .vtkio import write_vtk

__all__ = ["main"]

_CSV_VERSION = "gradetwo-csv v1"


def _fix_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds (1 and 2 MiB) for the process.

    glibc raises both to the largest block freed so far, so after the first
    sparse factorisation how much freed memory stays mapped, and so the peak,
    depends on the heap layout and varies from run to run.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(-1, 2 << 20)  # M_TRIM_THRESHOLD
            mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, schema, header, rows):
    lines = [f"# {_CSV_VERSION} {schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _iteration_rows(report):
    rows = []
    for i in range(report.iterations):
        rows.append((i + 1, report.dz_l2[i], report.z_l2[i],
                     report.u_h1[i], report.p_l2[i], report.z_h1_broken[i]))
    return rows


_ITER_HEADER = ("iter", "dz_l2", "z_l2", "u_h1", "p_l2", "z_h1_broken")


def cmd_solve(cfg, out_dir):
    spec = cfg.problem_spec()
    mesh = spec.mesh
    setup = prepare(spec)
    try:
        u, p, z, report = fixed_point_solve(spec, setup=setup)
    except NotConverged as exc:
        if exc.report is not None and "csv" in cfg.formats:
            _write_csv(os.path.join(out_dir, "iterations.csv"),
                       "iterations", _ITER_HEADER,
                       _iteration_rows(exc.report))
        print(f"not converged: {exc}")
        return 2
    diag = diagnostics(u, p, z, spec, setup.part)
    if "vtk" in cfg.formats:
        write_vtk(os.path.join(out_dir, "fields.vtk"), mesh,
                  velocity=u, pressure=p, vorticity=z)
    if "csv" in cfg.formats:
        _write_csv(os.path.join(out_dir, "iterations.csv"), "iterations",
                   _ITER_HEADER, _iteration_rows(report))
        rows = [
            ("u_l2", diag.u_norms.l2),
            ("u_h1", diag.u_norms.h1_semi),
            ("u_linf_dof", diag.u_norms.linf_dof),
            ("p_l2", diag.p_norms.l2),
            ("z_l2", diag.z_norms.l2),
            ("z_h1_broken", diag.z_norms.h1_semi),
            ("energy_viscous", diag.energy.viscous),
            ("energy_forcing", diag.energy.forcing),
            ("energy_balance_gap", diag.energy.balance_gap),
            ("div_weak_l2", diag.energy.div_weak_l2),
            ("div_broken_l2", diag.energy.div_broken_l2),
            ("sign_interior_jumps", diag.sign.interior_jumps),
            ("sign_outflow", diag.sign.outflow),
            ("sign_inflow", diag.sign.inflow),
            ("sign_central_flux", diag.sign.central_flux),
            ("sign_total", diag.sign.total),
            ("green_residual", diag.green_residual),
            ("beta", "" if diag.beta is None else diag.beta),
            ("degenerate_points",
             ";".join(str(v) for v in diag.degenerate_points)),
            ("junctions", ";".join(str(v) for v in diag.junctions)),
            ("iterations", report.iterations),
            ("stopping_reason", report.stopping_reason),
        ]
        _write_csv(os.path.join(out_dir, "diagnostics.csv"), "diagnostics",
                   ("key", "value"), rows)
    print(f"converged in {report.iterations} iterations "
          f"(wall time {report.wall_time:.3f} s); outputs in {out_dir}")
    return 0


def cmd_mms(cfg, out_dir):
    case = manufactured_case(cfg.mms.case, cfg.spec.nu, cfg.spec.alpha)
    options = {key: getattr(cfg.spec, key) for key in (
        "variant", "fp_tol", "max_iter", "relaxation", "flux_tol", "eps_n",
        "div_tol", "strict")}
    study = convergence_study(case, cfg.mms.levels, mode=cfg.mms.mode,
                              **options)
    header = ("kind", "n", "h", "err_u_l2", "err_u_h1", "err_p_l2",
              "err_z_l2", "iterations", "failed", "message")
    rows = []
    for r in study.rows:
        rows.append(("level", r.n, r.h, r.err_u_l2, r.err_u_h1,
                     r.err_p_l2, r.err_z_l2, r.iterations, r.failed,
                     r.message))
    for (a, b), order in zip(zip(study.rows, study.rows[1:]), study.orders):
        rows.append(("order", f"{a.n}->{b.n}", "",
                     order["err_u_l2"], order["err_u_h1"],
                     order["err_p_l2"], order["err_z_l2"], "", "", ""))
    if "csv" in cfg.formats:
        _write_csv(os.path.join(out_dir, "convergence.csv"), "convergence",
                   header, rows)
    failed = [r.n for r in study.rows if r.failed]
    if failed:
        print(f"study finished with failed levels: {failed}")
        return 2
    print(f"study finished: {len(study.rows)} levels, tables in {out_dir}")
    return 0


def cmd_check_boundary(cfg, out_dir):
    spec = cfg.problem_spec()
    mesh = spec.mesh
    part = classify_boundary(mesh, spec.g, spec.alpha, spec.eps_n)
    fluxes = flux_per_component(mesh, spec.g).net
    print(f"boundary edges: {mesh.num_boundary_edges} in {len(fluxes)} "
          "component(s)")
    if part.gamma_minus:
        markers = sorted({int(mesh.boundary_markers[b])
                          for b in part.gamma_minus})
        print(f"gamma_minus: {len(part.gamma_minus)} edge(s), "
              f"markers {markers}")
    else:
        print("gamma_minus: empty (no inflow portion for this data)")
    print(f"gamma_zero_plus: {len(part.gamma_zero_plus)} edge(s)")
    print(f"junctions: {list(part.junctions)}")
    if part.degenerate_points:
        print("warning: g.n degenerates at vertices "
              f"{list(part.degenerate_points)} of the inflow closure")
        interior = part.interior_degeneracies()
        if interior:
            print("warning: degeneracies strictly inside the inflow "
                  f"boundary at {list(interior)}")
    else:
        print("degenerate points: none")
    print("beta: " + ("absent" if part.beta is None else repr(part.beta)))
    for i, flux in enumerate(fluxes):
        print(f"flux[component {i}] = {flux!r}")
    return 0


def cmd_transport(cfg, out_dir):
    opts = cfg.transport
    spec = cfg.problem_spec().replace(g=opts.u)
    mesh = spec.mesh
    spaces_ = fes.build_spaces(mesh)
    u = fes.interpolate(opts.u, spaces_.velocity)
    part, datum = inflow(spec)
    rhs = fes.interpolate(opts.rhs, spaces_.vorticity)
    z = trs.solve_transport(u, spec.nu, spec.alpha, rhs, datum, part,
                            div_tol=spec.div_tol)
    sign = trs.sign_functional_report(z, u, spec.alpha)
    zn = fes.norms(z)
    if "vtk" in cfg.formats:
        write_vtk(os.path.join(out_dir, "transport.vtk"), mesh,
                  velocity=u, vorticity=z)
    if "csv" in cfg.formats:
        rows = [
            ("z_l2", zn.l2),
            ("z_h1_broken", zn.h1_semi),
            ("z_linf_dof", zn.linf_dof),
            ("sign_interior_jumps", sign.interior_jumps),
            ("sign_outflow", sign.outflow),
            ("sign_inflow", sign.inflow),
            ("sign_central_flux", sign.central_flux),
            ("sign_total", sign.total),
            ("beta", "" if part.beta is None else part.beta),
        ]
        _write_csv(os.path.join(out_dir, "transport.csv"), "transport",
                   ("key", "value"), rows)
    print(f"transport solve done; outputs in {out_dir}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gradetwo",
        description="Steady 2D grade-two fluid solver "
                    "(generalized Stokes / vorticity transport splitting)")
    sub = parser.add_subparsers(dest="command", required=True)
    # check-boundary only prints, so it creates no output directory
    for name, needs_mesh, writes in (("solve", True, True),
                                     ("mms", False, True),
                                     ("check-boundary", True, False),
                                     ("transport", True, True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        p.set_defaults(needs_mesh=needs_mesh, writes=writes)
    args = parser.parse_args(argv)
    _fix_malloc_thresholds()

    handlers = {
        "solve": cmd_solve,
        "mms": cmd_mms,
        "check-boundary": cmd_check_boundary,
        "transport": cmd_transport,
    }
    try:
        cfg = load_config(args.config, require_mesh=args.needs_mesh)
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.writes:
            os.makedirs(out_dir, exist_ok=True)
        return handlers[args.command](cfg, out_dir)
    except (GradeTwoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
