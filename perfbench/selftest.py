"""Self-test of the benchmark's checks: each check must accept the program's
answer and reject a wrong one.

    python3 perfbench/selftest.py

For every workload it runs one round of the real operations on the meshes
of seed 0, then hands the workload's check the true records and a few wrong
ones; each wrong one must be rejected by the check it is aimed at, named by
a part of that check's message:

* coupled-trig and transport-only: the fine-level z scaled by 1.05, and the
  coarse-level answer reported as the fine one;
* cli-cavity: the fine-level pressure in ``fields.vtk`` scaled by 1.05 and
  the coarse-level outputs reported as the fine ones, each checked with no
  earlier run to compare bytes with, so that only the check against the
  exact solution can reject them; and an ``iterations.csv`` that differs
  from the first run by one byte.

Exits with 0 when every true answer passes and every wrong one is rejected.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402

SEED = 0


def scaled(field, factor=1.05):
    return field.space.new_field(factor * field.coefficients)


def run_ops(wl):
    """One round of the real operations, returning solutions and records."""
    solutions, records = {}, {}
    for op in wl.ops:
        solutions[op] = wl.solve(op, wl.setup(op))
        records[op] = wl.post(op, solutions[op])
    return solutions, records


def coupled_cases(wl, solutions, records):
    coarse, fine = wl.LEVELS
    u, p, z, report = solutions[fine]
    yield "fine z scaled by 1.05", "err_z_l2 order", {
        **records, fine: wl.post(fine, (u, p, scaled(z), report))}
    yield "coarse answer reported as fine", "order", {
        **records, fine: records[coarse]}


def transport_cases(wl, solutions, records):
    coarse, fine = wl.LEVELS
    for flow in W.FLOWS:
        key = (flow, fine)
        yield f"{flow}: fine z scaled by 1.05", f"{flow}: err_z_l2 order", {
            **records, key: wl.post(key, scaled(solutions[key]))}
        yield f"{flow}: coarse answer reported as fine", \
            f"{flow}: err_z_l2 order", {
            **records, key: records[(flow, coarse)]}


def _copy_outputs(out_dir, suffix):
    target = out_dir + suffix
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(out_dir, target)
    return target


def _scale_vtk_pressure(path, factor=1.05):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    nv = int(next(line for line in lines
                  if line.startswith("POINTS ")).split()[1])
    start = lines.index("SCALARS pressure double 1") + 2
    for i in range(start, start + nv):
        lines[i] = repr(factor * float(lines[i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_cases(wl, solutions, records):
    coarse, fine = wl.LEVELS
    true_digests = dict(wl.first_digests)
    out_dir = records[fine]["out_dir"]
    wrong_p = _copy_outputs(out_dir, "-pressure")
    _scale_vtk_pressure(os.path.join(wrong_p, "fields.vtk"))
    # no first run to compare bytes with: only the field check can reject
    wl.first_digests = {}
    yield "fine pressure scaled by 1.05", "err_p_max order", {
        **records, fine: {"out_dir": wrong_p}}
    wl.first_digests = {}
    yield "coarse outputs reported as fine", "order", {
        **records, fine: records[coarse]}
    wrong_csv = _copy_outputs(out_dir, "-csv")
    path = os.path.join(wrong_csv, "iterations.csv")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    wl.first_digests = dict(true_digests)
    yield "iterations.csv differs by one byte", \
        "iterations.csv differs from the first run", {
            **records, fine: {"out_dir": wrong_csv}}


CASES = {"coupled-trig": coupled_cases, "cli-cavity": cli_cases,
         "transport-only": transport_cases}


def selftest(name):
    """Returns the number of checks that answered wrongly."""
    workdir = os.path.join(HERE, "out", f"selftest-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = W.WORKLOADS[name](SEED, workdir, lambda fn: fn)
    with contextlib.redirect_stdout(sys.stderr):
        solutions, records = run_ops(wl)
    bad = 0
    messages = [m for ms in wl.check(records).values() for m in ms]
    status = "accepted" if not messages else "REJECTED"
    bad += bool(messages)
    print(f"{name}: true answer {status} {messages or ''}")
    for label, expect, wrong in CASES[name](wl, solutions, records):
        messages = [m for ms in wl.check(wrong).values() for m in ms]
        rejected = any(expect in m for m in messages)
        status = ("rejected" if rejected else
                  f"NOT REJECTED by the check expected ({expect!r})")
        bad += not rejected
        print(f"{name}: {label}: {status} ({'; '.join(messages)})")
    return bad


def main():
    bad = sum(selftest(name) for name in W.WORKLOADS)
    print("self-test " + ("passed" if not bad else f"failed: {bad} wrong"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
