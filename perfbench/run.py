"""Benchmark of the gradetwo solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: coupled-trig, cli-cavity, transport-only (see README.md).  The
run repeats whole rounds of the workload in this one process (closed loop)
as long as the next round should end within ``--seconds``, judged by the
round before, and at least twice, so that every time is a median of at
least two rounds.  It checks every
round's outputs and prints, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over rounds);
with ``--trace 1`` the per-layer ones from the spans, which are also
written to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_ROUNDS = 2
IMPORT_SAMPLES = 3


def cap_threads():
    """Cap the BLAS/OpenMP thread pools at nproc, before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread cap")
    nproc = len(os.sched_getaffinity(0))
    used = {}
    for var in THREAD_VARS:
        try:
            asked = int(os.environ.get(var, nproc))
        except ValueError:
            asked = nproc
        used[var] = max(1, min(asked, nproc))
        os.environ[var] = str(used[var])
    return used


def import_program():
    """Import the program from ``src/`` of this checkout.

    Returns the median time a fresh interpreter takes for the same import,
    over ``IMPORT_SAMPLES`` interpreters: the import part of set-up time.
    """
    src = os.path.join(ROOT, "src")
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import gradetwo.cli; "
            "print(time.perf_counter() - start)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise ImportError(f"cannot import gradetwo from {src}:\n"
                              + done.stderr.strip())
        samples.append(float(done.stdout))
    sys.path.insert(0, src)
    importlib.import_module("gradetwo.cli")
    origin = os.path.abspath(sys.modules["gradetwo"].__file__)
    if not origin.startswith(src + os.sep):
        raise ImportError(f"gradetwo was imported from {origin}, not {src}")
    return statistics.median(samples)


class EntryTimer:
    """Times the calls into a workload's solve entry point."""

    def __init__(self, module, name):
        self.first = None
        self.inside = 0.0
        original = getattr(module, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            if self.first is None:
                self.first = start
            try:
                return original(*args, **kwargs)
            finally:
                self.inside += time.perf_counter() - start

        setattr(module, name, timed)

    def reset(self):
        self.first = None
        self.inside = 0.0


class Round:
    """Program time of one round by phase, and the outcome of each operation.

    ``setup`` is the work before the entry point (including the part of a
    command that runs before it), ``solve`` the time inside the entry point
    and ``wall`` all program work of the round; checks are not counted.
    """

    def __init__(self, expected):
        self.setup = self.solve = self.wall = 0.0
        self.output_bytes = 0
        self.errors = {}      # op -> why it failed or was not checked
        self.wrong = {}       # op -> failed check messages
        self.expected = expected

    def attempt(self, op, step):
        """Run one step of ``op``; a failure is recorded, the round goes on."""
        try:
            return step()
        except Exception as exc:  # every failure of the program counts
            self.errors[op] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, self.expected):
                traceback.print_exc(file=sys.stderr)
            return None


def run_round(wl, entry, expected):
    """Run each operation of ``wl`` in turn (set-up, solve, post-processing),
    so that only one problem is alive at a time; then check the outputs."""
    rnd = Round(expected)
    clock = time.perf_counter
    records = {}
    for op in wl.ops:
        entry.reset()
        start = clock()
        inputs = rnd.attempt(op, lambda: wl.setup(op))
        solution = None
        if op not in rnd.errors:
            solution = rnd.attempt(op, lambda: wl.solve(op, inputs))
        ran = clock()
        if op not in rnd.errors:
            records[op] = rnd.attempt(op, lambda: wl.post(op, solution))
        end = clock()
        inputs = solution = None
        rnd.wall += end - start
        rnd.solve += entry.inside
        rnd.setup += (entry.first if entry.first is not None else ran) - start
        if op not in rnd.errors:
            rnd.output_bytes += records[op].get("output_bytes", 0)
    if rnd.errors:
        failed = ", ".join(wl.label(op) for op in rnd.errors)
        for op in wl.ops:
            rnd.errors.setdefault(op, f"not checked: {failed} failed")
        return rnd
    try:
        checked = wl.check(records)
    except Exception as exc:  # outputs the check cannot read are wrong
        traceback.print_exc(file=sys.stderr)
        checked = {op: [f"check failed: {type(exc).__name__}: {exc}"]
                   for op in wl.ops}
    rnd.wrong = {op: messages for op, messages in checked.items() if messages}
    return rnd


def end_to_end_metrics(rounds, import_s):
    """Medians over rounds; import time counts in wall and set-up time."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (import_s + statistics.median(r.wall for r in rounds), "s"),
        "setup_s": (import_s + statistics.median(r.setup for r in rounds),
                    "s"),
        "solve_s": (statistics.median(r.solve for r in rounds), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, wl, rounds, trace_path, summary):
    """Medians over rounds of the layer figures.  Writes the spans, the
    per-round figures and each round's split of the entry point's time by
    layer to ``trace_path``.  The split adds up to the traced entry time by
    construction of the self times, so it is a report, not a check; it is
    written next to the entry time taken by the benchmark's own clock
    (``entry_clock_s``), which the tracer's wrapper around the entry point
    does not see."""
    module, function = wl.entry
    entry_name = f"{module.__name__.rsplit('.', 1)[1]}.{function}"
    per_round = [tracer.layer_metrics(i, r.output_bytes)
                 for i, r in enumerate(rounds)]
    splits = []
    for i, r in enumerate(rounds):
        total, split = tracer.solve_split(i, entry_name)
        splits.append({"entry_s": total, "entry_clock_s": r.solve,
                       "self_s": split})
    metrics = {}
    for name in per_round[0]:
        values = [pr[name] for pr in per_round]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:  # counts repeat exactly from round to round; keep them whole
            unit = "bytes" if name == "output.bytes" else "count"
            metrics[name] = (statistics.median_low(values), unit)
    tracer.write(trace_path, dict(
        summary, layers=per_round, solve_split=splits,
        rounds=[{"setup_s": r.setup, "solve_s": r.solve, "wall_s": r.wall}
                for r in rounds]))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = cap_threads()
    print("threads: " + " ".join(f"{k}={v}" for k, v in threads.items()),
          flush=True)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = None
    data = lambda fn: fn  # noqa: E731
    if args.trace:
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        data = tracer.data
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, data)
    if tracer is not None:
        tracer.install()
    entry = EntryTimer(*wl.entry)
    expected = (sys.modules["gradetwo"].GradeTwoError,
                workloads.OperationFailed)

    rounds = []
    start = time.perf_counter()
    round_s = 0.0
    while True:
        began = time.perf_counter()
        # start another round only if it should end in time, going by the last
        if (len(rounds) >= MIN_ROUNDS
                and began - start + round_s > args.seconds):
            break
        if tracer is not None:
            tracer.begin_round(len(rounds))
        rounds.append(run_round(wl, entry, expected))
        if tracer is not None:
            tracer.begin_round(None)
        round_s = time.perf_counter() - began

    attempted = len(rounds) * len(wl.ops)
    failed = sum(len(set(r.errors) | set(r.wrong)) for r in rounds)
    correct = not any(r.wrong for r in rounds)
    for i, r in enumerate(rounds):
        print(f"round {i}: setup {r.setup:.4f} s, solve {r.solve:.4f} s, "
              f"wall {r.wall:.4f} s", file=sys.stderr)
        for op, msg in r.errors.items():
            print(f"  failed {wl.label(op)}: {msg}", file=sys.stderr)
        for op, msgs in r.wrong.items():
            for msg in msgs:
                print(f"  wrong {wl.label(op)}: {msg}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end_metrics(rounds, import_s)
    else:
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json")
        metrics = per_layer_metrics(
            tracer, wl, rounds, trace_path,
            {"workload": args.workload, "seed": args.seed,
             "import_s": import_s})
        print(f"spans written to {trace_path}", file=sys.stderr)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
