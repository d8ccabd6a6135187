"""Run one tetraflows benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads: grid, flows, graph_generic, probe (see workloads.py), or ``all``,
which runs the four one after another, each in its own process.

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  Set-up (import, input generation, reference values) is done
SETUP_REPEATS times from a fresh import and ``setup_s`` is its median.  Then
whole passes run single-threaded until another pass would overrun
``--seconds``.  Every operation of a pass is timed on its own, and a fixed
reference task (reference.py) is timed after each one.  ``pass_s`` is the
mean pass time of the operations, scaled by ``REFERENCE_S`` over the
reference task's mean time in the same run: a pass's time on a machine that
runs the reference task in ``REFERENCE_S``.  The CPU of a shared host
changes speed by up to 1.8x within a second and drifts over minutes; both
means weight each moment of the run alike, so their ratio takes most of
that out (see README.md, "Noise").  ``setup_s`` is scaled by the reference
task timed after each set-up, with medians, so that the first set-up's
compilation of the package does not count.
Every operation's output is checked exactly; a failed check or an exception
counts as a failed operation and the run goes on.

With ``--trace 1`` the first half of the time runs untraced and the rest
runs with the tracer installed (tracing.py); the per-layer metrics are
medians over the traced passes, and ``trace.overhead`` is the traced
``pass_s`` over the untraced one.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The run's full record
(environment, every operation time, per-pass layer statistics and spans) is
written to bench/results/.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from reference import REFERENCE_S, Reference
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, Op, run_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
REFERENCE_OP = "reference"
MODULES = ("analysis", "cli", "generators", "graphflow", "multivector", "polyring")


class BenchError(Exception):
    """The benchmark cannot run here."""


def fresh_import() -> types.SimpleNamespace:
    """Import the tetraflows modules from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "tetraflows" or n.startswith("tetraflows.")]:
        del sys.modules[name]
    try:
        tf = types.SimpleNamespace(
            **{m: importlib.import_module(f"tetraflows.{m}") for m in MODULES}
        )
    except ImportError as exc:
        raise BenchError(f"cannot import tetraflows from {SRC}: {exc}") from None
    if not Path(tf.polyring.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"tetraflows was imported from outside {SRC}")
    return tf


def set_up(workload: str, seed: int, reference: Reference):
    """Set the workload up SETUP_REPEATS times; keep the last set-up.

    Returns the namespace, the operations, the set-up times and the
    reference task's time after each set-up.
    """
    times, reference_times = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tf = fresh_import()
        ops = WORKLOADS[workload](tf, seed)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        reference.run()
        reference_times.append(time.perf_counter() - start)
    return tf, ops, times, reference_times


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` scaled to a machine that runs the reference task in
    REFERENCE_S, from one that ran it in ``reference_s``."""
    return seconds * REFERENCE_S / reference_s


def measure(ops, budget: float, reference: Reference, tracer: Tracer | None = None) -> dict:
    """Run passes until another one would end after ``budget`` seconds.

    At least one pass runs, and the reference task runs after every
    operation.  Returns the pass times, every operation's times, the
    reference task's times, ``pass_s`` (the sum of the operations' mean
    times, scaled), the operations attempted, the names of the failed ones
    and, when traced, each pass's layer statistics.
    """
    clock = time.perf_counter
    reference_op = Op(REFERENCE_OP, lambda scratch: reference.run() > 0)
    timed = [step for op in ops for step in (op, reference_op)]
    op_times = {op.name: [] for op in timed}
    times, failures, stats = [], [], []
    gc.collect()
    start = clock()
    while True:
        if tracer is not None:
            tracer.start_pass(len(times))
        t0 = clock()
        failures += run_pass(timed, op_times)
        times.append(clock() - t0)
        if tracer is not None:
            stats.append(tracer.pass_stats())
        if clock() - start + statistics.median(times) > budget:
            break
    reference_times = op_times.pop(REFERENCE_OP)
    return {
        "pass_s": scaled(
            sum(statistics.fmean(t) for t in op_times.values()), statistics.fmean(reference_times)
        ),
        "pass_times": times,
        "op_times": op_times,
        "reference_times": reference_times,
        "attempted": len(ops) * len(times),
        "failures": failures,
        "stats": stats,
    }


def layer_metrics(stats: "list[dict]", overhead: float) -> dict:
    """Median over the traced passes of every per-layer metric."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(s.get(name, 0) for s in stats)
            if unit == "count":
                value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# -- environment ---------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
    }


# -- one workload ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = environment(seed)
    print(
        f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
        f"load {' '.join(f'{x:.2f}' for x in env['loadavg'])}, "
        f"commit {env['commit']}, seed {seed}"
    )
    reference = Reference()
    tf, ops, setup_times, setup_reference_times = set_up(workload, seed, reference)
    setup_s = scaled(statistics.median(setup_times), statistics.median(setup_reference_times))
    record = {"workload": workload, "seconds": seconds, "trace": trace, "env": env,
              "setup_times": setup_times, "setup_reference_times": setup_reference_times}

    if not trace:
        run = measure(ops, seconds, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_s": {"value": run["pass_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        runs = [run]
    else:
        plain = measure(ops, seconds / 2, reference)
        with Tracer() as tracer:
            tracer.install(tf)
            traced = measure(ops, seconds - sum(plain["pass_times"]), reference, tracer)
        overhead = traced["pass_s"] / plain["pass_s"]
        metrics = layer_metrics(traced["stats"], overhead)
        record["untraced"] = plain
        record["spans"] = tracer.spans
        runs = [plain, traced]
        run = traced

    attempted = sum(r["attempted"] for r in runs)
    failures = [name for r in runs for name in r["failures"]]
    unscaled = sum(statistics.fmean(t) for t in run["op_times"].values())
    speed = REFERENCE_S / statistics.fmean(run["reference_times"])
    print(
        f"{workload}: {'traced ' if trace else ''}pass_s {run['pass_s']:.4f} s "
        f"(operation means over {len(run['pass_times'])} passes sum to {unscaled:.4f} s, "
        f"scaled by {speed:.4f}); "
        f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS}, scaled); "
        f"error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.4f}"
    )
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name} = {shown} {m['unit']}")
    if failures:
        print(f"failed operations: {', '.join(failures)}")

    record.update(run=run, metrics=metrics, failures=failures)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
