#!/usr/bin/env python3
"""pathmpnn benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload mol-geometry-l3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 it times set-up, training and inference with tracing off,
each paired with the same call on the frozen reference copy of the library
in reference/, and reports the end-to-end metrics. With --trace 1 it
trains the program once untraced, then
repeats set-up, training and inference once each with every layer function
wrapped (see spans.TRACED), and reports the per-layer metrics. Both print a
readable report and, as the last line of stdout, one JSON object. The exit
code is 0 when every correctness check passed, 1 when one failed and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK_PARENT = ROOT / ".perfbench_tmp"

MIN_ROUNDS = 3
INFER_PAIRS = 3   # inference calls are short; more pairs per round steady them
SELF_TIME_TOLERANCE = 1e-6   # seconds per phase, for float rounding only


class Tally:
    """Attempts and failures per kind of call."""

    def __init__(self):
        self.attempted = {"featurize": 0, "train": 0, "infer": 0}
        self.failed = dict.fromkeys(self.attempted, 0)
        self.messages: list[str] = []

    def add(self, kind: str, attempted: int, failures=()):
        self.attempted[kind] += attempted
        self.failed[kind] += len(failures)
        self.messages.extend(f"{kind}: {m}" for m in failures)

    def call(self, kind: str, fn, *args):
        """Run one train or infer call; (result, seconds), result None on a raise."""
        self.attempted[kind] += 1
        try:
            return timed(fn, *args)
        except Exception:   # counted as a failure; the run goes on
            self.failed[kind] += 1
            self.messages.append(f"{kind}: {traceback.format_exc()}")
            return None, 0.0

    def fail(self, kind: str, message: str):
        self.failed[kind] += 1
        self.messages.append(f"{kind}: {message}")


def timed(fn, *args):
    # both sides of a pair start from a collected heap, so neither pays for
    # the other's garbage
    gc.collect()
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def rounds(least: int, seconds: float):
    """Yield until at least `least` rounds ran and another round, as long as
    the last one, would end after `seconds`."""
    started = time.perf_counter()
    done, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - started
        if done >= least and elapsed + last > seconds:
            return
        yield done
        last = time.perf_counter() - started - elapsed
        done += 1


def measure(wl, cur, ref, inputs, seconds, tally, checks):
    """Tracing off.

    A warm-up round runs the program alone; its outputs are checked and the
    process's peak memory is read after it. Then paired rounds run until
    `seconds` passed: set-up, training and inference each run on the
    program and on the frozen reference back to back (inference INFER_PAIRS
    times), the order alternating between rounds. A metric is the median
    over pairs of the program's time (or rate) over the reference's, times
    the reference's recorded value, so that host speed changes both sides
    share cancel out.
    """
    heldout = {lib.name: wl.load_heldout(lib, inputs) for lib in (cur, ref)}

    def call(lib, kind, fn, *args):
        if lib is cur:
            return tally.call(kind, fn, cur, *args)
        return timed(fn, ref, *args)

    def infer_ok(out):
        if out is not None and not out[1]:
            tally.fail("infer", "non-finite predictions")
            return False
        return out is not None

    prepared = wl.setup(cur, inputs)
    tally.add("featurize", prepared.attempted, wl.setup_failures(prepared))
    result, _ = call(cur, "train", wl.train, prepared)
    finals = []
    if result is not None:
        checks.extend(wl.train_checks(prepared, result))
        print("quality: " + ", ".join(f"{k} {v:.6g}" for k, v in wl.quality(result).items()))
        finals.append(result.report.final)
        infer_ok(call(cur, "infer", wl.infer, prepared, heldout[cur.name], result)[0])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    names = ("setup_s", "train_s", "infer_graphs_per_s")
    ratios = {name: [] for name in names}
    walls = {(name, lib.name): [] for name in names for lib in (cur, ref)}

    def record(name, done, rate=False):
        for lib_name, (_, seconds_taken) in done.items():
            walls[name, lib_name].append(seconds_taken)
        ratio = done[cur.name][1] / done[ref.name][1]
        ratios[name].append(1.0 / ratio if rate else ratio)

    for n in rounds(MIN_ROUNDS, seconds):
        order = (cur, ref) if n % 2 == 0 else (ref, cur)
        done = {lib.name: timed(wl.setup, lib, inputs) for lib in order}
        prepared = {k: v[0] for k, v in done.items()}
        tally.add("featurize", prepared[cur.name].attempted,
                  wl.setup_failures(prepared[cur.name]))
        record("setup_s", done)

        done = {lib.name: call(lib, "train", wl.train, prepared[lib.name]) for lib in order}
        results = {k: v[0] for k, v in done.items()}
        if results[cur.name] is None:
            continue
        finals.append(results[cur.name].report.final)
        record("train_s", done)

        for _ in range(INFER_PAIRS):
            done = {lib.name: call(lib, "infer", wl.infer, prepared[lib.name],
                                   heldout[lib.name], results[lib.name]) for lib in order}
            if infer_ok(done[cur.name][0]):
                record("infer_graphs_per_s", done, rate=True)
    checks.append(("repeated train calls give bit-identical test metrics",
                   all(final == finals[0] for final in finals)))

    metrics, lines = {}, []
    for name in names:
        unit = "1/s" if name == "infer_graphs_per_s" else "s"
        if not ratios[name]:
            lines.append(f"  {name:<20} {'absent':>12} {unit:<4} no successful pair")
            continue
        ratio = statistics.median(ratios[name])
        metrics[name] = {"value": ratio * wl.reference[name], "unit": unit}
        cur_s = statistics.median(walls[name, cur.name])
        ref_s = statistics.median(walls[name, ref.name])
        lines.append(f"  {name:<20} {metrics[name]['value']:>12.6g} {unit:<4} "
                     f"= {wl.reference[name]:g} x median ratio {ratio:.4f} of "
                     f"{len(ratios[name])} pairs (range {min(ratios[name]):.3f}.."
                     f"{max(ratios[name]):.3f}); wall s/call program {cur_s:.4g}, "
                     f"reference {ref_s:.4g}")
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    lines.append(f"  {'peak_rss_mb':<20} {peak:>12.6g} {'MB':<4} "
                 "after the warm-up round, before any paired call")
    return metrics, lines


def trace(wl, cur, inputs, tally, checks):
    """Set-up, training and inference traced, between two untraced train
    calls whose mean is the base of trace.overhead. Only the program runs;
    the reference copy is not traced."""
    heldout = wl.load_heldout(cur, inputs)
    prepared = wl.setup(cur, inputs)
    tally.add("featurize", prepared.attempted, wl.setup_failures(prepared))
    base, untraced_s = tally.call("train", wl.train, cur, prepared)

    tracer = spans.Tracer()
    with spans.installed(tracer):
        with tracer.span("setup"):
            traced_prepared = wl.setup(cur, inputs)
        with tracer.span("train"):
            traced, traced_s = tally.call("train", wl.train, cur, traced_prepared)
        with tracer.span("infer"):
            out, _ = (tally.call("infer", wl.infer, cur, traced_prepared, heldout, traced)
                      if traced is not None else (None, 0.0))
    tally.add("featurize", traced_prepared.attempted, wl.setup_failures(traced_prepared))
    if out is not None and not out[1]:
        tally.fail("infer", "non-finite predictions")
    after, after_s = tally.call("train", wl.train, cur, prepared)

    untraced = [r for r in (base, after) if r is not None]
    if untraced and traced is not None:
        checks.extend(wl.train_checks(prepared, untraced[0]))
        checks.append(("traced test metrics bit-identical to untraced",
                       all(traced.report.final == r.report.final for r in untraced)))
    for phase, residual in spans.phase_residuals(tracer).items():
        checks.append((f"{phase}: self times sum to wall time (residual {residual:.2e} s)",
                       abs(residual) <= SELF_TIME_TOLERANCE))

    metrics = spans.layer_metrics(tracer)
    if base is not None and after is not None and traced is not None:
        metrics[spans.OVERHEAD] = (2 * traced_s / (untraced_s + after_s), "ratio")
    absent = [n for n in spans.per_layer_names() if n not in metrics]
    lines = [f"  {name:<42} {value:>14.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    if absent:
        lines.append("  absent at this commit: " + ", ".join(absent))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def run_one(args, wl, cur, ref) -> int:
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    tally, checks = Tally(), []
    try:
        inputs = wl.make_inputs(ref, args.seed, workdir)
        mode = "traced" if args.trace else "tracing off"
        print(f"workload {wl.name}, seed {args.seed}, {mode}, {args.seconds} s")
        print(f"  why: {wl.why}")
        if args.trace:
            metrics, lines = trace(wl, cur, inputs, tally, checks)
        else:
            metrics, lines = measure(wl, cur, ref, inputs, args.seconds, tally, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass   # another run still uses it

    print("\n".join(lines))
    print("failures: " + ", ".join(f"{k} {tally.failed[k]}/{tally.attempted[k]}"
                                   for k in tally.attempted))
    for message in tally.messages:
        print(f"  failed {message}", file=sys.stderr)
    for label, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}")
    failed = sum(tally.failed.values())
    correct = failed == 0 and all(ok for _, ok in checks)
    print(json.dumps({"correct": correct, "attempted": sum(tally.attempted.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="mol-geometry-l3, mol-substructure-l2, citation-path-gcn or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pathmpnn" / "__init__.py").is_file():
        print(f"error: no pathmpnn sources under {SRC}", file=sys.stderr)
        return 2

    # One BLAS thread: runs are single-process and steadier without thread
    # scheduling noise. The environment must be set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(REFERENCE)]
    from workloads import WORKLOADS, Library
    cur, ref = Library.load("pathmpnn"), Library.load("pathmpnn_ref")
    if not Path(cur.training.__file__).resolve().is_relative_to(SRC):
        print(f"error: pathmpnn imported from {cur.training.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    try:
        return run_one(args, WORKLOADS[args.workload], cur, ref)
    except Exception:   # the benchmark itself broke: no result line
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
