#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 scripts/paired_bench.py --parent ../parent --change . --label mylabel \
        --workload mol-substructure-l2 --seed 1 --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one after the other; the side that runs
first alternates, parent first in pair 0, and after each pair one line on
stderr gives both sides' value of every end-to-end metric of BENCHMARK.json.
The runs are added under --key (default: the workload name) to
BENCH_<label>_parent.json and BENCH_<label>_change.json in --out, and
BENCH_<label>_summary.json is rebuilt from every run in those two files:
per end-to-end metric of BENCHMARK.json, each side's median and quartiles
(numpy's linear interpolation), the change's median over the parent's, the
pairs the change won (a tie counts for neither side) and whether the gap
between the medians exceeds the parent's interquartile range. The summary of
the series is printed, then one line naming each end-to-end metric whose
change median is worse than the parent's by more than its bound in
BENCHMARK.json (a share of the parent's median), or saying that none is.
The summary's method names the numpy and BLAS build the runs used, since
indexing and product speeds move with it.

The IQR flag alone does not make a gain: it also fires between two copies of
the same commit. An A/A series of the parent against a second checkout of
itself (BENCH_draw_levels_*, key citation-path-gcn-aa-seed1) flagged setup_s
1.032x and train_s 0.975x. So a claim under about 5% needs its own A/A series
(pass the parent's copy as --change, under its own --key) to be read against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds {seconds:g} --trace 0")
METHOD = ("alternating pairs of `python3 perfbench/run.py --workload W --seed S --seconds "
          "{seconds:g} --trace 0` on the parent commit and on the change, the side that runs "
          "first alternating; {cpus} vCPUs, one BLAS thread; {build}. Quartiles are numpy's "
          "linear-interpolation 25th and 75th percentiles; a win is a pair where the change "
          "reads better, ties counting for neither.")


def numpy_build() -> str:
    """The numpy version and the name and version of the BLAS it was built
    against, as the perfbench runs (this interpreter's children) load them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last stdout line is the result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: perfbench exited {done.returncode} with no result\n"
                         f"{done.stderr}") from None


def run_pairs(checkouts: dict, workload: str, seed: int, pairs: int, seconds: float,
              metrics: list, log=print) -> dict:
    """Runs per side, each tagged with its pair and whether it ran first;
    one progress line per pair gives both sides' values of `metrics`."""
    runs = {side: [] for side in SIDES}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            result = run_once(checkouts[side], workload, seed, seconds)
            runs[side].append({**result, "pair": pair, "ran_first": position == 0})
        log(f"{workload} seed {seed} pair {pair}: " + "; ".join(
            side + "".join(f" {name} {runs[side][-1]['metrics'][name]['value']:.4g}"
                           for name in metrics) for side in SIDES))
    return runs


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize_metric(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's paired summary; parent[i] and change[i] are pair i."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = _spread(parent), _spread(change)
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "change_over_parent_median": c["median"] / p["median"],
            "change_wins": f"{wins}/{len(parent)}",
            "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"]}


def regression_line(key: str, metrics: dict) -> str:
    """The no-regression line of one series' summarize_metric dicts: the
    metrics whose change median is worse than the parent's by more than
    bound times the parent's median, or that there is none."""
    def worse_by(m):
        p, c = m["parent"]["median"], m["change"]["median"]
        return c - p if m["better"] == "lower" else p - c

    worse = [name for name, m in metrics.items()
             if worse_by(m) > m["bound"] * abs(m["parent"]["median"])]
    if not worse:
        return f"{key}: no end-to-end metric is worse than its bound"
    return f"{key}: worse than the bound: " + ", ".join(
        f"{name} {metrics[name]['change_over_parent_median']:.3f}x of the parent's median "
        f"(bound {metrics[name]['bound']:g})" for name in worse)


def summarize(docs: dict, end_to_end: list, method: str) -> dict:
    """The summary document of a parent and a change run document."""
    workloads = {}
    for key, entry in docs["parent"]["workloads"].items():
        runs = {side: sorted(docs[side]["workloads"][key]["runs"], key=lambda r: r["pair"])
                for side in SIDES}
        if [r["pair"] for r in runs["parent"]] != [r["pair"] for r in runs["change"]]:
            raise ValueError(f"{key}: the parent and change runs are not paired")
        workloads[key] = {
            "seed": entry["seed"],
            "pairs": len(runs["parent"]),
            "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "metrics": {m["name"]: summarize_metric(
                *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES),
                m["better"], m["bound"]) for m in end_to_end},
        }
    return {"method": method, "workloads": workloads}


def _load(path: Path, seconds: float) -> dict:
    if path.is_file():
        return json.loads(path.read_text())
    return {"command": COMMAND.format(seconds=seconds), "workloads": {}}


def _write(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--label", required=True, help="the <label> of BENCH_<label>_*.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--key", help="name of the series in the files (default: workload)")
    parser.add_argument("--out", type=Path, help="directory of the files (default: --change)")
    args = parser.parse_args(argv)
    out = args.out or args.change
    key = args.key or args.workload
    paths = {side: out / f"BENCH_{args.label}_{side}.json" for side in SIDES}
    docs = {side: _load(paths[side], args.seconds) for side in SIDES}
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = run_pairs({"parent": args.parent, "change": args.change}, args.workload,
                     args.seed, args.pairs, args.seconds, [m["name"] for m in end_to_end],
                     log=lambda line: print(line, file=sys.stderr, flush=True))
    for side in SIDES:
        docs[side]["workloads"][key] = {"seed": args.seed, "runs": runs[side]}
        _write(paths[side], docs[side])
    summary = summarize(docs, end_to_end, METHOD.format(
        seconds=args.seconds, cpus=os.cpu_count(), build=numpy_build()))
    _write(out / f"BENCH_{args.label}_summary.json", summary)
    json.dump(summary["workloads"][key], sys.stdout, indent=1)
    print()
    print(regression_line(key, summary["workloads"][key]["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
