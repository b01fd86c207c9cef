import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
pb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pb)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_metric_summary_arithmetic_on_a_fixed_input():
    # numpy's linear-interpolation quartiles; pair 1 is a tie, won by neither
    lower = pb.summarize_metric([1.0, 2.0, 3.0, 4.0], [0.9, 2.0, 3.5, 3.0], "lower", 0.25)
    assert lower == {
        "better": "lower", "bound": 0.25,
        "parent": {"median": 2.5, "q1": 1.75, "q3": 3.25},
        "change": {"median": 2.5, "q1": 1.725, "q3": 3.125},
        "change_over_parent_median": 1.0,
        "change_wins": "2/4",
        "median_gap_exceeds_parent_iqr": False,
    }
    higher = pb.summarize_metric([10.0, 11.0, 12.0], [13.0, 10.0, 14.0], "higher", 0.15)
    assert higher["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert higher["change"]["median"] == 13.0
    assert higher["change_wins"] == "2/3"
    assert higher["change_over_parent_median"] == 13.0 / 11.0
    assert higher["median_gap_exceeds_parent_iqr"]   # a gap of 2 against an IQR of 1


def _run(pair, train_s, correct=True, failed=0):
    metrics = {m["name"]: {"value": train_s, "unit": "s"} for m in END_TO_END}
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics,
            "pair": pair, "ran_first": pair % 2 == 0}


def test_summary_counts_failures_and_refuses_unpaired_runs():
    docs = {"parent": {"workloads": {"w": {"seed": 7, "runs": [_run(0, 1.0), _run(1, 2.0)]}}},
            "change": {"workloads": {"w": {"seed": 7, "runs": [
                _run(1, 1.5, correct=False, failed=2), _run(0, 0.5)]}}}}
    summary = pb.summarize(docs, END_TO_END, "m")["workloads"]["w"]
    assert summary["seed"] == 7 and summary["pairs"] == 2
    assert summary["correct"] == {"parent": True, "change": False}
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["metrics"]["train_s"]["change_wins"] == "2/2"   # runs matched by pair
    docs["change"]["workloads"]["w"]["runs"].pop()
    with pytest.raises(ValueError, match="not paired"):
        pb.summarize(docs, END_TO_END, "m")


COMMITTED_SUMMARIES = sorted(ROOT.glob("BENCH_*_summary.json"))


@pytest.mark.parametrize("summary", COMMITTED_SUMMARIES, ids=lambda path: path.name)
def test_summary_reproduces_the_committed_summaries(summary):
    docs = {side: json.loads(summary.with_name(summary.name.replace("summary", side))
                             .read_text()) for side in pb.SIDES}
    want = json.loads(summary.read_text())
    assert pb.summarize(docs, END_TO_END, want["method"]) == want


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append(checkout)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"train_s": {"value": 1.0, "unit": "s"}}}

    monkeypatch.setattr(pb, "run_once", fake_run_once)
    runs = pb.run_pairs({"parent": "P", "change": "C"}, "w", 1, 3, 30, log=lambda line: None)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    assert [r["ran_first"] for r in runs["parent"]] == [True, False, True]
    assert [r["pair"] for r in runs["change"]] == [0, 1, 2]
