"""Tests of the benchmark itself: span arithmetic, wrapper installation,
repeatable counts, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench" / "reference")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CUR = workloads.Library.load("pathmpnn")
REF = workloads.Library.load("pathmpnn_ref")


def tree(*rows):
    """Spans from (name, start, end, parent) rows."""
    return [spans.Span(*row) for row in rows]


def test_union_length_merges_overlaps_and_skips_empty():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3), (5, 5), (4, 4.5)]) == 3.5


def test_self_times_on_hand_built_tree():
    s = tree(("phase", 0.0, 10.0, None),
             ("a", 1.0, 4.0, 0),
             ("b", 2.0, 3.0, 1),
             ("c", 5.0, 9.0, 0),
             ("d", 6.0, 7.0, 3),
             ("e", 7.5, 8.0, 3))
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5]
    assert sum(spans.self_times(s)) == 10.0


def test_self_time_counts_overlapping_children_once():
    s = tree(("phase", 0.0, 10.0, None),
             ("x", 2.0, 6.0, 0),
             ("y", 4.0, 8.0, 0))
    assert spans.self_times(s)[0] == 4.0


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_layer_metrics_busy_self_calls_and_percentiles():
    tracer = spans.Tracer(clock=fake_clock(range(100)))
    tracer.layers |= {"training.loop", "tensor.backward", "model.forward"}
    with tracer.span("train"):                         # 0 .. 9
        with tracer.span("training.loop"):             # 1 .. 8
            with tracer.span("tensor.backward"):       # 2 .. 3
                pass
            with tracer.span("model.forward"):         # 4 .. 5
                pass
            with tracer.span("tensor.backward"):       # 6 .. 7
                pass
    metrics = spans.layer_metrics(tracer)
    assert metrics["train.wall_s"] == (9, "s")
    assert metrics["train.tensor.backward_s"] == (2, "s")
    assert metrics["train.tensor.backward_ms_p50"] == (1000.0, "ms")
    assert metrics["train.training.loop_self_s"] == (4, "s")
    assert metrics["train.model.forward_self_s"] == (1, "s")
    assert metrics["train.model.forward_calls"] == (1, "count")
    assert spans.phase_residuals(tracer) == {"train": 0.0}
    # layers without a wrapper are absent, not zero
    assert "train.model.message_s" not in metrics


def test_installed_wraps_restores_and_skips_missing(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: types.SimpleNamespace(groups={1: [0, 1], 2: [0]})
    original = mod.work
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    traced = (("fake_layer", "work", "model.path_cache", spans.count_cache_paths, False),
              ("fake_layer", "gone", "geometry.features", None, False),
              ("no_such_module", "x", "chem.rings", None, False))
    tracer = spans.Tracer()
    with spans.installed(tracer, traced):
        assert mod.work is not original
        with tracer.span("setup"):
            mod.work(1)
            mod.work(2)
    assert mod.work is original
    assert tracer.layers == {"model.path_cache"}
    metrics = spans.layer_metrics(tracer)
    assert metrics["setup.paths.len1"] == (4, "count")
    assert metrics["setup.paths.len2"] == (2, "count")
    assert "setup.geometry.features_s" not in metrics
    assert "setup.chem.rings_s" not in metrics


def test_hook_that_no_longer_fits_makes_its_counters_absent(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.sample = lambda: object()          # no .groups, not a mapping
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    traced = (("fake_layer", "sample", "citation.sample", spans.count_sampled_paths, False),)
    tracer = spans.Tracer()
    with spans.installed(tracer, traced):
        with tracer.span("train"):
            mod.sample()
    assert tracer.broken == {"citation.sample"}
    metrics = spans.layer_metrics(tracer)
    assert "train.citation.paths_len2" not in metrics
    assert "train.citation.sample_s" in metrics


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == spans.per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "N_MOLECULES", 40)
    monkeypatch.setattr(workloads, "N_HELDOUT", 10)
    monkeypatch.setattr(workloads, "EPOCHS", 2)


COUNTS = ("paths.len1", "paths.len2", "paths.len3", "geometry.calls",
          "geometry.degenerate_dihedrals", "molgraph.graphs", "model.forward_calls",
          "tensor.tape_nodes_per_step", "citation.paths_len2", "citation.paths_len3")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly_for_one_seed(name, small, tmp_path):
    wl = workloads.WORKLOADS[name]
    runs = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        inputs = wl.make_inputs(REF, 3, workdir)
        tally, checks = run.Tally(), []
        metrics, _ = run.trace(wl, CUR, inputs, tally, checks)
        assert sum(tally.failed.values()) == 0
        assert all(ok for label, ok in checks
                   if "bit-identical" in label or "self times" in label)
        runs.append({k: v for k, v in metrics.items() if k.split(".", 1)[1] in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["train.tensor.tape_nodes_per_step"]["value"] > 0
    assert set(metrics) == set(spans.per_layer_names())


def test_untraced_run_reports_every_end_to_end_metric(small, tmp_path):
    wl = workloads.WORKLOADS["mol-substructure-l2"]
    inputs = wl.make_inputs(REF, 5, tmp_path)
    tally, checks = run.Tally(), []
    metrics, _ = run.measure(wl, CUR, REF, inputs, 0.0, tally, checks)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    # a warm-up round, then the paired rounds; only the program is counted
    assert tally.attempted["train"] == run.MIN_ROUNDS + 1
    assert tally.attempted["infer"] == run.MIN_ROUNDS * run.INFER_PAIRS + 1
    assert dict(checks)["repeated train calls give bit-identical test metrics"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mol-geometry-l3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
