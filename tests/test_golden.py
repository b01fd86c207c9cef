"""Golden outputs: small seeded runs whose trained parameters and reports
must not change by one bit.

The runs go in one subprocess with one BLAS thread: the thread count has to
be set before numpy loads, and the path GCN's products round differently
at two threads. tests/golden.json holds, per run, a sha1 of the trained
parameters (sorted names, raw bytes) and of the report without its wall
clock, one float64 sum per parameter, and the numpy and BLAS build they were
taken on. On that build the hashes must match bit for bit; on another build,
which may round differently, the sums must match at relative tolerance
GOLDEN_REL_TOL.

    PYTHONPATH=src python tests/test_golden.py --write

stores the outputs, taken in that subprocess, in tests/golden.json; without
--write the script prints this process's outputs as JSON, which is what the
subprocess does.

A change that alters the numbers on purpose rewrites tests/golden.json and
says why.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from pathmpnn import citation, model, synth, training

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_REL_TOL = 1e-9

# (name, synthetic task, feature mode, path length) of the regression runs
REGRESSION_RUNS = (("geometry-l3", "dihedral-sum", "geometry", 3),
                   ("substructure-l2", "solubility", "substructure", 2),
                   ("base-l1", "solubility", "base", 1))


def build() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_configuration": blas.get("openblas configuration")}


def _entry(arrays: dict, report=None) -> dict:
    """sha1 of the arrays (sorted names, raw bytes), one sum per array, and
    the sha1 of the report without its wall clock."""
    digest = hashlib.sha1()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    entry = {"sha1": digest.hexdigest(),
             "sums": {name: float(arrays[name].sum()) for name in sorted(arrays)}}
    if report is not None:
        doc = asdict(report)
        del doc["wall_clock"]
        entry["report_sha1"] = hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return entry


def outputs() -> dict:
    """Run every golden run in this process and return the build and entries."""
    def values(params):
        return {name: t.values for name, t in params.items()}

    runs = {}
    for name, task, mode, length in REGRESSION_RUNS:
        config = model.ModelConfig(hidden_dim=8, steps=2, path_length=length,
                                   feature_mode=mode, set2set_steps=2, seed=1)
        settings = training.TrainSettings(epochs=4, batch_size=16, lr=3e-3, patience=10)
        result = training.train_regression(synth.generate_molecules(task, 80, seed=1),
                                           config, settings)
        runs[name] = _entry(values(result.params), result.report)

    graph = synth.synth_citation(n_nodes=200, seed=1)
    config = citation.PathGCNConfig(seed=1)
    result = training.train_node_classification(graph, config, epochs=5, patience=10)
    runs["path-gcn"] = _entry(values(result.params), result.report)
    logits = training._citation_logits(graph, citation.normalize_adjacency(graph),
                                       result.params, config, None, np.random.default_rng(1))
    runs["citation-logits-8-draws"] = _entry({"logits": logits})
    return {"build": build(), "runs": runs}


def run_outputs() -> dict:
    """outputs() in a subprocess with one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          check=False, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_seeded_runs_give_the_stored_outputs():
    got, want = run_outputs(), json.loads(GOLDEN.read_text())
    assert sorted(got["runs"]) == sorted(want["runs"])
    if got["build"] == want["build"]:
        changed = [name for name in want["runs"] if got["runs"][name] != want["runs"][name]]
        assert not changed, (f"outputs changed on the stored build {want['build']}: {changed}; "
                             "a change that alters them on purpose rewrites tests/golden.json")
        return
    far = [f"{run}/{name}: {value!r} against {want['runs'][run]['sums'][name]!r}"
           for run, entry in got["runs"].items() for name, value in entry["sums"].items()
           if not math.isclose(value, want["runs"][run]["sums"][name], rel_tol=GOLDEN_REL_TOL,
                               abs_tol=0.0)]
    assert not far, (f"on build {got['build']}, sums differ from those of the stored build "
                     f"{want['build']} beyond relative tolerance {GOLDEN_REL_TOL:g}: {far}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(run_outputs(), indent=1) + "\n")
    else:
        json.dump(outputs(), sys.stdout, indent=1)
        print()
