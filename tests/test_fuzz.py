"""Mutated input files through the CLI, in-process: a molecule file (under
eval and under train), a geometry molecule file, a checkpoint, a run config
and a citation content and cites file, each cut short, with bits flipped, or with a run of bytes
repeated or deleted. Every mutant must
exit 0 or 1, an exit 1 must name the mutated file, and stdout must never
hold a non-finite number. Hypothesis runs derandomized with a fixed number
of mutants per file kind, so the suite grows by seconds."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmpnn.cli import main
from pathmpnn.data import write_citation_files
from pathmpnn.synth import synth_citation

MUTANTS = 25   # per file kind


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Good files of every kind: {kind: path}, and the checkpoints eval reads."""
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {}
    for kind, task, mode in (("molecules", "alcohol-count", "substructure"),
                             ("geometry", "dihedral-sum", "geometry")):
        data, checkpoint = tmp / f"{kind}.jsonl", tmp / f"{kind}.ckpt"
        config = tmp / f"{kind}.json"
        assert main(["synth", "--task", task, "--n", "20", "--seed", "3",
                     "--out", str(data)]) == 0
        model = {"hidden_dim": 3, "steps": 1, "path_length": 2, "feature_mode": mode,
                 "set2set_steps": 1}
        config.write_text(json.dumps({"task": "regression", "dataset": str(data),
                                      "model": model, "train": {"epochs": 1, "batch_size": 8},
                                      "checkpoint": str(checkpoint)}))
        assert main(["train", "--config", str(config), "--report", str(tmp / "r.jsonl")]) == 0
        files[kind], files[f"{kind} checkpoint"] = data, checkpoint
    # the run configs write no checkpoint, so no mutant writes a file; the
    # second trains on the molecule file's mutant
    for kind, dataset in (("config", files["molecules"]),
                          ("molecules config", tmp / "mutant-molecules")):
        files[kind] = tmp / f"{kind.replace(' ', '-')}.json"
        files[kind].write_text(json.dumps({
            "task": "regression", "dataset": str(dataset),
            "model": {"hidden_dim": 3, "steps": 1, "path_length": 2,
                      "feature_mode": "substructure", "set2set_steps": 1},
            "train": {"epochs": 1, "batch_size": 8}}))
    # a small network and a one-epoch config per citation file, each reading
    # that file's mutant and the other file as written
    files["content"], files["cites"] = tmp / "net.content", tmp / "net.cites"
    write_citation_files(files["content"], files["cites"],
                         synth_citation(n_nodes=80, n_classes=3, n_features=12, seed=3))
    for kind in ("content", "cites"):
        paths = {"content": str(files["content"]), "cites": str(files["cites"]),
                 kind: str(tmp / f"mutant-{kind}")}
        files[f"{kind} config"] = tmp / f"{kind}.json"
        files[f"{kind} config"].write_text(json.dumps({
            "task": "citation", **paths, "epochs": 1,
            "gcn": {"hidden_dim": 4, "eval_samples": 1}}))
    files["tmp"] = tmp
    return files


def mutate(data, blob: bytes) -> bytes:
    """One mutation drawn from `data`: a truncation, one to four bit flips,
    or a run of up to 64 bytes repeated or deleted."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "repeat", "delete"]), label="kind")
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        out = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            out[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(out)
    run = blob[at:at + data.draw(st.integers(1, 64), label="length")]
    return blob[:at] + run + blob[at:] if kind == "repeat" else blob[:at] + blob[at + len(run):]


def run_mutant(inputs, data, kind, args):
    """Run the CLI with `kind`'s file mutated; assert the exit contract."""
    mutant = inputs["tmp"] / f"mutant-{kind.replace(' ', '-')}"
    mutant.write_bytes(mutate(data, inputs[kind].read_bytes()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(mutant) if a is None else a for a in args])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert str(mutant) in err.getvalue(), err.getvalue()
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), out.getvalue()


@pytest.mark.parametrize("kind", ["molecules", "geometry"])
@settings(derandomize=True, max_examples=MUTANTS)
@given(data=st.data())
def test_mutated_molecule_file(inputs, kind, data):
    run_mutant(inputs, data, kind,
               ["eval", "--checkpoint", str(inputs[f"{kind} checkpoint"]), "--input", None])


@settings(derandomize=True, max_examples=MUTANTS)
@given(data=st.data())
def test_mutated_molecule_file_under_train(inputs, data):
    run_mutant(inputs, data, "molecules",
               ["train", "--config", str(inputs["molecules config"]),
                "--report", str(inputs["tmp"] / "fuzz.jsonl")])


@settings(derandomize=True, max_examples=MUTANTS)
@given(data=st.data())
def test_mutated_checkpoint(inputs, data):
    run_mutant(inputs, data, "molecules checkpoint",
               ["eval", "--checkpoint", None, "--input", str(inputs["molecules"])])


@settings(derandomize=True, max_examples=MUTANTS)
@given(data=st.data())
def test_mutated_run_config(inputs, data):
    run_mutant(inputs, data, "config",
               ["train", "--config", None, "--report", str(inputs["tmp"] / "fuzz.jsonl")])


@pytest.mark.parametrize("kind", ["content", "cites"])
@settings(derandomize=True, max_examples=MUTANTS)
@given(data=st.data())
def test_mutated_citation_file(inputs, kind, data):
    run_mutant(inputs, data, kind, ["train", "--config", str(inputs[f"{kind} config"]),
                                    "--report", str(inputs["tmp"] / "fuzz.jsonl")])
