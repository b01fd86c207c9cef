import json
import re
import struct
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import pathmpnn.tensor as T
from pathmpnn.citation import PathGCNConfig
from pathmpnn.cli import main
from pathmpnn.data import (DataFormatError, RunConfig, load_dataset, load_run_config,
                           parse_citation_files, parse_molecule_file,
                           run_config_from_dict, write_citation_files,
                           write_molecule_file)
from pathmpnn.geometry import geometry_path_features
from pathmpnn.model import ConfigError, ModelConfig
from pathmpnn.molgraph import MoleculeRecord, build_graph
from pathmpnn.paths import enumerate_paths
from pathmpnn.synth import synth_citation, synth_dihedral_sum
from pathmpnn.training import TrainSettings, load_report, load_reports

# the retired model keys at the one value every run gave them
RETIRED = {"attention_heads": 1, "joint_attention": True, "exact_length_only": False,
           "sample_budget": None}

P4 = MoleculeRecord("p4", ("C", "C", "C", "C"),
                    ((0, 1, "single"), (1, 2, "single"), (2, 3, "single")),
                    targets=(1.0,))


def test_empty_file_parses_to_no_records(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert parse_molecule_file(path) == []


def test_molecule_file_round_trip(tmp_path):
    records = synth_dihedral_sum(4, seed=0)
    path = tmp_path / "mols.jsonl"
    write_molecule_file(path, records)
    back = parse_molecule_file(path)
    assert [r.id for r in back] == [r.id for r in records]
    for a, b in zip(records, back):
        assert a.elements == b.elements and a.bonds == b.bonds
        assert a.targets == b.targets
        assert np.array_equal(a.coords, b.coords)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"element_vocab": ["C"]}\n{"id": "a", "elements": ["C"], '
                    '"bonds": []}\nnot json\n')
    with pytest.raises(DataFormatError, match=r"bad.jsonl:3"):
        parse_molecule_file(path)


def test_missing_field_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "elements": ["C"]}\n')
    with pytest.raises(DataFormatError, match=r"bad.jsonl:1.*bonds"):
        parse_molecule_file(path)


def test_invalid_bond_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({
        "id": "a", "elements": ["C", "C"], "bonds": [[0, 5, "single"]]}) + "\n")
    with pytest.raises(DataFormatError, match="dangling bond"):
        parse_molecule_file(path)


def test_header_vocabulary_wins(tmp_path):
    path = tmp_path / "mols.jsonl"
    write_molecule_file(path, [P4], element_vocab=["C", "N", "O", "S"])
    dataset = load_dataset(path)
    assert dataset.featurizer.element_vocab == ("C", "N", "O", "S")


def test_vocabulary_derived_without_header(tmp_path):
    path = tmp_path / "mols.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "id": "x", "elements": ["O", "C"], "bonds": [[0, 1, "single"]],
            "targets": [0.0]}) + "\n")
    dataset = load_dataset(path)
    assert dataset.featurizer.element_vocab == ("C", "O")


def test_citation_round_trip(tmp_path):
    graph = synth_citation(n_nodes=40, seed=0)
    content, cites = tmp_path / "net.content", tmp_path / "net.cites"
    write_citation_files(content, cites, graph)
    back = parse_citation_files(content, cites, train_per_class=2,
                                val_size=10, test_size=10)
    assert back.n == graph.n
    assert back.n_classes == graph.n_classes
    assert set(back.edges) == set(graph.edges)
    assert np.array_equal(back.features, graph.features)


def test_citation_round_trip_keeps_non_integer_features(tmp_path):
    # integer values keep their spelling (1, not 1.0); any other is its repr
    graph = synth_citation(n_nodes=40, seed=0)
    columns = np.arange(graph.features.shape[1])
    features = 0.5 * graph.features + 0.001 * columns
    features[1, :3] = [-0.0, 2.0, 1e-300]
    graph = replace(graph, features=features)
    content, cites = tmp_path / "net.content", tmp_path / "net.cites"
    write_citation_files(content, cites, graph)
    assert content.read_text().splitlines()[1].split()[1:4] == ["0", "2", "1e-300"]
    back = parse_citation_files(content, cites, train_per_class=2, val_size=10, test_size=10)
    assert np.array_equal(back.features, graph.features)


def test_citation_graph_features_are_read_only():
    # replace the graph, do not edit it: the path-GCN layer memoizes its
    # product on read-only features
    graph = synth_citation(n_nodes=20, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        graph.features[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        graph.features *= 2.0
    assert not replace(graph, features=graph.features + 1.0).features.flags.writeable


def test_writing_citation_files_holds_less_than_the_features(tmp_path):
    # one row's Python floats at a time; the whole matrix's tolist() peaked
    # at four times the features' bytes
    graph = synth_citation(n_nodes=800, n_features=1433, seed=0)
    content, cites = tmp_path / "net.content", tmp_path / "net.cites"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_citation_files(content, cites, graph)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < graph.features.nbytes, peak / graph.features.nbytes


def test_synth_citation_with_too_few_features_names_the_minimum():
    with pytest.raises(ConfigError, match="^n_features must be at least 10 .*, got 6$"):
        synth_citation(n_features=6)
    assert synth_citation(n_nodes=30, n_features=10, seed=0).features.shape == (30, 10)


def test_citation_tiny_fixture(tmp_path):
    content = tmp_path / "t.content"
    cites = tmp_path / "t.cites"
    content.write_text(
        "a 1 0 ml\nb 0 1 db\nc 1 1 ml\nd 0 0 db\n")
    cites.write_text("a b\nb a\nc d\nghost a\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        graph = parse_citation_files(content, cites, train_per_class=1,
                                     val_size=1, test_size=1)
    assert graph.n == 4
    assert graph.features.shape == (4, 2)
    assert graph.edges == ((0, 1), (2, 3))        # duplicate a-b collapsed
    assert graph.labels.tolist() == [0, 1, 0, 1]


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys.*wrong"):
        run_config_from_dict({"task": "regression", "dataset": "x",
                              "model": {"wrong": 1}})
    with pytest.raises(ConfigError, match="unknown keys"):
        run_config_from_dict({"task": "regression", "dataset": "x",
                              "mystery": True})


@pytest.mark.parametrize("block,key,value,expected", [
    ("model", "path_length", True, "an integer"),
    ("model", "hidden_dim", 16.0, "an integer"),
    ("model", "feature_mode", None, "a string"),
    ("gcn", "per_hop_budget", True, "an integer"),
    ("gcn", "dropout", False, "a number"),
    ("gcn", "resample_each_epoch", 1, "a boolean"),
    ("train", "lr", "0.01", "a number"),
    ("train", "epochs", 2.5, "an integer"),
    ("run config", "explicit_hydrogens", 0, "a boolean or null"),
    ("run config", "dataset", 7, "a string"),
    ("run config", "repeats", True, "an integer"),
])
def test_run_config_rejects_values_of_the_wrong_type(block, key, value, expected):
    config = {"task": "regression", "dataset": "x"}
    if block == "run config":
        config[key] = value
    else:
        config[block] = {key: value}
    with pytest.raises(ConfigError, match=re.escape(
            f"{block}: {key} must be {expected}, got {json.dumps(value)}")):
        run_config_from_dict(config)


def test_run_config_takes_integers_for_numbers_and_null_hydrogens():
    config = run_config_from_dict({"task": "regression", "dataset": "x",
                                   "explicit_hydrogens": None,
                                   "train": {"lr": 1}, "gcn": {"dropout": 0}})
    assert config.train.lr == 1 and config.gcn.dropout == 0
    assert config.explicit_hydrogens is None


def test_cli_train_wrong_type_exits_one_naming_block_and_key(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "citation", "content": "net.content", "cites": "net.cites",
         "gcn": {"per_hop_budget": True}}))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {tmp_path / 'run.json'}: gcn: per_hop_budget must be an integer, got true"
            in capsys.readouterr().err)


def test_run_config_accepts_retired_model_keys_only_at_their_default():
    model = {"hidden_dim": 4, **RETIRED}
    config = run_config_from_dict({"task": "regression", "dataset": "x", "model": model})
    assert config.model == ModelConfig(hidden_dim=4)
    for key, value in (("attention_heads", 2), ("joint_attention", False),
                       ("exact_length_only", True), ("attention_heads", True),
                       ("sample_budget", 3), ("sample_budget", 0)):
        with pytest.raises(ConfigError, match=f"^model: {key} is no longer a setting"):
            run_config_from_dict({"task": "regression", "dataset": "x",
                                  "model": {**model, key: value}})


def test_readme_regression_run_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"A regression run config is JSON.*?```json\n(.*?)```", readme,
                      re.DOTALL).group(1)
    config = run_config_from_dict(json.loads(block))
    assert config.task == "regression" and config.dataset


def test_readme_run_config_keys_are_the_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"The keys, all optional except the paths the task needs:\n\n(.*?)\n\n",
                      readme, re.DOTALL).group(1)
    listed = {}
    for bullet in block.split("\n- "):
        head, _, body = bullet.lstrip("- ").partition(":")
        # names are the backticked words outside parentheses (those give values)
        listed[head.strip("`")] = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", body))
    settings = {"top level": RunConfig, "model": ModelConfig, "train": TrainSettings,
                "gcn": PathGCNConfig}
    assert listed == {key: [f.name for f in fields(dc_type)]
                      for key, dc_type in settings.items()}


@pytest.mark.parametrize("key,value", [("model", 3), ("model", None), ("train", [1]),
                                       ("gcn", "wide"), ("run config", [1])])
def test_cli_train_non_object_block_exits_one_naming_it(tmp_path, capsys, key, value):
    config = {"task": "regression", "dataset": "absent.jsonl", key: value}
    (tmp_path / "run.json").write_text(json.dumps(value if key == "run config" else config))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {tmp_path / 'run.json'}: {key}: expected a JSON object, "
            f"got {json.dumps(value)}" in capsys.readouterr().err)


def test_cli_train_per_hop_budget_above_one_exits_one(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "citation", "content": "net.content", "cites": "net.cites",
         "gcn": {"per_hop_budget": 2}}))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {tmp_path / 'run.json'}: per_hop_budget must be 0 (plain GCN) or 1, "
            "got 2" in capsys.readouterr().err)


def test_run_config_requires_paths():
    with pytest.raises(ConfigError, match="dataset"):
        run_config_from_dict({"task": "regression"})
    with pytest.raises(ConfigError, match="content"):
        run_config_from_dict({"task": "citation"})


# -- CLI ----------------------------------------------------------------------

def test_cli_paths_matches_engine(tmp_path, capsys):
    data = tmp_path / "p4.jsonl"
    write_molecule_file(data, [P4])
    code = main(["paths", "--input", str(data), "--node", "0", "--length", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0 1", "0 1 2", "0 1 2 3"]


def test_cli_paths_over_the_cap_exits_two_naming_the_molecule(tmp_path, capsys):
    # every atom of a complete 11-atom graph roots 10 + 10*9 + ... + 10*9*8*7*6*5
    # = 187,300 paths up to length 6, over the 100,000 cap
    bonds = tuple((i, j, "single") for i in range(11) for j in range(i + 1, 11))
    data = tmp_path / "k11.jsonl"
    write_molecule_file(data, [P4, MoleculeRecord("k11", ("C",) * 11, bonds, targets=(0.0,))])
    assert main(["paths", "--input", str(data), "--index", "1", "--node", "0",
                 "--length", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("runtime error: PathExplosionError: molecule k11: more than 100000 paths "
            "rooted at node 0; use a shorter path length") in captured.err


def test_cli_missing_dataset_is_validation_error(tmp_path, capsys):
    code = main(["paths", "--input", str(tmp_path / "absent.jsonl"),
                 "--node", "0", "--length", "2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_bad_arguments_exit_one(capsys):
    assert main(["paths", "--node", "0"]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("args,message", [
    (["--node", "99", "--length", "2"], "--node 99 out of range (4 atoms)"),
    (["--node", "-1", "--length", "2"], "--node -1 out of range (4 atoms)"),
    (["--node", "0", "--length", "0"], "--length must be >= 1, got 0"),
])
def test_cli_paths_bad_values_exit_one_naming_the_molecule(tmp_path, capsys, args, message):
    data = tmp_path / "three.jsonl"
    # ids are unique within a file; the molecule at index 1 is p4
    write_molecule_file(data, [replace(P4, id="p4a"), P4, replace(P4, id="p4c")])
    assert main(["paths", "--input", str(data), "--index", "1"] + args) == 1
    err = capsys.readouterr().err
    assert f"error: molecule p4: {message}" in err
    assert "runtime error" not in err


def test_cli_gradcheck_single_op(capsys):
    assert main(["gradcheck", "--op", "matmul"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "PASS" in out


@pytest.mark.parametrize("op", ["path_gcn_layer", "rmse_loss", "cross_entropy", "l2_penalty"])
def test_cli_gradcheck_reaches_the_layer_and_loss_ops(op, capsys):
    # path_gcn_layer was "unknown op" (exit 1) before
    assert main(["gradcheck", "--op", op]) == 0
    out = capsys.readouterr().out
    assert out.startswith(op) and "PASS" in out


def test_cli_synth_featurize(tmp_path, capsys):
    data = tmp_path / "geo.jsonl"
    assert main(["synth", "--task", "dihedral-sum", "--n", "3", "--seed", "1",
                 "--out", str(data)]) == 0
    dump = tmp_path / "feats.jsonl"
    assert main(["featurize", "--input", str(data), "--mode", "geometry",
                 "--length", "3", "--out", str(dump)]) == 0
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    assert rows and all({"molecule", "path", "features"} <= set(r) for r in rows)
    longest = [r for r in rows if len(r["path"]) == 4]
    assert longest and all(len(r["features"]) == 8 for r in longest)
    # per-root enumeration order, lengths interleaved, scalar-oracle values
    dataset = load_dataset(data)
    expected = []
    for record in dataset.records:
        graph = build_graph(record, dataset.featurizer)
        for v in range(graph.n):
            found = sorted(tuple(p) for t in enumerate_paths(graph, [v], 3).values()
                           for p in t.tolist())
            expected += [{"molecule": record.id, "path": list(p),
                          "features": geometry_path_features(graph, p).to_vector().tolist()}
                         for p in found]
    assert rows == expected


@pytest.mark.parametrize("mode,length", [("geometry", 0), ("geometry", 4),
                                         ("substructure", 4)])
def test_cli_featurize_rejects_length_outside_one_to_three(tmp_path, capsys, mode, length):
    data = tmp_path / "p4.jsonl"
    write_molecule_file(data, [P4])
    assert main(["featurize", "--input", str(data), "--mode", mode,
                 "--length", str(length), "--out", str(tmp_path / "f.jsonl")]) == 1
    assert "--length" in capsys.readouterr().err


COINCIDENT = MoleculeRecord("coincident", ("C", "C", "C"),
                            ((0, 1, "single"), (1, 2, "single")), targets=(1.0,),
                            coords=np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]]))


def test_cli_coincident_atoms_exit_one_naming_the_molecule(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    write_molecule_file(data, synth_dihedral_sum(2, seed=0) + [COINCIDENT])
    assert main(["featurize", "--input", str(data), "--mode", "geometry",
                 "--length", "2", "--out", str(tmp_path / "f.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "molecule coincident: zero-length bond vector in angle (0, 1, 2)" in err
    assert "runtime error" not in err


def test_cli_featurize_failing_later_leaves_the_previous_output_and_names_the_input(
        tmp_path, capsys):
    # a good run, then a file whose second molecule has coincident atoms: the
    # first run's output stays byte for byte, and the error names the input
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_molecule_file(good, synth_dihedral_sum(2, seed=0))
    write_molecule_file(bad, synth_dihedral_sum(1, seed=5) + [COINCIDENT])
    dump = tmp_path / "f.jsonl"
    assert main(["featurize", "--input", str(good), "--mode", "geometry",
                 "--length", "2", "--out", str(dump)]) == 0
    before = dump.read_bytes()
    assert before
    capsys.readouterr()
    assert main(["featurize", "--input", str(bad), "--mode", "geometry",
                 "--length", "2", "--out", str(dump)]) == 1
    assert dump.read_bytes() == before
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: molecule coincident: zero-length bond vector")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "f.jsonl", "good.jsonl"]


def test_cli_train_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "alc.jsonl"
    assert main(["synth", "--task", "alcohol-count", "--n", "40", "--seed", "3",
                 "--out", str(data)]) == 0
    config = {
        "task": "regression",
        "dataset": str(data),
        "model": {"hidden_dim": 5, "steps": 1, "path_length": 2,
                  "feature_mode": "substructure", "set2set_steps": 2,
                  "n_targets": 1, "seed": 0},
        "train": {"epochs": 4, "batch_size": 8, "patience": 4},
        "checkpoint": str(tmp_path / "model.ckpt"),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.jsonl"
    assert main(["train", "--config", str(config_path),
                 "--report", str(report_path)]) == 0
    lines = [json.loads(l) for l in report_path.read_text().splitlines()]
    assert "final" in lines[-1]
    assert lines[-1]["config"]["hidden_dim"] == 5
    assert (tmp_path / "model.ckpt").exists()

    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--input", str(data)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert {"mae", "rmse", "n"} <= set(metrics)
    assert metrics["n"] == 40


def test_cli_train_missing_config_path(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1


def test_cli_train_repeats_summary(tmp_path):
    data = tmp_path / "alc.jsonl"
    main(["synth", "--task", "alcohol-count", "--n", "30", "--seed", "4",
          "--out", str(data)])
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "task": "regression", "dataset": str(data),
        "model": {"hidden_dim": 4, "steps": 1, "path_length": 1,
                  "feature_mode": "base", "set2set_steps": 2, "n_targets": 1},
        "train": {"epochs": 2, "batch_size": 8, "patience": 2},
    }))
    report_path = tmp_path / "report.jsonl"
    assert main(["train", "--config", str(config_path), "--report",
                 str(report_path), "--repeats", "2"]) == 0
    lines = [json.loads(l) for l in report_path.read_text().splitlines()]
    assert "summary" in lines[-1]
    assert lines[-1]["summary"]["repeats"] == 2
    seeds = [l["seed"] for l in lines if "final" in l]
    assert seeds == [0, 1]
    reports = load_reports(report_path)
    assert [r.seed for r in reports] == [0, 1]
    assert [[e["epoch"] for e in r.epochs] for r in reports] == [[1, 2], [1, 2]]
    rmse = [r.final["test_rmse"] for r in reports]
    assert lines[-1]["summary"]["metric"] == "test_rmse"
    assert lines[-1]["summary"]["mean"] == pytest.approx(np.mean(rmse))
    with pytest.raises(ValueError, match="2 reports"):
        load_report(report_path)


def test_cli_synth_citation(tmp_path):
    out = tmp_path / "net"
    assert main(["synth", "--task", "citation", "--n", "60", "--seed", "2",
                 "--out", str(out)]) == 0
    graph = parse_citation_files(f"{out}.content", f"{out}.cites",
                                 train_per_class=2, val_size=10, test_size=20)
    assert graph.n == 60


def test_three_molecule_fixture_bond_counts(tmp_path):
    # hand-authored: ethanol (2 bonds), cyclopropane (3), isobutane (3)
    path = tmp_path / "three.jsonl"
    path.write_text("\n".join([
        json.dumps({"element_vocab": ["C", "O"]}),
        json.dumps({"id": "ethanol", "elements": ["C", "C", "O"],
                    "bonds": [[0, 1, "single"], [1, 2, "single"]],
                    "targets": [0.1]}),
        json.dumps({"id": "cyclopropane", "elements": ["C", "C", "C"],
                    "bonds": [[0, 1, "single"], [1, 2, "single"], [0, 2, "single"]],
                    "targets": [0.2]}),
        json.dumps({"id": "isobutane", "elements": ["C", "C", "C", "C"],
                    "bonds": [[0, 1, "single"], [0, 2, "single"], [0, 3, "single"]],
                    "targets": [0.3]}),
    ]) + "\n")
    dataset = load_dataset(path)
    from pathmpnn.molgraph import build_graph
    graphs = [build_graph(r, dataset.featurizer) for r in dataset.records]
    assert [len(g.edge_index) // 2 for g in graphs] == [2, 3, 3]
    assert [g.n for g in graphs] == [3, 3, 4]


CORA_CONTENT = "data/cora/cora.content"


@pytest.mark.skipif(not __import__("os").path.exists(CORA_CONTENT),
                    reason="canonical citation files not present")
def test_canonical_citation_dataset_dimensions():
    graph = parse_citation_files("data/cora/cora.content", "data/cora/cora.cites")
    assert graph.n == 2708
    assert graph.features.shape[1] == 1433
    assert graph.n_classes == 7


def test_cli_gradcheck_full_model_exits_zero(capsys):
    assert main(["gradcheck", "--full-model", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_cli_train_missing_dataset_exits_one(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "task": "regression", "dataset": str(tmp_path / "missing.jsonl")}))
    assert main(["train", "--config", str(config_path),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {config_path}: {tmp_path / 'missing.jsonl'}: No such file or directory"
            in capsys.readouterr().err)


def test_replayed_config_reproduces_run(tmp_path):
    data = tmp_path / "alc.jsonl"
    main(["synth", "--task", "alcohol-count", "--n", "30", "--seed", "6",
          "--out", str(data)])
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "task": "regression", "dataset": str(data),
        "model": {"hidden_dim": 4, "steps": 1, "path_length": 2,
                  "feature_mode": "substructure", "set2set_steps": 2,
                  "n_targets": 1, "seed": 9},
        "train": {"epochs": 3, "batch_size": 8, "patience": 3},
        "checkpoint": str(tmp_path / "a.ckpt"),
    }))
    assert main(["train", "--config", str(config_path),
                 "--report", str(tmp_path / "r1.jsonl")]) == 0
    first_ckpt = (tmp_path / "a.ckpt").read_bytes()
    # replay from the snapshot embedded in the report
    report_lines = [json.loads(l) for l in (tmp_path / "r1.jsonl").read_text().splitlines()]
    snapshot = report_lines[-1]["config"]
    config_path.write_text(json.dumps({
        "task": "regression", "dataset": str(data), "model": snapshot,
        "train": {"epochs": 3, "batch_size": 8, "patience": 3},
        "checkpoint": str(tmp_path / "a.ckpt"),
    }))
    assert main(["train", "--config", str(config_path),
                 "--report", str(tmp_path / "r2.jsonl")]) == 0
    strip = lambda lines: [{k: v for k, v in l.items() if k != "wall_clock"}
                           for l in lines]
    second = [json.loads(l) for l in (tmp_path / "r2.jsonl").read_text().splitlines()]
    assert strip(report_lines) == strip(second)
    assert (tmp_path / "a.ckpt").read_bytes() == first_ckpt


def train_small_checkpoint(tmp_path):
    """A one-epoch substructure model on 20 molecules: (data, checkpoint)."""
    data = tmp_path / "alc.jsonl"
    main(["synth", "--task", "alcohol-count", "--n", "20", "--seed", "3", "--out", str(data)])
    good = tmp_path / "model.ckpt"
    config = {"task": "regression", "dataset": str(data),
              "model": {"hidden_dim": 3, "steps": 1, "path_length": 2,
                        "feature_mode": "substructure", "set2set_steps": 1},
              "train": {"epochs": 1, "batch_size": 8}, "checkpoint": str(good)}
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 0
    return data, good


def with_model_keys(path, params, meta, **keys):
    T.save_params(path, params, metadata={**meta, "model": {**meta["model"], **keys}})
    return path


def test_cli_eval_bad_checkpoints_exit_one(tmp_path, capsys):
    data, good = train_small_checkpoint(tmp_path)
    params, meta = T.load_params(good)

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(good.read_bytes()[:-5])
    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(good.read_bytes() + b"7 bytes")
    foreign = tmp_path / "foreign.ckpt"
    foreign.write_text("not a checkpoint at all\n")
    renamed = tmp_path / "renamed.ckpt"
    T.save_params(renamed, {("head.Wx" if k == "head.W" else k): t for k, t in params.items()},
                  metadata=meta)
    reshaped = tmp_path / "reshaped.ckpt"
    T.save_params(reshaped, {**params, "head.b": T.Tensor(np.zeros(2))}, metadata=meta)
    heads = with_model_keys(tmp_path / "heads.ckpt", params, meta,
                            **{**RETIRED, "attention_heads": 2})
    unknown = with_model_keys(tmp_path / "unknown.ckpt", params, meta, wrong=1)
    scalar = tmp_path / "scalar.ckpt"
    T.save_params(scalar, params, metadata={**meta, "model": 3})
    for path, message in ((truncated, "truncated checkpoint"),
                          (trailing, "7 bytes after the last parameter"),
                          (foreign, "not a parameter checkpoint"),
                          (heads, "model: attention_heads is no longer a setting"),
                          (unknown, "model: unknown keys ['wrong']"),
                          (scalar, "model: expected a JSON object, got 3"),
                          (renamed, "parameter head.W: absent in the checkpoint, (6, 1) "
                                    "for its model config and input"),
                          (reshaped, "parameter head.b: (2,) in the checkpoint, (1,) "
                                     "for its model config and input")):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--input", str(data)]) == 1, path
        assert f"error: {path}: {message}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    return train_small_checkpoint(tmp_path_factory.mktemp("small"))


def without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def setting(key, value):
    return lambda meta: {**meta, key: value}


@pytest.mark.parametrize("edit, message", [
    (lambda meta: [meta], 'metadata: expected a JSON object, got [{"task": "regression"'),
    (lambda meta: "regression", 'metadata: expected a JSON object, got "regression"'),
    (without("model"), "model: missing from the metadata"),
    (without("element_vocab"), "element_vocab: missing from the metadata"),
    (without("explicit_hydrogens"), "explicit_hydrogens: missing from the metadata"),
    (without("target_mean"), "target_mean: missing from the metadata"),
    (without("target_std"), "target_std: missing from the metadata"),
    (setting("element_vocab", "CO"), 'element_vocab: expected a list of strings, got "CO"'),
    (setting("element_vocab", ["C", 8]), 'element_vocab: expected a list of strings, got '
                                         '["C", 8]'),
    (setting("explicit_hydrogens", 0), "explicit_hydrogens: expected a boolean, got 0"),
    (setting("target_mean", 1.5), "target_mean: expected a list of finite numbers, one per "
                                  "target (1), got 1.5"),
    (setting("target_mean", [0.5, 1.0]), "target_mean: expected a list of finite numbers, "
                                         "one per target (1), got [0.5, 1.0]"),
    (setting("target_std", [float("nan")]), "target_std: expected a list of finite numbers, "
                                            "one per target (1), got [NaN]"),
    (setting("target_std", [True]), "target_std: expected a list of finite numbers, one "
                                    "per target (1), got [true]"),
    (setting("target_std", ["1"]), "target_std: expected a list of finite numbers, one "
                                   "per target (1), got [\"1\"]"),
], ids=lambda case: case.split(":")[0] if isinstance(case, str) else None)
def test_cli_eval_bad_checkpoint_metadata_exits_one(small_checkpoint, tmp_path, capsys,
                                                    edit, message):
    # before, a missing field exited 2 with `runtime error: KeyError` and
    # metadata that is no object with an AttributeError
    data, good = small_checkpoint
    params, meta = T.load_params(good)
    path = tmp_path / "bad.ckpt"
    T.save_params(path, params, metadata=edit(meta))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--input", str(data)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("feature_mode", "substructurd",
     "feature_mode must be one of ('base', 'substructure', 'geometry')"),
    ("path_length", 4, "path_length must be 1, 2 or 3, got 4"),
])
def test_cli_eval_checkpoint_model_config_that_model_config_refuses_names_the_file(
        small_checkpoint, tmp_path, capsys, key, value, message):
    # a value of the right type that ModelConfig itself refuses: the message
    # named neither the checkpoint nor its model block
    data, good = small_checkpoint
    params, meta = T.load_params(good)
    path = with_model_keys(tmp_path / "bad.ckpt", params, meta, **{key: value})
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--input", str(data)]) == 1
    assert f"error: {path}: model: {message}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_train_divergence_exits_two_naming_epoch_and_batch(tmp_path, capsys):
    data = tmp_path / "alc.jsonl"
    main(["synth", "--task", "alcohol-count", "--n", "40", "--seed", "0", "--out", str(data)])
    config = {"task": "regression", "dataset": str(data),
              "model": {"hidden_dim": 4, "path_length": 2, "feature_mode": "substructure"},
              "train": {"epochs": 3, "lr": 1e300}}
    (tmp_path / "run.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 2
    assert ("runtime error: FloatingPointError: training diverged: loss is nan "
            "at epoch 1, batch") in capsys.readouterr().err


def test_cli_eval_accepts_older_checkpoints_with_retired_keys(tmp_path, capsys):
    data, good = train_small_checkpoint(tmp_path)
    params, meta = T.load_params(good)
    older = with_model_keys(tmp_path / "older.ckpt", params, meta, **RETIRED)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(good), "--input", str(data)]) == 0
    expected = capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(older), "--input", str(data)]) == 0
    assert capsys.readouterr().out == expected


def test_cli_train_target_count_mismatch_exits_one(tmp_path, capsys):
    data = tmp_path / "alc.jsonl"
    main(["synth", "--task", "alcohol-count", "--n", "20", "--seed", "0", "--out", str(data)])
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "regression", "dataset": str(data), "model": {"n_targets": 2}}))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert ("error: model.n_targets is 2, but the dataset has 1 targets per molecule"
            in capsys.readouterr().err)


def test_cli_train_too_small_to_split_exits_one(tmp_path, capsys):
    molecules, net = tmp_path / "alc.jsonl", tmp_path / "net"
    main(["synth", "--task", "alcohol-count", "--n", "3", "--seed", "0", "--out", str(molecules)])
    main(["synth", "--task", "citation", "--n", "60", "--seed", "2", "--out", str(net)])
    for config, message in (
            ({"task": "regression", "dataset": str(molecules)},
             "a dataset of 3 molecules is too small to split: "
             f"the validation split is empty (molecules read from {molecules})"),
            ({"task": "citation", "content": f"{net}.content", "cites": f"{net}.cites"},
             "a citation network of 60 nodes is too small to split: "
             f"the validation split is empty (nodes read from {net}.content)")):
        (tmp_path / "run.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "run.json"),
                     "--report", str(tmp_path / "r.jsonl")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


ETHANOL = {"id": "eth", "elements": ["C", "C", "O"],
           "bonds": [[0, 1, "single"], [1, 2, "single"]], "targets": [1.0]}


@pytest.mark.parametrize("lines,where,message", [
    ([ETHANOL, 3], 2, "expected a JSON object, got 3"),
    ([[1, 2], ETHANOL], 1, "expected a JSON object, got [1, 2]"),
    (["not json", ETHANOL], 1, "invalid JSON (Expecting value)"),
    ([{"element_vocab": "CO"}, ETHANOL], 1, 'element_vocab must be a list, got "CO"'),
    ([{"element_vocab": ["C", "O", "C"]}, ETHANOL], 1, "element_vocab lists a symbol twice"),
    ([{"explicit_hydrogens": 1}, ETHANOL], 1, "explicit_hydrogens must be a boolean, got 1"),
    ([{"elements": ["C"], "bonds": []}, ETHANOL], 1,
     "unknown header keys ['bonds', 'elements'] (a molecule line needs an 'id')"),
], ids=["record-not-object", "header-not-object", "header-not-json", "vocab-string",
        "vocab-duplicate", "hydrogens-number", "record-without-id"])
def test_cli_molecule_file_lines_that_are_not_records_exit_one_naming_the_line(
        tmp_path, capsys, lines, where, message):
    data = tmp_path / "bad.jsonl"
    data.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                            for line in lines))
    assert main(["paths", "--input", str(data), "--node", "0", "--length", "1"]) == 1
    assert f"error: {data}:{where}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("elements", "CCO", 'elements must be a list, got "CCO"'),
    ("elements", ["C", 6, "O"], "elements[1] must be a string, got 6"),
    ("targets", "12", 'targets must be a list, got "12"'),
    ("targets", [True], "targets[0] must be a finite number, got true"),
    ("bonds", [[0, 1.7, "single"], [1, 2, "single"]],
     'bonds[0] must be [i, j, order] with integer atom indices, got [0, 1.7, "single"]'),
    ("bonds", [[0, 1, "single"], [1, True, "single"]],
     'bonds[1] must be [i, j, order] with integer atom indices, got [1, true, "single"]'),
    ("coords", [[0, 0, 0], [1.5, 0, 0], [2.2, "1.1", 0]],
     'coords[2] must be [x, y, z] of finite numbers, got [2.2, "1.1", 0]'),
], ids=["elements-string", "element-number", "targets-string", "target-boolean",
        "bond-index-float", "bond-index-boolean", "coord-string"])
def test_cli_record_fields_of_the_wrong_type_exit_one_naming_the_line(
        tmp_path, capsys, field, value, message):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps(ETHANOL) + "\n" + json.dumps({**ETHANOL, field: value}) + "\n")
    assert main(["paths", "--input", str(data), "--node", "0", "--length", "1"]) == 1
    assert f"error: {data}:2: {message}" in capsys.readouterr().err


def test_cli_citation_non_numeric_feature_exits_one_naming_the_line(tmp_path, capsys):
    content, cites = tmp_path / "t.content", tmp_path / "t.cites"
    content.write_text("d1 1 0 A\nd2 1 x B\n")
    cites.write_text("d1 d2\n")
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "citation", "content": str(content), "cites": str(cites)}))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {content}:2: feature values must be numbers "
            "(could not convert string to float: 'x')") in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_citation_non_finite_feature_exits_one_naming_the_line(tmp_path, capsys, value):
    # float() reads these, so only the finished feature array shows them
    content, cites = tmp_path / "t.content", tmp_path / "t.cites"
    content.write_text(f"d1 1 0 A\nd2 1 0 B\n\nd3 0 {value} A\n")
    cites.write_text("d1 d2\n")
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "citation", "content": str(content), "cites": str(cites)}))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {content}:4: feature values must be finite numbers, "
            f"got {value}") in capsys.readouterr().err


@pytest.mark.parametrize("value", [7, None, ["eth"]], ids=["number", "null", "list"])
def test_cli_record_id_that_is_not_a_string_exits_one_naming_the_line(tmp_path, capsys,
                                                                       value):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps(ETHANOL) + "\n" + json.dumps({**ETHANOL, "id": value}) + "\n")
    assert main(["paths", "--input", str(data), "--node", "0", "--length", "1"]) == 1
    assert (f"error: {data}:2: id must be a string, got {json.dumps(value)}"
            in capsys.readouterr().err)


def test_cli_repeated_molecule_id_exits_one_naming_the_second_line(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    lines = [{"element_vocab": ["C", "O"]}, ETHANOL, {**ETHANOL, "id": "other"}, ETHANOL]
    data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["paths", "--input", str(data), "--node", "0", "--length", "1"]) == 1
    assert (f"error: {data}:4: repeated id 'eth' (first on line 2)"
            in capsys.readouterr().err)


def test_cli_train_on_molecules_with_and_without_coords_exits_one_naming_the_line(
        tmp_path, capsys):
    # without coords the edge features are one column narrower, so a mixed
    # file cannot make one batch; it failed as a runtime error (exit 2)
    data = tmp_path / "mixed.jsonl"
    assert main(["synth", "--task", "dihedral-sum", "--n", "30", "--seed", "1",
                 "--out", str(data)]) == 0
    lines = [json.loads(line) for line in data.read_text().splitlines()]
    del lines[5]["coords"]
    data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    (tmp_path / "run.json").write_text(json.dumps({
        "task": "regression", "dataset": str(data),
        "model": {"hidden_dim": 4, "path_length": 2, "feature_mode": "base"},
        "train": {"epochs": 1}}))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert (f"error: {data}:6: molecule {lines[5]['id']!r} has no coords, unlike the "
            f"first molecule (line 2)") in capsys.readouterr().err


def test_molecule_with_coords_after_one_without_is_rejected_naming_both_lines(tmp_path):
    data = tmp_path / "mixed.jsonl"
    with_coords = {**ETHANOL, "id": "eth3d", "coords": [[0, 0, 0], [1.5, 0, 0], [2, 1, 0]]}
    data.write_text("".join(json.dumps(line) + "\n"
                            for line in [ETHANOL, {**ETHANOL, "id": "b"}, with_coords]))
    with pytest.raises(DataFormatError, match=re.escape(
            f"{data}:3: molecule 'eth3d' has coords, unlike the first molecule (line 1)")):
        load_dataset(data)


# -- bad input that exited 2 or 0 exits 1, naming the file (and line) -----------

METHANE = {"id": "methane", "elements": ["C", "H", "H", "H", "H"],
           "bonds": [[0, i, "single"] for i in range(1, 5)], "targets": [0.0]}


def test_cli_train_with_a_first_molecule_without_bonds(tmp_path, capsys):
    # the first molecule sizes the model; with no heavy-atom bond its edge
    # width read 0 and training failed on the message weights (exit 2)
    data = tmp_path / "alc.jsonl"
    main(["synth", "--task", "alcohol-count", "--n", "20", "--seed", "0", "--out", str(data)])
    lines = data.read_text().splitlines()
    data.write_text("\n".join([lines[0], json.dumps(METHANE), *lines[1:]]) + "\n")
    (tmp_path / "run.json").write_text(json.dumps({
        "task": "regression", "dataset": str(data),
        "model": {"hidden_dim": 3, "steps": 1, "path_length": 2, "set2set_steps": 1},
        "train": {"epochs": 1, "batch_size": 8}}))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 0, capsys.readouterr().err


def raw_checkpoint(path, name, ndim, dims, values=()):
    """A checkpoint of one parameter record written field by field, so the
    header may hold what save_params never writes."""
    path.write_bytes(T.CHECKPOINT_MAGIC + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 1)
                     + struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", ndim)
                     + b"".join(struct.pack("<I", d) for d in dims)
                     + np.asarray(values, dtype="<f8").tobytes())
    return path


@pytest.mark.parametrize("ndim, dims, values, message", [
    (226, [1] * 226, [1.0], "parameter w: 226 dimensions, more than 32"),
    (70, [0] * 70, [], "parameter w: 70 dimensions, more than 32"),
    (4, [65536] * 4, [], "truncated checkpoint"),      # 2**64 values: np.prod wrapped to 0
    (3, [2**32 - 1] * 3, [], "truncated checkpoint"),
], ids=["ndim-226", "ndim-70-empty", "size-wraps-to-zero", "size-overflows"])
def test_cli_eval_checkpoint_with_impossible_shape_exits_one(small_checkpoint, tmp_path,
                                                             capsys, ndim, dims, values,
                                                             message):
    data, _ = small_checkpoint
    path = raw_checkpoint(tmp_path / "bad.ckpt", "w", ndim, dims, values)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--input", str(data)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cli_eval_checkpoint_with_non_finite_value_exits_one(small_checkpoint, tmp_path,
                                                              capsys, value):
    # the value was loaded, and eval printed NaN metrics, not JSON, with exit 0
    data, good = small_checkpoint
    path = tmp_path / "nan.ckpt"
    path.write_bytes(good.read_bytes()[:-8] + struct.pack("<d", value))
    last = list(T.load_params(good)[0])[-1]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--input", str(data)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and f"error: {path}: parameter {last}: non-finite value" in out.err


def test_cli_non_utf8_molecule_file_exits_one_naming_the_line(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_bytes(json.dumps(ETHANOL).encode() + b"\n"
                     + json.dumps({**ETHANOL, "id": "e\xe9"}, ensure_ascii=False).encode("latin-1")
                     + b"\n")
    for args in (["paths", "--input", str(data), "--node", "0", "--length", "1"],
                 ["featurize", "--input", str(data), "--mode", "substructure", "--length", "1",
                  "--out", str(tmp_path / "f.jsonl")]):
        capsys.readouterr()
        assert main(args) == 1
        assert f"error: {data}:2: not UTF-8 text (byte 0xe9" in capsys.readouterr().err


def test_cli_non_utf8_run_config_exits_one_naming_the_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"task": "regression", "dataset": "caf\xe9.jsonl"}')
    assert main(["train", "--config", str(config), "--report", str(tmp_path / "r.jsonl")]) == 1
    assert f"error: {config}: not UTF-8 text (byte 0xe9 at offset 38)" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["content", "cites"])
def test_cli_non_utf8_citation_file_exits_one_naming_the_line(tmp_path, capsys, bad):
    files = {"content": tmp_path / "t.content", "cites": tmp_path / "t.cites"}
    files["content"].write_bytes(b"d1 1 0 A\nd2 1 0 B\n" + (b"d\xff 0 1 A\n" * (bad == "content")))
    files["cites"].write_bytes(b"d1 d2\n" + (b"d1 d\xff\n" * (bad == "cites")))
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "citation", "content": str(files["content"]), "cites": str(files["cites"])}))
    line = 3 if bad == "content" else 2
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert f"error: {files[bad]}:{line}: not UTF-8 text (byte 0xff" in capsys.readouterr().err


def test_cli_record_with_an_unknown_key_exits_one_naming_it_and_the_line(tmp_path, capsys):
    # a corrupted "targets" key left the molecule without targets, and eval
    # failed later on a ragged target array (exit 2)
    data = tmp_path / "bad.jsonl"
    renamed = {("tar9ets" if k == "targets" else k): v for k, v in ETHANOL.items()}
    data.write_text(json.dumps(ETHANOL) + "\n" + json.dumps({**renamed, "id": "b"}) + "\n")
    assert main(["paths", "--input", str(data), "--node", "0", "--length", "1"]) == 1
    assert f"error: {data}:2: unknown record keys ['tar9ets']" in capsys.readouterr().err


def test_cli_eval_on_molecules_with_another_number_of_targets_exits_one(small_checkpoint,
                                                                        tmp_path, capsys):
    _, good = small_checkpoint
    data = tmp_path / "bad.jsonl"
    lines = [ETHANOL, {**ETHANOL, "id": "b"}, {**ETHANOL, "id": "c", "targets": []}]
    data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["eval", "--checkpoint", str(good), "--input", str(data)]) == 1
    assert (f"error: {data}:3: molecule 'c' has 0 targets, unlike the first molecule "
            f"(line 1), which has 1") in capsys.readouterr().err


def test_cli_eval_errors_about_the_input_name_it(small_checkpoint, tmp_path, capsys):
    # an empty file printed "error: empty dataset", a file whose edge width
    # differs from the checkpoint's named only the checkpoint, and an element
    # outside the checkpoint's vocabulary named only the molecule
    _, good = small_checkpoint
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--checkpoint", str(good), "--input", str(empty)]) == 1
    assert f"error: {empty}: empty dataset" in capsys.readouterr().err
    with_coords = tmp_path / "geo.jsonl"
    write_molecule_file(with_coords, synth_dihedral_sum(3, seed=0))
    assert main(["eval", "--checkpoint", str(good), "--input", str(with_coords)]) == 1
    assert (f"for its model config and input {with_coords}"
            in capsys.readouterr().err)
    sulfur = tmp_path / "sulfur.jsonl"
    sulfur.write_text(json.dumps({**ETHANOL, "elements": ["C", "C", "S"]}) + "\n")
    assert main(["eval", "--checkpoint", str(good), "--input", str(sulfur)]) == 1
    assert (f"error: {sulfur}: molecule {ETHANOL['id']}: unknown element symbol 'S'"
            in capsys.readouterr().err)


def test_cli_train_on_a_dataset_path_that_is_a_directory_exits_one(tmp_path, capsys):
    # IsADirectoryError escaped as a runtime error (exit 2)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"task": "regression", "dataset": str(tmp_path)}))
    assert main(["train", "--config", str(config), "--report", str(tmp_path / "r.jsonl")]) == 1
    assert f"error: {config}: {tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "featurize", "paths"])
def test_cli_element_outside_the_header_vocabulary_exits_one_naming_file_and_line(
        tmp_path, capsys, command):
    # printed "error: molecule b: unknown element symbol 'S' (vocabulary: C, O)",
    # naming no file, before
    data = tmp_path / "mols.jsonl"
    ok = MoleculeRecord("a", ("C", "O"), ((0, 1, "single"),), targets=(1.0,))
    write_molecule_file(data, [ok, replace(ok, id="b", elements=("C", "S"))],
                        element_vocab=["C", "O"])
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"task": "regression", "dataset": str(data)}))
    args = {"train": ["--config", str(config), "--report", str(tmp_path / "r.jsonl")],
            "featurize": ["--input", str(data), "--mode", "substructure", "--length", "2",
                          "--out", str(tmp_path / "f.jsonl")],
            "paths": ["--input", str(data), "--index", "1", "--node", "0", "--length", "1"]}
    assert main([command] + args[command]) == 1
    assert (f"error: {data}:3: molecule 'b': unknown element symbol 'S' (vocabulary: C, O)"
            in capsys.readouterr().err)


def test_hydrogens_outside_the_header_vocabulary_load_in_heavy_atom_mode_only(tmp_path):
    water = MoleculeRecord("water", ("O", "H", "H"), ((0, 1, "single"), (0, 2, "single")),
                           targets=(1.0,))
    heavy, explicit = tmp_path / "heavy.jsonl", tmp_path / "explicit.jsonl"
    write_molecule_file(heavy, [water], element_vocab=["O"])
    write_molecule_file(explicit, [water], element_vocab=["O"], explicit_hydrogens=True)
    assert load_dataset(heavy).records[0].elements == ("O", "H", "H")
    message = "molecule 'water': unknown element symbol 'H' \\(vocabulary: O\\)$"
    with pytest.raises(DataFormatError, match=f"heavy.jsonl:2: {message}"):
        load_dataset(heavy, explicit_hydrogens=True)
    with pytest.raises(DataFormatError, match=f"explicit.jsonl:2: {message}"):
        load_dataset(explicit)
    assert load_dataset(explicit, explicit_hydrogens=False).featurizer.element_vocab == ("O",)


@pytest.mark.parametrize("case", ["paths input is a directory", "featurize out is a directory",
                                  "paths input under a file"])
def test_cli_a_directory_where_a_file_goes_exits_one_naming_the_path(tmp_path, capsys, case):
    # IsADirectoryError and NotADirectoryError exited 2 as runtime errors before
    data = tmp_path / "p4.jsonl"
    write_molecule_file(data, [P4])
    folder = tmp_path / "folder"
    folder.mkdir()
    path, args = {
        "paths input is a directory": (folder, ["paths", "--input", str(folder), "--node", "0"]),
        "featurize out is a directory": (folder, [
            "featurize", "--input", str(data), "--mode", "substructure", "--out", str(folder)]),
        "paths input under a file": (data / "x", ["paths", "--input", str(data / "x"),
                                                  "--node", "0"]),
    }[case]
    assert main(args + ["--length", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
