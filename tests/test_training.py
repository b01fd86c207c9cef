from dataclasses import replace

import numpy as np
import pytest

import pathmpnn.tensor as T
from pathmpnn.model import ModelConfig
from pathmpnn.synth import synth_alcohol_count, synth_citation
from pathmpnn.citation import PathGCNConfig, init_gcn_params
from pathmpnn.training import (TrainReport, TrainSettings, _l2_penalty, accuracy,
                               constant_baseline_rmse, cross_entropy,
                               load_report, load_reports, mae_metric,
                               percent_error_metric,
                               rmse_loss, rmse_metric, save_report,
                               split_dataset, train_node_classification,
                               train_regression)


def test_rmse_loss_examples():
    pred = T.Tensor(np.array([[1.0], [2.0], [3.0]]))
    assert rmse_loss(pred, pred.values).item() == pytest.approx(0.0)
    shifted = rmse_loss(pred, pred.values - 0.7)
    assert shifted.item() == pytest.approx(0.7)


def test_rmse_loss_gradcheck():
    rng = np.random.default_rng(0)
    params = {"p": T.Tensor(rng.normal(size=(5, 2)), requires_grad=True)}
    target = rng.normal(size=(5, 2))
    errs = T.gradcheck(lambda: rmse_loss(params["p"], target), params)
    assert max(errs.values()) < 1e-4


def test_mae_examples():
    assert mae_metric([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae_metric([3.0], [1.0]) == 2.0
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert mae_metric(a, b) == pytest.approx(float(np.mean(np.abs(a - b))))


def test_percent_error():
    assert percent_error_metric([110.0], [100.0]) == pytest.approx(10.0)


def test_split_fractions_validated():
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(10, fractions=(0.5, 0.2, 0.2))


def test_split_disjoint_exhaustive_deterministic():
    a = split_dataset(50, seed=3)
    b = split_dataset(50, seed=3)
    c = split_dataset(50, seed=4)
    joined = np.sort(np.concatenate(a))
    assert np.array_equal(joined, np.arange(50))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    assert len(a[0]) == 40 and len(a[1]) == 5 and len(a[2]) == 5


def test_cross_entropy_uniform_and_gradcheck():
    logits = T.Tensor(np.zeros((4, 3)))
    labels = np.array([0, 1, 2, 0])
    loss = cross_entropy(logits, labels, np.arange(4))
    assert loss.item() == pytest.approx(np.log(3.0))

    rng = np.random.default_rng(2)
    params = {"logits": T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)}
    errs = T.gradcheck(
        lambda: cross_entropy(params["logits"], rng.integers(0, 4, size=6) * 0 + 1,
                              np.array([0, 2, 4])),
        params)
    assert max(errs.values()) < 1e-4


def test_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels, np.arange(3)) == pytest.approx(2 / 3)


def test_constant_baseline():
    assert constant_baseline_rmse(np.array([[1.0], [3.0]]),
                                  np.array([[2.0], [2.0]])) == 0.0


def test_report_round_trip(tmp_path):
    report = TrainReport(
        epochs=[{"epoch": 1, "train_loss": 0.5, "val_metric": 0.4},
                {"epoch": 2, "train_loss": 0.3, "val_metric": 0.35}],
        final={"test_mae": 0.3}, wall_clock=1.25, seed=7,
        config={"hidden_dim": 8})
    path = tmp_path / "report.jsonl"
    save_report(path, report)
    loaded = load_report(path)
    assert loaded == report

    # one block per seed, then the summary line
    first = replace(report, final={"test_rmse": 0.3})
    second = TrainReport(epochs=[{"epoch": 1, "train_loss": 0.6, "val_metric": 0.5}],
                         final={"test_rmse": 0.5}, wall_clock=2.0, seed=8)
    save_report(path, first, second)
    assert load_reports(path) == [first, second]
    with pytest.raises(ValueError, match="2 reports"):
        load_report(path)
    with open(path, "a") as fh:
        fh.write('{"epoch": 1, "train_loss": 0.5, "val_metric": 0.4}\n')
    with pytest.raises(ValueError, match="after the last final block"):
        load_reports(path)


def test_l2_penalty_decays_only_dense_maps():
    # path maps (path{layer}.len{k}.M{pos}) and biases are not decayed
    params = init_gcn_params(PathGCNConfig(per_hop_budget=1, path_length=3), 6, 2)
    T.zero_grad(params)
    penalty = _l2_penalty(params, 0.5)
    T.backward(penalty)
    decayed = {name for name, t in params.items()
               if t.grad is not None and np.any(t.grad != 0)}
    assert decayed == {"gcn1.W", "gcn2.W"}
    assert any(".M" in name for name in params)
    expected = 0.5 * sum((params[name].values ** 2).sum() for name in decayed)
    assert penalty.item() == pytest.approx(expected)


def test_train_regression_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train_regression([], ModelConfig())


def test_train_regression_smoke_and_early_stopping():
    records = synth_alcohol_count(60, seed=5)
    config = ModelConfig(hidden_dim=6, steps=1, path_length=2,
                         feature_mode="substructure", set2set_steps=2,
                         n_targets=1, seed=0)
    settings = TrainSettings(epochs=30, batch_size=8, lr=3e-3, patience=5,
                             split_seed=1)
    result = train_regression(records, config, settings)
    report = result.report
    assert report.epochs[0]["epoch"] == 1
    epochs = [e["epoch"] for e in report.epochs]
    assert epochs == sorted(epochs)
    assert all(np.isfinite(e["train_loss"]) for e in report.epochs)
    # training sanity: later loss beats the first epoch
    assert report.epochs[-1]["train_loss"] < report.epochs[0]["train_loss"]
    # early stopping restores the best validation checkpoint
    best = min(e["val_metric"] for e in report.epochs)
    assert report.final["val_metric_best"] == pytest.approx(best)
    assert {"test_mae", "test_rmse", "baseline_rmse"} <= set(report.final)
    assert report.config["hidden_dim"] == 6


def test_train_regression_deterministic():
    records = synth_alcohol_count(40, seed=6)
    config = ModelConfig(hidden_dim=5, steps=1, path_length=1,
                         feature_mode="base", set2set_steps=2, n_targets=1, seed=2)
    settings = TrainSettings(epochs=5, batch_size=8, patience=5, split_seed=0)
    a = train_regression(records, config, settings)
    b = train_regression(records, config, settings)
    for name in a.params:
        assert np.array_equal(a.params[name].values, b.params[name].values)
    assert a.report.epochs == b.report.epochs


def test_target_standardization_round_trip():
    records = synth_alcohol_count(50, seed=9)
    shifted = [type(r)(r.id, r.elements, r.bonds,
                       targets=(r.targets[0] * 100.0 + 500.0,), coords=r.coords)
               for r in records]
    config = ModelConfig(hidden_dim=5, steps=1, path_length=1,
                         feature_mode="base", set2set_steps=2, n_targets=1, seed=3)
    settings = TrainSettings(epochs=8, batch_size=8, patience=8, split_seed=2)
    result = train_regression(shifted, config, settings)
    # metrics live on the raw target scale
    assert result.report.final["test_rmse"] < 300.0
    assert result.target_mean[0] == pytest.approx(
        np.mean([r.targets[0] for r in shifted]), rel=0.2)


def test_train_node_classification_deterministic_and_sane():
    graph = synth_citation(n_nodes=120, seed=3)
    config = PathGCNConfig(hidden_dim=8, per_hop_budget=1, seed=5)
    a = train_node_classification(graph, config, epochs=12, patience=12)
    b = train_node_classification(graph, config, epochs=12, patience=12)
    assert a.report.epochs == b.report.epochs
    assert 0.0 <= a.report.final["test_accuracy"] <= 1.0
    assert a.report.final["val_accuracy_best"] == pytest.approx(
        max(e["val_metric"] for e in a.report.epochs))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_raises_naming_epoch_and_batch():
    records = synth_alcohol_count(40, seed=0)
    config = ModelConfig(hidden_dim=4, path_length=2, feature_mode="substructure")
    with pytest.raises(FloatingPointError,
                       match=r"^training diverged: loss is nan at epoch 1, batch 1$"):
        train_regression(records, config, TrainSettings(epochs=3, lr=1e300))
    graph = synth_citation(n_nodes=200, seed=0)
    with pytest.raises(FloatingPointError,
                       match=r"^training diverged: loss is nan at epoch 2, batch 0$"):
        train_node_classification(graph, PathGCNConfig(lr=1e300), epochs=5)
