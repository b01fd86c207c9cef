from dataclasses import replace

import numpy as np
import pytest

import pathmpnn.citation as cit
import pathmpnn.tensor as T
from pathmpnn.gradchecks import probe_molecule
from pathmpnn.model import ConfigError, ModelConfig, featurize, forward_batched, init_params
from pathmpnn.molgraph import build_graph
from pathmpnn.synth import synth_alcohol_count, synth_citation
from pathmpnn.citation import PathGCNConfig, init_gcn_params
from pathmpnn.training import (TrainReport, TrainSettings, _citation_logits, _fit,
                               _l2_penalty, _step, accuracy, constant_baseline_rmse, cross_entropy,
                               evaluate_regression, featurizer_from_records, predict_values,
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


def test_percent_error_leaves_out_zero_targets():
    # a zero target has no percent error: the mean runs over the others,
    # and with every target zero there is no value
    assert percent_error_metric([0.5, 3.0], [0.0, 2.0]) == pytest.approx(50.0)
    assert percent_error_metric([[0.5], [-1.0]], [[0.0], [0.0]]) is None


def test_reports_give_percent_error_without_zero_targets(tmp_path):
    records = synth_alcohol_count(80, seed=6)
    zeros = [r for r in records if r.targets == (0.0,)]
    config = ModelConfig(hidden_dim=5, steps=1, path_length=1,
                         feature_mode="base", set2set_steps=2, n_targets=1, seed=2)
    settings = TrainSettings(epochs=2, batch_size=8, patience=5, split_seed=0)
    mixed = train_regression(records, config, settings)
    assert mixed.report.final["test_percent_error"] < 1e3   # was ~1e13
    only_zeros = train_regression(zeros, config, settings)
    assert only_zeros.report.final["test_percent_error"] is None
    metrics = evaluate_regression(zeros, mixed.params, config, mixed.featurizer,
                                  mixed.target_mean, mixed.target_std)
    assert metrics["percent_error"] is None and np.isfinite(metrics["rmse"])
    path = tmp_path / "report.jsonl"
    save_report(path, only_zeros.report)
    assert load_reports(path) == [only_zeros.report]


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


def test_evaluate_regression_empty_dataset_is_a_config_error():
    # an empty file evaluated to nan metrics before; now it is a validation error
    with pytest.raises(ConfigError, match="^empty dataset$"):
        evaluate_regression([], {}, ModelConfig(), None, np.zeros(1), np.ones(1))


def test_datasets_too_small_to_split_are_config_errors():
    with pytest.raises(ConfigError, match=r"^a dataset of 3 molecules is too small to "
                                          r"split: the validation split is empty$"):
        train_regression(synth_alcohol_count(3, seed=0), ModelConfig())
    graph = synth_citation(n_nodes=60, seed=0)   # 7 classes x 20 nodes take all 60
    assert [idx.dtype for idx in (graph.train_idx, graph.val_idx, graph.test_idx)] == [
        np.int64] * 3
    with pytest.raises(ConfigError, match=r"^a citation network of 60 nodes is too small "
                                          r"to split: the validation split is empty$"):
        train_node_classification(graph, PathGCNConfig())


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


def test_trainers_keep_the_best_epoch_and_stop_patience_epochs_after_it(monkeypatch):
    # regression keeps its lowest validation rmse: the returned parameters
    # give exactly that rmse on the validation molecules
    records = synth_alcohol_count(80, seed=5)
    config = ModelConfig(hidden_dim=6, steps=1, path_length=2,
                         feature_mode="substructure", set2set_steps=2, n_targets=1, seed=0)
    settings = TrainSettings(epochs=40, batch_size=8, lr=1e-2, patience=3, split_seed=1)
    result = train_regression(records, config, settings)
    scores = [e["val_metric"] for e in result.report.epochs]
    best = int(np.argmin(scores)) + 1
    assert best > 1 and len(scores) == best + settings.patience < settings.epochs
    val_idx = split_dataset(len(records), settings.split_seed)[1]
    metrics = evaluate_regression([records[i] for i in val_idx], result.params, config,
                                  result.featurizer, result.target_mean, result.target_std)
    assert metrics["rmse"] == scores[best - 1] == result.report.final["val_metric_best"]

    # the citation trainer keeps its first highest-accuracy epoch, measured on
    # the fixed validation sample, which is the first draw ({} at budget 0)
    graph = synth_citation(n_nodes=300, n_features=200, seed=3)
    adj = cit.normalize_adjacency(graph)
    sample, draws = cit.sample_citation_paths, []
    monkeypatch.setattr(cit, "sample_citation_paths",
                        lambda *args: draws.append(sample(*args)) or draws[-1])
    for budget, epochs, patience, stops_early in ((0, 60, 3, True), (1, 60, 3, True),
                                                   (1, 8, 60, False)):
        draws.clear()
        result = train_node_classification(
            graph, PathGCNConfig(hidden_dim=8, per_hop_budget=budget, seed=5),
            epochs=epochs, patience=patience)
        scores = [e["val_metric"] for e in result.report.epochs]
        best = int(np.argmax(scores)) + 1
        assert len(scores) == (best + patience if stops_early else epochs)
        logits = cit.path_gcn_forward(graph, adj, result.params, draws[0]).values
        assert (accuracy(logits, graph.labels, graph.val_idx) == scores[best - 1]
                == result.report.final["val_accuracy_best"])


def test_path_gcn_without_resampling_uses_one_sample(monkeypatch):
    graph = synth_citation(n_nodes=120, seed=3)
    config = PathGCNConfig(hidden_dim=8, per_hop_budget=1, resample_each_epoch=False,
                           seed=5)
    draws, used = [], set()
    sample, forward = cit.sample_citation_paths, cit.path_gcn_forward

    def counting_sample(*args):
        draws.append(sample(*args))
        return draws[-1]

    def recording_forward(graph, adj, params, paths, *rest):
        used.add(id(paths))
        return forward(graph, adj, params, paths, *rest)

    monkeypatch.setattr(cit, "sample_citation_paths", counting_sample)
    monkeypatch.setattr(cit, "path_gcn_forward", recording_forward)
    a = train_node_classification(graph, config, epochs=6, patience=6)
    # every training step, validation and the final evaluation use the one draw
    assert len(draws) == 1 and draws[0] and used == {id(draws[0])}
    b = train_node_classification(graph, config, epochs=6, patience=6)
    assert len(draws) == 2
    assert a.report.epochs == b.report.epochs and a.report.final == b.report.final
    for name in a.params:
        assert np.array_equal(a.params[name].values, b.params[name].values)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_raises_before_the_step_naming_epoch_and_batch():
    # an exact fit: the loss sqrt(0) = 0 is finite, but sqrt's backward
    # divides by 0, so the gradient is nan; the step would make it the
    # parameters
    params = {"b": T.Tensor(np.zeros(1), requires_grad=True),
              "w": T.Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = T.AdamState(params)
    with pytest.raises(FloatingPointError, match=r"^training diverged: the gradient of w "
                                                 r"is not finite at epoch 4, batch 2$"):
        _step(params, state, 1e-3, lambda: rmse_loss(params["w"], np.array([1.0, -2.0])), 4, 2)
    assert params["w"].values.tolist() == [1.0, -2.0] and state.t == 0


def test_fit_restores_the_best_epoch_in_place():
    # the parameters must still view the packed buffer afterwards, or every
    # later step would leave them alone
    params = {"a": T.Tensor(np.zeros((2, 2)), requires_grad=True),
              "b": T.Tensor(np.zeros(3), requires_grad=True)}
    state = T.AdamState(params)
    snapshots = []

    def run_epoch(epoch):
        for t in params.values():
            t.values += epoch
        snapshots.append(state.values.copy())
        return {"epoch": epoch}, [3.0, 1.0, 2.0, 2.5, 4.0][epoch - 1]

    entries, best = _fit(state, 5, 2, run_epoch)
    assert best == 1.0 and len(entries) == 4
    assert np.array_equal(state.values, snapshots[1])
    assert params["b"].values.tolist() == [3.0] * 3
    state.check_views(params)
    T.adam_step(params, state)


def test_trained_parameters_still_view_one_buffer():
    graph = synth_citation(n_nodes=120, seed=3)
    result = train_node_classification(graph, PathGCNConfig(hidden_dim=8, per_hop_budget=1,
                                                            seed=5), epochs=12, patience=2)
    assert len(result.report.epochs) < 12   # stopped early and restored an earlier epoch
    base = next(iter(result.params.values())).values.base
    assert base is not None and all(t.values.base is base for t in result.params.values())
    assert base.size == sum(t.values.size for t in result.params.values())


@pytest.fixture
def made_tensors(monkeypatch):
    """Every tensor an op makes while the test runs, in order."""
    made = []
    make = T._make

    def recording_make(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(T, "_make", recording_make)
    return made


def molecule_and_citation_losses():
    """A geometry L3 molecular loss and a dropout path GCN loss with weight
    decay, on parameters that require gradients: between them every op the
    models use."""
    graph = build_graph(*probe_molecule())
    config = ModelConfig(hidden_dim=4, steps=2, path_length=3, feature_mode="geometry",
                         set2set_steps=2, n_targets=2)
    params = init_params(config, graph.node_dim, graph.edge_dim)
    mol_loss = rmse_loss(forward_batched(featurize([graph], config), params, config),
                         np.zeros((1, 2)))
    cgraph = synth_citation(n_nodes=120, seed=0)
    gcn = PathGCNConfig(hidden_dim=6, per_hop_budget=1, seed=2)
    gparams = init_gcn_params(gcn, cgraph.features.shape[1], cgraph.n_classes)
    rng = np.random.default_rng(0)
    masks = tuple((rng.random(shape) < 0.5) / 0.5
                  for shape in (cgraph.features.shape, (cgraph.n, gcn.hidden_dim)))
    logits = cit.path_gcn_forward(cgraph, cit.normalize_adjacency(cgraph), gparams,
                                  cit.sample_citation_paths(cgraph, gcn, rng), masks)
    cit_loss = cross_entropy(logits, cgraph.labels, cgraph.train_idx) + _l2_penalty(
        gparams, 5e-4)
    return mol_loss, cit_loss


def test_no_grad_forwards_keep_no_tape(made_tensors):
    with T.no_grad():
        losses = molecule_and_citation_losses()
    assert len(made_tensors) > 100
    for t in made_tensors:
        assert not t.requires_grad and t._parents == () and t._backward_fn is None
    made_tensors.clear()
    losses = molecule_and_citation_losses()
    assert all(t.requires_grad and t._backward_fn is not None for t in losses)


def alcohol_model():
    """20 alcohol-count molecules and an untrained substructure model."""
    records = synth_alcohol_count(20, seed=0)
    featurizer = featurizer_from_records(records)
    graphs = [build_graph(r, featurizer) for r in records]
    config = ModelConfig(hidden_dim=4, path_length=2, feature_mode="substructure")
    return records, featurizer, graphs, config, init_params(config, graphs[0].node_dim,
                                                            graphs[0].edge_dim)


def test_evaluation_forwards_record_no_tape(made_tensors):
    records, featurizer, graphs, config, params = alcohol_model()
    predict_values(featurize(graphs, config), params, config, 0.0, 1.0, chunk=8)
    evaluate_regression(records, params, config, featurizer, [0.0], [1.0])
    graph = synth_citation(n_nodes=120, seed=0)
    gcn = PathGCNConfig(hidden_dim=6, per_hop_budget=1, eval_samples=3, seed=2)
    gparams = init_gcn_params(gcn, graph.features.shape[1], graph.n_classes)
    adj = cit.normalize_adjacency(graph)
    paths = cit.sample_citation_paths(graph, gcn, np.random.default_rng(0))
    _citation_logits(graph, adj, gparams, gcn, paths)
    _citation_logits(graph, adj, gparams, gcn, paths, np.random.default_rng(1))
    assert made_tensors and not any(t.requires_grad for t in made_tensors)


def test_step_after_tape_free_predictions_fills_every_gradient():
    _, _, graphs, config, params = alcohol_model()
    batch = featurize(graphs, config)
    predict_values(batch, params, config, 0.0, 1.0)
    targets = np.array([g.targets for g in graphs])
    _step(params, T.AdamState(params), 1e-3,
          lambda: rmse_loss(forward_batched(batch, params, config), targets), 1, 0)
    for name, t in params.items():
        assert t.grad is not None and np.any(t.grad != 0), name
