"""Training loops, losses, metrics, splits and reports for the regression
and node-classification tasks."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import citation as cit
from . import model as mdl
from .molgraph import FeaturizerConfig, build_graph
from .tensor import (AdamState, Tensor, adam_step, backward, exp,
                     gather_rows, log, mul, reduce_sum, sub, sqrt, zero_grad)


# -- losses and metrics ----------------------------------------------------

def rmse_loss(pred, target):
    """Differentiable root-mean-squared error."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    diff = sub(pred, target)
    return sqrt(mul(diff, diff).mean())


def mae_metric(pred, target) -> float:
    return float(np.abs(np.asarray(pred) - np.asarray(target)).mean())


def rmse_metric(pred, target) -> float:
    d = np.asarray(pred) - np.asarray(target)
    return float(np.sqrt((d * d).mean()))


def percent_error_metric(pred, target) -> float:
    pred, target = np.asarray(pred), np.asarray(target)
    denom = np.maximum(np.abs(target), 1e-12)
    return float((np.abs(pred - target) / denom).mean() * 100.0)


METRICS = {"mae": mae_metric, "rmse": rmse_metric, "percent": percent_error_metric}


def cross_entropy(logits, labels, idx):
    """Mean cross entropy over the rows in idx. The per-row max shift is a
    constant, keeping the log-sum-exp stable without touching gradients."""
    idx = np.asarray(idx, dtype=np.int64)
    picked = gather_rows(logits, idx)
    shift = Tensor(picked.values.max(axis=1, keepdims=True))
    z = sub(picked, shift)
    lse = log(reduce_sum(exp(z), axis=1, keepdims=True))
    onehot = np.zeros(picked.values.shape)
    onehot[np.arange(idx.size), np.asarray(labels)[idx]] = 1.0
    picked_logp = mul(sub(z, lse), Tensor(onehot))
    return mul(reduce_sum(picked_logp), -1.0 / idx.size)


def accuracy(logits_values, labels, idx) -> float:
    pred = np.argmax(logits_values, axis=1)
    idx = np.asarray(idx)
    return float((pred[idx] == np.asarray(labels)[idx]).mean())


# -- splits ----------------------------------------------------------------

def split_dataset(n: int, fractions=(0.8, 0.1, 0.1), seed=0):
    """Deterministic shuffled split into train/val/test index arrays."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


# -- reports ---------------------------------------------------------------

@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)   # {"epoch", "train_loss", "val_metric"}
    final: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    seed: int = 0
    config: dict = field(default_factory=dict)


def save_report(path, report: TrainReport):
    """One metrics object per line, final summary block last."""
    with open(path, "w") as fh:
        for entry in report.epochs:
            fh.write(json.dumps(entry) + "\n")
        fh.write(json.dumps({
            "final": report.final,
            "wall_clock": report.wall_clock,
            "seed": report.seed,
            "config": report.config,
        }) + "\n")


def load_report(path) -> TrainReport:
    epochs = []
    tail = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "final" in obj:
                tail = obj
            else:
                epochs.append(obj)
    if tail is None:
        raise ValueError(f"{path}: no final block")
    return TrainReport(epochs=epochs, final=tail["final"],
                       wall_clock=tail["wall_clock"], seed=tail["seed"],
                       config=tail["config"])


# -- regression ------------------------------------------------------------

@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 300
    batch_size: int = 16
    lr: float = 1e-3
    patience: int = 25
    fractions: tuple = (0.8, 0.1, 0.1)
    split_seed: int = 0
    val_metric: str = ""   # "" picks mae for multi-target, rmse otherwise


@dataclass
class TrainResult:
    report: TrainReport
    params: dict
    model_config: mdl.ModelConfig
    featurizer: FeaturizerConfig
    target_mean: np.ndarray
    target_std: np.ndarray


def featurizer_from_records(records, explicit_hydrogens=False) -> FeaturizerConfig:
    vocab = sorted({el for r in records for el in r.elements})
    return FeaturizerConfig(tuple(vocab), explicit_hydrogens=explicit_hydrogens)


def _predict_block(graphs, caches, params, config):
    return mdl.forward_batched(mdl.merge_batch(graphs, caches), params, config)


def predict_values(graphs, caches, params, config, mean, std,
                   chunk: int = 64) -> np.ndarray:
    out = np.zeros((len(graphs), config.n_targets))
    for lo in range(0, len(graphs), chunk):
        batch = mdl.merge_batch(graphs[lo:lo + chunk], caches[lo:lo + chunk])
        out[lo:lo + chunk] = mdl.forward_batched(batch, params, config).values
    return out * std + mean


def constant_baseline_rmse(train_targets, test_targets) -> float:
    mean = np.asarray(train_targets).mean(axis=0)
    return rmse_metric(np.broadcast_to(mean, np.asarray(test_targets).shape),
                       test_targets)


def train_regression(records, config: mdl.ModelConfig,
                     settings: TrainSettings = TrainSettings(),
                     featurizer: FeaturizerConfig | None = None) -> TrainResult:
    """Mini-batch training with early stopping on the validation metric and
    best-checkpoint restore. Paired comparisons between model variants should
    share settings.split_seed and config.seed."""
    if not records:
        raise ValueError("empty dataset")
    started = time.time()
    if featurizer is None:
        featurizer = featurizer_from_records(records)
    graphs = [build_graph(r, featurizer) for r in records]
    targets = np.asarray([g.targets for g in graphs], dtype=np.float64)
    if targets.shape[1] != config.n_targets:
        raise ValueError(
            f"config expects {config.n_targets} targets, dataset has {targets.shape[1]}")

    train_idx, val_idx, test_idx = split_dataset(len(records), settings.fractions,
                                                 settings.split_seed)
    if not (len(train_idx) and len(val_idx) and len(test_idx)):
        raise ValueError("a split is empty; dataset too small for the fractions")

    mean = targets[train_idx].mean(axis=0)
    std = targets[train_idx].std(axis=0)
    std[std < 1e-12] = 1.0
    z_targets = (targets - mean) / std

    rng = np.random.default_rng(config.seed)
    caches = [mdl.build_path_cache(g, config, seed=config.seed) for g in graphs]
    params = mdl.init_params(config, graphs[0].node_dim, graphs[0].edge_dim, rng)
    state = AdamState(params)

    metric_name = settings.val_metric or ("mae" if config.n_targets > 1 else "rmse")
    metric = METRICS[metric_name]

    report = TrainReport(seed=config.seed, config=asdict(config))
    best_val = np.inf
    best_params = None
    since_best = 0
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(train_idx)
        losses = []
        for lo in range(0, len(order), settings.batch_size):
            batch = order[lo:lo + settings.batch_size]
            zero_grad(params)
            pred = _predict_block([graphs[i] for i in batch],
                                  [caches[i] for i in batch], params, config)
            loss = rmse_loss(pred, z_targets[batch])
            backward(loss)
            adam_step(params, state, lr=settings.lr)
            losses.append(loss.item())
        val_pred = predict_values([graphs[i] for i in val_idx],
                                  [caches[i] for i in val_idx],
                                  params, config, mean, std)
        val_metric = metric(val_pred, targets[val_idx])
        report.epochs.append({"epoch": epoch,
                              "train_loss": float(np.mean(losses)),
                              "val_metric": val_metric})
        if val_metric < best_val - 1e-12:
            best_val = val_metric
            best_params = {k: t.values.copy() for k, t in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= settings.patience:
                break

    if best_params is not None:
        for k, t in params.items():
            t.values = best_params[k]

    test_pred = predict_values([graphs[i] for i in test_idx],
                               [caches[i] for i in test_idx],
                               params, config, mean, std)
    report.final = {
        "val_metric_best": best_val,
        "val_metric_name": metric_name,
        "test_mae": mae_metric(test_pred, targets[test_idx]),
        "test_rmse": rmse_metric(test_pred, targets[test_idx]),
        "test_percent_error": percent_error_metric(test_pred, targets[test_idx]),
        "baseline_rmse": constant_baseline_rmse(targets[train_idx], targets[test_idx]),
        "n_train": int(len(train_idx)),
        "n_val": int(len(val_idx)),
        "n_test": int(len(test_idx)),
    }
    report.wall_clock = time.time() - started
    return TrainResult(report=report, params=params, model_config=config,
                       featurizer=featurizer, target_mean=mean, target_std=std)


def evaluate_regression(records, params, config: mdl.ModelConfig,
                        featurizer: FeaturizerConfig, mean, std) -> dict:
    graphs = [build_graph(r, featurizer) for r in records]
    caches = [mdl.build_path_cache(g, config, seed=config.seed) for g in graphs]
    targets = np.asarray([g.targets for g in graphs], dtype=np.float64)
    pred = predict_values(graphs, caches, params, config, np.asarray(mean), np.asarray(std))
    return {
        "mae": mae_metric(pred, targets),
        "rmse": rmse_metric(pred, targets),
        "percent_error": percent_error_metric(pred, targets),
        "n": len(records),
    }


# -- node classification -----------------------------------------------------

def _l2_penalty(params, coefficient):
    term = None
    for name, t in params.items():
        if not name.endswith(".W") and not name.endswith(".M"):
            continue
        sq = mul(t, t)
        term = sq.sum() if term is None else (term + sq.sum())
    return mul(term, coefficient)


def _citation_logits(graph, adj, params, config, paths, rng=None):
    """Eval-time logits. With resampling active and an rng supplied, the
    final evaluation averages logits over fresh path draws."""
    if config.per_hop_budget == 0:
        return cit.path_gcn_forward(graph, adj, params, None).values
    if not config.resample_each_epoch or rng is None:
        return cit.path_gcn_forward(graph, adj, params, paths).values
    total = None
    for _ in range(max(1, config.eval_samples)):
        sample = cit.sample_citation_paths(graph, config, rng)
        logits = cit.path_gcn_forward(graph, adj, params, sample).values
        total = logits if total is None else total + logits
    return total / max(1, config.eval_samples)


def train_node_classification(graph: cit.CitationGraph,
                              config: cit.PathGCNConfig,
                              epochs: int = 200,
                              patience: int = 30) -> TrainResult:
    """Full-batch training with dropout, L2 weight decay, early stopping on
    validation accuracy and best-checkpoint restore. per_hop_budget=0 trains
    a plain GCN through the identical loop."""
    started = time.time()
    rng = np.random.default_rng(config.seed)
    adj = cit.normalize_adjacency(graph)
    params = cit.init_gcn_params(config, graph.features.shape[1], graph.n_classes, rng)
    state = AdamState(params)
    eval_rng_seed = int(rng.integers(2 ** 31))

    paths = None
    eval_paths = None
    if config.per_hop_budget > 0:
        if not config.resample_each_epoch:
            paths = cit.sample_citation_paths(graph, config, rng)
            eval_paths = paths
        else:
            # fixed sample for per-epoch validation keeps checkpoint
            # selection stable; the final metrics average fresh samples
            eval_paths = cit.sample_citation_paths(
                graph, config, np.random.default_rng(eval_rng_seed))

    report = TrainReport(seed=config.seed, config=asdict(config))
    best_val = -np.inf
    best_params = None
    since_best = 0
    keep = 1.0 - config.dropout
    for epoch in range(1, epochs + 1):
        if config.per_hop_budget > 0 and config.resample_each_epoch:
            paths = cit.sample_citation_paths(graph, config, rng)
        masks = None
        if config.dropout > 0:
            masks = (
                (rng.random(graph.features.shape) < keep) / keep,
                (rng.random((graph.n, config.hidden_dim)) < keep) / keep,
            )
        zero_grad(params)
        logits = cit.path_gcn_forward(graph, adj, params, paths, masks)
        loss = cross_entropy(logits, graph.labels, graph.train_idx)
        if config.weight_decay > 0:
            loss = loss + _l2_penalty(params, config.weight_decay)
        backward(loss)
        adam_step(params, state, lr=config.lr)

        eval_logits = _citation_logits(graph, adj, params, config, eval_paths)
        val_acc = accuracy(eval_logits, graph.labels, graph.val_idx)
        train_acc = accuracy(eval_logits, graph.labels, graph.train_idx)
        report.epochs.append({"epoch": epoch, "train_loss": loss.item(),
                              "train_accuracy": train_acc, "val_metric": val_acc})
        if val_acc > best_val + 1e-12:
            best_val = val_acc
            best_params = {k: t.values.copy() for k, t in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break

    if best_params is not None:
        for k, t in params.items():
            t.values = best_params[k]
    eval_logits = _citation_logits(graph, adj, params, config, paths,
                                   np.random.default_rng(eval_rng_seed))
    report.final = {
        "val_accuracy_best": best_val,
        "test_accuracy": accuracy(eval_logits, graph.labels, graph.test_idx),
        "train_accuracy": accuracy(eval_logits, graph.labels, graph.train_idx),
    }
    report.wall_clock = time.time() - started
    return TrainResult(report=report, params=params, model_config=None,
                       featurizer=None, target_mean=np.zeros(1), target_std=np.ones(1))
