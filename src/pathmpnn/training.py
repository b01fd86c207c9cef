"""Training loops, losses, metrics, splits and reports for the regression
and node-classification tasks."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import citation as cit
from . import model as mdl
from .molgraph import FeaturizerConfig, build_union, vocab_from_records
from .tensor import (AdamState, adam_step, backward, cross_entropy, l2_penalty, no_grad,
                     open_replacing, rmse_loss, zero_grad)


# -- metrics (the losses rmse_loss and cross_entropy are tensor's one-node ops)

def mae_metric(pred, target) -> float:
    return float(np.abs(np.asarray(pred) - np.asarray(target)).mean())


def rmse_metric(pred, target) -> float:
    d = np.asarray(pred) - np.asarray(target)
    return float(np.sqrt((d * d).mean()))


def percent_error_metric(pred, target) -> float | None:
    """Mean absolute error in percent of the target, over the entries whose
    target is not zero (a zero target has no percent error); None when
    every target is zero."""
    pred, target = np.asarray(pred), np.asarray(target)
    nonzero = target != 0
    if not nonzero.any():
        return None
    return float((np.abs(pred - target)[nonzero] / np.abs(target[nonzero])).mean() * 100.0)


def _errors(pred, target, prefix: str = "") -> dict:
    """The regression test metrics, their names prefixed."""
    return {f"{prefix}mae": mae_metric(pred, target),
            f"{prefix}rmse": rmse_metric(pred, target),
            f"{prefix}percent_error": percent_error_metric(pred, target)}


def accuracy(logits_values, labels, idx) -> float:
    pred = np.argmax(logits_values, axis=1)
    idx = np.asarray(idx)
    return float((pred[idx] == np.asarray(labels)[idx]).mean())


# -- splits ----------------------------------------------------------------

def split_dataset(n: int, seed=0):
    """Deterministic shuffled 0.8/0.1/0.1 split into train/val/test index
    arrays."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def _check_splits(what: str, **splits):
    """Raise ConfigError naming the first empty split."""
    for name, idx in splits.items():
        if not len(idx):
            raise mdl.ConfigError(f"{what} is too small to split: the {name} split is empty")


# -- the training loop ------------------------------------------------------

def _step(params, state, lr, loss_fn, epoch: int, batch: int) -> float:
    """One Adam step on loss_fn()'s loss; returns the loss, or raises naming
    the epoch and batch if it diverged. Whatever loss_fn draws and the tape
    are freed on return, before the next step builds its own."""
    zero_grad(params)
    loss = loss_fn()
    value = loss.item()
    if not np.isfinite(value):
        raise FloatingPointError(
            f"training diverged: loss is {value} at epoch {epoch}, batch {batch}")
    backward(loss)
    if not np.isfinite(state.grads.sum()):   # one pass; inf - inf and nan stay non-finite
        bad = [name for name, t in params.items() if not np.isfinite(t.grad).all()]
        if bad:   # else only the sum of finite entries overflowed
            raise FloatingPointError(f"training diverged: the gradient of {bad[0]} is not "
                                     f"finite at epoch {epoch}, batch {batch}")
    adam_step(params, state, lr=lr)
    return value


def _fit(state: AdamState, epochs: int, patience: int, run_epoch):
    """Run run_epoch(epoch) -> (entry, score) until patience epochs in a row
    fail to lower the best score by 1e-12, then restore the best epoch's
    parameters into the packed buffer, in place. Returns the entries and the
    best score (inf if none ran)."""
    entries = []
    best, best_values, since_best = np.inf, None, 0
    for epoch in range(1, epochs + 1):
        entry, score = run_epoch(epoch)
        entries.append(entry)
        if score < best - 1e-12:
            best, since_best = score, 0
            best_values = state.values.copy()
        else:
            since_best += 1
            if since_best >= patience:
                break
    if best_values is not None:
        state.values[:] = best_values
    return entries, best


# -- reports ---------------------------------------------------------------

@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)   # {"epoch", "train_loss", "val_metric"}
    final: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    seed: int = 0
    config: dict = field(default_factory=dict)


def summarize_reports(reports) -> dict:
    """Mean and std over seeds of the final test metric: test_accuracy when
    the reports carry it (citation), else test_rmse."""
    key = "test_accuracy" if "test_accuracy" in reports[0].final else "test_rmse"
    finals = np.array([r.final[key] for r in reports])
    return {"metric": key, "mean": float(finals.mean()),
            "std": float(finals.std()), "repeats": len(reports)}


def save_report(path, *reports: TrainReport):
    """One metrics object per line: each report's epochs, then its final
    block. With more than one report, a summarize_reports line comes last.
    Written whole (tensor.open_replacing)."""
    with open_replacing(path) as fh:
        for report in reports:
            for entry in report.epochs:
                fh.write(json.dumps(entry) + "\n")
            fh.write(json.dumps({
                "final": report.final,
                "wall_clock": report.wall_clock,
                "seed": report.seed,
                "config": report.config,
            }) + "\n")
        if len(reports) > 1:
            fh.write(json.dumps({"summary": summarize_reports(reports)}) + "\n")


def load_reports(path) -> list[TrainReport]:
    """Every report in a file save_report wrote, in order; the summary line
    is skipped."""
    reports = []
    epochs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "summary" in obj:
                continue
            if "final" in obj:
                reports.append(TrainReport(
                    epochs=epochs, final=obj["final"], wall_clock=obj["wall_clock"],
                    seed=obj["seed"], config=obj["config"]))
                epochs = []
            else:
                epochs.append(obj)
    if not reports:
        raise ValueError(f"{path}: no final block")
    if epochs:
        raise ValueError(f"{path}: epoch lines after the last final block")
    return reports


def load_report(path) -> TrainReport:
    """The one report in a single-seed report file."""
    reports = load_reports(path)
    if len(reports) != 1:
        raise ValueError(f"{path}: holds {len(reports)} reports; use load_reports")
    return reports[0]


# -- regression ------------------------------------------------------------

@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 300
    batch_size: int = 16
    lr: float = 1e-3
    patience: int = 25
    split_seed: int = 0


@dataclass
class TrainResult:
    report: TrainReport
    params: dict
    model_config: mdl.ModelConfig
    featurizer: FeaturizerConfig
    target_mean: np.ndarray
    target_std: np.ndarray


def featurizer_from_records(records, explicit_hydrogens=False) -> FeaturizerConfig:
    return FeaturizerConfig(vocab_from_records(records),
                            explicit_hydrogens=explicit_hydrogens)


@no_grad()
def predict_values(batch, params, config, mean, std, chunk: int = 64) -> np.ndarray:
    """Predictions for a GraphBatch, forwarded tape-free in slices of at most
    `chunk` graphs."""
    n = batch.n_graphs
    parts = [mdl.take(batch, np.arange(lo, min(lo + chunk, n))) for lo in range(0, n, chunk)]
    out = np.concatenate([mdl.forward_batched(p, params, config).values for p in parts])
    return out * std + mean


def constant_baseline_rmse(train_targets, test_targets) -> float:
    mean = np.asarray(train_targets).mean(axis=0)
    return rmse_metric(np.broadcast_to(mean, np.asarray(test_targets).shape),
                       test_targets)


def train_regression(records, config: mdl.ModelConfig,
                     settings: TrainSettings = TrainSettings(),
                     featurizer: FeaturizerConfig | None = None) -> TrainResult:
    """Mini-batch training with early stopping on the validation metric
    (mae for multi-target, else rmse) and best-checkpoint restore. Paired
    comparisons between model variants should share settings.split_seed and
    config.seed."""
    if not records:
        raise mdl.ConfigError("empty dataset")
    started = time.time()
    if featurizer is None:
        featurizer = featurizer_from_records(records)
    targets = np.asarray([r.targets for r in records], dtype=np.float64)
    if targets.shape[1] != config.n_targets:
        raise mdl.ConfigError(f"model.n_targets is {config.n_targets}, but the dataset "
                              f"has {targets.shape[1]} targets per molecule")

    train_idx, val_idx, test_idx = split_dataset(len(records), settings.split_seed)
    _check_splits(f"a dataset of {len(records)} molecules",
                  training=train_idx, validation=val_idx, test=test_idx)

    mean = targets[train_idx].mean(axis=0)
    std = targets[train_idx].std(axis=0)
    std[std < 1e-12] = 1.0
    z_targets = (targets - mean) / std

    rng = np.random.default_rng(config.seed)
    data = mdl.featurize(build_union(records, featurizer), config)
    val_batch, test_batch = mdl.take(data, val_idx), mdl.take(data, test_idx)
    params = mdl.init_params(config, featurizer.node_dim,
                             featurizer.edge_dim(records[0].coords is not None), rng)
    state = AdamState(params)

    metric_name, metric = (("mae", mae_metric) if config.n_targets > 1
                           else ("rmse", rmse_metric))

    def run_epoch(epoch):
        order = rng.permutation(train_idx)
        losses = []
        for lo in range(0, len(order), settings.batch_size):
            batch = order[lo:lo + settings.batch_size]
            merged = mdl.take(data, batch)
            losses.append(_step(params, state, settings.lr,
                                lambda: rmse_loss(mdl.forward_batched(merged, params, config),
                                                  z_targets[batch]),
                                epoch, lo // settings.batch_size))
        val_metric = metric(predict_values(val_batch, params, config, mean, std),
                            targets[val_idx])
        return {"epoch": epoch, "train_loss": float(np.mean(losses)),
                "val_metric": val_metric}, val_metric

    report = TrainReport(seed=config.seed, config=asdict(config))
    report.epochs, best_val = _fit(state, settings.epochs, settings.patience, run_epoch)
    test_pred = predict_values(test_batch, params, config, mean, std)
    report.final = {
        "val_metric_best": best_val,
        "val_metric_name": metric_name,
        **_errors(test_pred, targets[test_idx], "test_"),
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
    if not records:
        raise mdl.ConfigError("empty dataset")
    batch = mdl.featurize(build_union(records, featurizer), config)
    targets = np.asarray([r.targets for r in records], dtype=np.float64)
    pred = predict_values(batch, params, config, np.asarray(mean), np.asarray(std))
    return {**_errors(pred, targets), "n": len(records)}


# -- node classification -----------------------------------------------------

def _l2_penalty(params, coefficient):
    """coefficient times the squared norm of the dense maps, the parameters
    named "*.W", as one op. Biases and the path GCN's per-position path maps
    ("path{layer}.len{k}.M{pos}") are not decayed."""
    return l2_penalty([t for name, t in params.items() if name.endswith(".W")], coefficient)


@no_grad()
def _citation_logits(graph, adj, params, config, paths, rng=None):
    """Eval-time logits, computed tape-free. With resampling active and an
    rng supplied, the final evaluation averages the logits of eval_samples
    fresh path draws, one path_gcn_forward each, summed in draw order and
    divided once. The weights do not change between the draws, so layer 1's
    product is formed once per distinct set of path lengths among them and
    kept in graph.products."""
    if config.per_hop_budget == 0 or not config.resample_each_epoch or rng is None:
        return cit.path_gcn_forward(graph, adj, params, paths).values
    samples, total = max(1, config.eval_samples), None
    for _ in range(samples):
        sample = cit.sample_citation_paths(graph, config, rng)
        logits = cit.path_gcn_forward(graph, adj, params, sample).values
        total = logits if total is None else total + logits
    return total / samples


_DROPOUT_CHUNK = 32768   # numbers per pass: a chunk's draw and mask stay in cache


def _dropout_into(out, x, keep: float, rng):
    """out = x * ((rng.random(x.shape) < keep) / keep), bit for bit and
    leaving rng where that one draw leaves it, drawn and multiplied
    _DROPOUT_CHUNK numbers at a time into the C-contiguous float64 `out`:
    PCG64 gives the same stream drawn in pieces as drawn whole, and no
    feature-sized mask or uniform draw is ever held. A non-C-contiguous x
    is read through one C-order copy."""
    flat_x, flat_out = np.ravel(x), out.reshape(-1)
    for lo in range(0, flat_x.size, _DROPOUT_CHUNK):
        part = flat_x[lo:lo + _DROPOUT_CHUNK]
        np.multiply(part, (rng.random(part.size) < keep) / keep,
                    out=flat_out[lo:lo + _DROPOUT_CHUNK])
    return out


def train_node_classification(graph: cit.CitationGraph,
                              config: cit.PathGCNConfig,
                              epochs: int = 200,
                              patience: int = 30) -> TrainResult:
    """Full-batch training with dropout, L2 weight decay, early stopping on
    validation accuracy and best-checkpoint restore. per_hop_budget=0 trains
    a plain GCN through the identical loop."""
    _check_splits(f"a citation network of {graph.n} nodes", training=graph.train_idx,
                  validation=graph.val_idx, test=graph.test_idx)
    started = time.time()
    rng = np.random.default_rng(config.seed)
    adj = cit.normalize_adjacency(graph)
    params = cit.init_gcn_params(config, graph.features.shape[1], graph.n_classes, rng)
    state = AdamState(params)
    eval_rng_seed = int(rng.integers(2 ** 31))

    # fixed sample for per-epoch validation keeps checkpoint selection
    # stable; with resampling, the final metrics average fresh samples
    eval_paths = cit.sample_citation_paths(graph, config, np.random.default_rng(
        eval_rng_seed) if config.resample_each_epoch else rng)

    features = np.ascontiguousarray(graph.features, dtype=np.float64)
    dropped = np.empty_like(features) if config.dropout > 0 else None

    def run_epoch(epoch):
        paths = (cit.sample_citation_paths(graph, config, rng)
                 if config.resample_each_epoch else eval_paths)

        def loss_fn():
            # fresh dropout masks: the dropped-out input is written into
            # `dropped`, one buffer for every step; the hidden mask is small
            dropout = None
            if dropped is not None:
                keep = 1.0 - config.dropout
                dropout = (_dropout_into(dropped, features, keep, rng),
                           (rng.random((graph.n, config.hidden_dim)) < keep) / keep)
            logits = cit.path_gcn_forward(graph, adj, params, paths, dropout)
            loss = cross_entropy(logits, graph.labels, graph.train_idx)
            if config.weight_decay > 0:
                loss = loss + _l2_penalty(params, config.weight_decay)
            return loss

        train_loss = _step(params, state, config.lr, loss_fn, epoch, 0)
        eval_logits = _citation_logits(graph, adj, params, config, eval_paths)
        val_acc = accuracy(eval_logits, graph.labels, graph.val_idx)
        train_acc = accuracy(eval_logits, graph.labels, graph.train_idx)
        # accuracy is higher-is-better; its negation is exact
        return {"epoch": epoch, "train_loss": train_loss,
                "train_accuracy": train_acc, "val_metric": val_acc}, -val_acc

    report = TrainReport(seed=config.seed, config=asdict(config))
    report.epochs, best = _fit(state, epochs, patience, run_epoch)
    eval_logits = _citation_logits(graph, adj, params, config, eval_paths,
                                   np.random.default_rng(eval_rng_seed))
    report.final = {
        "val_accuracy_best": -best,
        "test_accuracy": accuracy(eval_logits, graph.labels, graph.test_idx),
        "train_accuracy": accuracy(eval_logits, graph.labels, graph.train_idx),
    }
    report.wall_clock = time.time() - started
    return TrainResult(report=report, params=params, model_config=None,
                       featurizer=None, target_mean=np.zeros(1), target_std=np.ones(1))
