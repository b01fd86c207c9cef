"""Finite-difference gradient checks for every op class and for the whole
model, used by the CLI gradcheck command and the test suite."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .model import ModelConfig, build_path_cache, forward, init_params
from .molgraph import FeaturizerConfig, MoleculeRecord, build_graph
from .training import rmse_loss

TOLERANCE = 1e-4


def op_gradchecks(seed: int = 0) -> dict[str, float]:
    """Max relative error per op class, analytic vs central differences."""
    rng = np.random.default_rng(seed)

    def param(shape, positive=False):
        values = rng.normal(size=shape)
        if positive:
            values = np.abs(values) + 0.5
        return T.Tensor(values, requires_grad=True)

    results: dict[str, float] = {}

    def run(name, params, build):
        # fixed random projection makes the loss scalar and deterministic
        probe = T.Tensor(rng.normal(size=build().values.shape))
        errs = T.gradcheck(lambda: T.mul(build(), probe).sum(), params)
        results[name] = max(errs.values())

    a, b = param((4, 3)), param((4, 3))
    run("add", {"a": a, "b": b}, lambda: T.add(a, b))
    run("sub", {"a": a, "b": b}, lambda: T.sub(a, b))
    run("mul", {"a": a, "b": b}, lambda: T.mul(a, b))
    d = param((4, 3), positive=True)
    run("div", {"a": a, "d": d}, lambda: T.div(a, d))

    m1, m2 = param((4, 5)), param((5, 3))
    run("matmul", {"m1": m1, "m2": m2}, lambda: T.matmul(m1, m2))

    c1, c2, c3 = param((3, 2)), param((3, 4)), param((3, 1))
    run("concat", {"c1": c1, "c2": c2, "c3": c3},
        lambda: T.concat([c1, c2, c3], axis=1))

    x = param((5, 4))
    run("relu", {"x": x}, lambda: T.relu(x))
    run("leaky_relu", {"x": x}, lambda: T.leaky_relu(x))
    run("sigmoid", {"x": x}, lambda: T.sigmoid(x))
    run("tanh", {"x": x}, lambda: T.tanh(x))
    run("exp", {"x": x}, lambda: T.exp(x))
    pos = param((5, 4), positive=True)
    run("log", {"pos": pos}, lambda: T.log(pos))
    run("sqrt", {"pos": pos}, lambda: T.sqrt(pos))
    run("softmax", {"x": x}, lambda: T.softmax(x, axis=1))
    run("sum", {"x": x}, lambda: x.sum(axis=0, keepdims=True))

    seg_ids = np.array([0, 0, 1, 2, 2])
    run("segment_sum", {"x": x}, lambda: T.segment_sum(x, seg_ids, 4))
    scores = param((5, 1))
    run("segment_softmax", {"scores": scores, "x": x},
        lambda: T.mul(T.segment_softmax(scores, seg_ids, 4), x))
    run("gather_rows", {"x": x}, lambda: T.gather_rows(x, np.array([2, 0, 2, 4])))
    # overlapping blocks, so two views add into the same columns
    run("columns", {"x": x}, lambda: T.concat([T.columns(x, 1, 3), T.columns(x, 0, 4)],
                                              axis=1))

    d_h = 3
    lstm = {}
    for gate in ("i", "f", "g", "o"):
        lstm[f"lstm.W{gate}"] = param((2 * d_h, d_h))
        lstm[f"lstm.U{gate}"] = param((d_h, d_h))
        lstm[f"lstm.b{gate}"] = param((d_h,))
    xin = T.Tensor(rng.normal(size=(2, 2 * d_h)))
    state = (T.Tensor(rng.normal(size=(2, d_h))), T.Tensor(rng.normal(size=(2, d_h))))

    def lstm_out():
        W, b = T.lstm_weights(lstm)
        h, c = T.lstm_cell([xin], state, W, b)
        return T.concat([h, c], axis=1)

    run("lstm_cell", lstm, lstm_out)

    # gradient accumulation across reuse of one tensor
    w = param((3, 3))
    run("reused_tensor", {"w": w}, lambda: T.add(T.matmul(w, w), T.mul(w, 2.0)))

    # three parts, one of them constant, with and without a bias; drawn last,
    # so the checks above keep their inputs
    w7, bias = param((7, 2)), param((2,))
    const = T.Tensor(rng.normal(size=(3, 1)))
    run("dense", {"c1": c1, "c2": c2, "w7": w7, "bias": bias},
        lambda: T.dense([c1, c2, const], w7, bias))
    run("dense_no_bias", {"c1": c1, "c2": c2, "w7": w7},
        lambda: T.dense([c1, c2, const], w7))
    run("reshape", {"c2": c2}, lambda: T.reshape(c2, (2, 6)))
    # the fused readout ops: weights one per row, q rows gathered unsorted
    weights, q = param((5, 1)), param((3, 4))
    run("segment_weighted_sum", {"weights": weights, "x": x},
        lambda: T.segment_weighted_sum(weights, x, seg_ids, 4))
    run("row_dot", {"x": x, "q": q}, lambda: T.row_dot(x, q, np.array([2, 0, 2, 1, 0])))
    return results


def probe_molecule() -> tuple[MoleculeRecord, FeaturizerConfig]:
    """Five heavy atoms, one branch, generic coordinates; supports paths up
    to length 3 with non-degenerate geometry."""
    record = MoleculeRecord(
        id="probe",
        elements=("C", "C", "O", "N", "C"),
        bonds=((0, 1, "single"), (1, 2, "single"), (2, 3, "double"), (1, 4, "single")),
        targets=(1.0, -0.5),
        coords=np.array([
            [0.0, 0.0, 0.0],
            [1.5, 0.1, -0.2],
            [2.2, 1.4, 0.3],
            [3.6, 1.5, -0.4],
            [1.9, -1.2, 0.5],
        ]),
    )
    return record, FeaturizerConfig(("C", "N", "O"))


def full_model_gradcheck(seed: int = 11) -> dict[str, float]:
    """Gradcheck the entire forward pass (all parameters) on the probe
    molecule, once per feature mode."""
    record, featurizer = probe_molecule()
    graph = build_graph(record, featurizer)
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(1, 2))
    results = {}
    for mode, length in (("base", 1), ("substructure", 2), ("geometry", 3)):
        config = ModelConfig(hidden_dim=4, steps=2, path_length=length,
                             feature_mode=mode, set2set_steps=2, n_targets=2,
                             seed=seed)
        params = init_params(config, graph.node_dim, graph.edge_dim)
        cache = build_path_cache(graph, config)

        def loss_fn():
            return rmse_loss(forward(graph, params, config, cache), target)

        errs = T.gradcheck(loss_fn, params)
        results[mode] = max(errs.values())
    return results
