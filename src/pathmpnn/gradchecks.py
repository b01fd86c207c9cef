"""Finite-difference gradient checks for every op the library records and
for the whole model, used by the CLI gradcheck command and the test suite."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .citation import NormalizedAdjacency
from .model import ModelConfig, build_path_cache, forward, init_params
from .molgraph import FeaturizerConfig, MoleculeRecord, build_graph
from .training import rmse_loss

TOLERANCE = 1e-4


def op_gradchecks(seed: int = 0) -> dict[str, float]:
    """Max relative error per op, analytic vs central differences."""
    rng = np.random.default_rng(seed)

    def param(shape):
        return T.Tensor(rng.normal(size=shape), requires_grad=True)

    results: dict[str, float] = {}

    def run(name, params, build):
        # fixed random projection makes the loss scalar and deterministic
        probe = T.Tensor(rng.normal(size=build().values.shape))
        errs = T.gradcheck(lambda: T.mul(build(), probe).sum(), params)
        results[name] = max(errs.values())

    a, b = param((4, 3)), param((4, 3))
    run("add", {"a": a, "b": b}, lambda: T.add(a, b))
    run("mul", {"a": a, "b": b}, lambda: T.mul(a, b))

    m1, m2 = param((4, 5)), param((5, 3))
    run("matmul", {"m1": m1, "m2": m2}, lambda: T.matmul(m1, m2))

    c1, c2, c3 = param((3, 2)), param((3, 4)), param((3, 1))
    run("concat", {"c1": c1, "c2": c2, "c3": c3},
        lambda: T.concat([c1, c2, c3], axis=1))

    x = param((5, 4))
    run("relu", {"x": x}, lambda: T.relu(x))
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
    # the fused readout ops: weights one per row, q rows gathered unsorted
    weights, q = param((5, 1)), param((3, 4))
    run("segment_weighted_sum", {"weights": weights, "x": x},
        lambda: T.segment_weighted_sum(weights, x, seg_ids, 4))
    run("row_dot", {"x": x, "q": q}, lambda: T.row_dot(x, q, np.array([2, 0, 2, 1, 0])))
    # the one-node layer ops, drawn last: unsorted, repeated path nodes and
    # roots, node 2 the root of no message
    w6, b2 = param((6, 2)), param((2,))
    for activation in ("relu", "sigmoid"):
        run(f"dense_{activation}", {"c1": c1, "c2": c2, "w6": w6, "b2": b2},
            lambda: T.dense([c1, c2], w6, b2, activation=activation))
    h, paths = param((4, 3)), np.array([[3, 0, 1], [0, 3, 3], [2, 1, 0], [1, 1, 2], [3, 2, 0]])
    static, w_msg, b3 = rng.normal(size=(5, 2)), param((11, 3)), param((3,))
    run("path_message", {"h": h, "w_msg": w_msg, "b3": b3},
        lambda: T.path_message(h, paths, static, w_msg, b3))
    msgs, attn = param((6, 3)), param((6, 1))
    roots = np.array([3, 0, 3, 1, 0, 3])
    run("attention", {"h": h, "msgs": msgs, "attn": attn},
        lambda: T.attention(h, msgs, roots, 4, attn))
    q, r, c = param((2, d_h)), param((2, d_h)), param((2, d_h))

    def lstm_state_out():
        h_new, c_new = T.lstm_cell([q, r], (q, c), *T.lstm_weights(lstm))
        return T.concat([h_new, c_new], axis=1)

    run("lstm_cell_state", lstm | {"q": q, "r": r, "c": c}, lstm_state_out)
    # a path-GCN layer on four nodes: unsorted edges with repeats, paths of
    # lengths 2 and 3 over repeated nodes
    adj = NormalizedAdjacency(roots, np.array([0, 1, 1, 2, 3, 3]), rng.uniform(0.2, 1, 6))
    gcn_paths = {2: np.array([[0, 1, 2], [3, 2, 1], [1, 2, 1]]), 3: np.array([[2, 1, 0, 1]])}
    ws = {f"w{i}": param((3, 2)) for i in range(6)}
    run("path_gcn_layer", ws | {"h": h, "b2": b2},
        lambda: T.path_gcn_layer(h, list(ws.values()), b2, adj, gcn_paths, 4, "relu"))
    # the losses: a broadcast target, rows picked unsorted
    target = param((1, 4))
    run("rmse_loss", {"x": x, "target": target}, lambda: T.rmse_loss(x, target))
    run("cross_entropy", {"x": x},
        lambda: T.cross_entropy(x, np.array([1, 0, 3, 2, 1]), np.array([4, 0, 2])))
    run("l2_penalty", {"w6": w6, "w7": w7}, lambda: T.l2_penalty([w6, w7], 0.3))
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
