"""Reference forms for the property tests: the per-op forms that the
library's fused ops replaced, built from the primitive ops (or plain numpy),
the per-tensor Adam step and the per-graph batch merge."""

import numpy as np

import pathmpnn.tensor as T
from pathmpnn.model import GraphBatch, PathGroup


def composed_dense(parts, W, b=None):
    """concat, matmul, then add: three tape nodes."""
    out = T.matmul(T.concat(parts, axis=1), W)
    return out if b is None else T.add(out, b)


def masked_sigmoid(x):
    """The overflow-safe logistic written with boolean-mask scatters."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def composed_segment_softmax(scores, segment_ids, num_segments):
    """exp, sub, segment_sum, gather_rows and div: five tape nodes."""
    scores = T.as_tensor(scores)
    ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments,) + scores.values.shape[1:], -np.inf)
    np.maximum.at(seg_max, ids, scores.values)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = T.exp(T.sub(scores, T.Tensor(seg_max[ids])))
    denom = T.segment_sum(shifted, ids, num_segments)
    return T.div(shifted, T.gather_rows(denom, ids))


def composed_segment_weighted_sum(weights, values, segment_ids, num_segments):
    """mul, then segment_sum: two tape nodes."""
    return T.segment_sum(T.mul(weights, values), segment_ids, num_segments)


def composed_row_dot(a, q, indices):
    """gather_rows, mul, then reduce_sum over the columns: three tape nodes."""
    return T.reduce_sum(T.mul(a, T.gather_rows(q, indices)), axis=1, keepdims=True)


class PerTensorAdam:
    """Adam's moments as one pair of arrays per parameter tensor."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.t = 0


def per_tensor_adam_step(params, state, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
    """In-place Adam update with bias correction, about ten numpy ops per
    tensor; a missing gradient is treated as zero."""
    b1, b2 = betas
    state.t += 1
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.values)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p.values -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)


def per_gate_lstm_cell(x, state, params, prefix="lstm"):
    """One LSTM step with two matmuls and two adds per gate."""
    h, c = state
    gates = {}
    for gate in ("i", "f", "g", "o"):
        pre = T.add(T.add(T.matmul(x, params[f"{prefix}.W{gate}"]),
                          T.matmul(h, params[f"{prefix}.U{gate}"])),
                    params[f"{prefix}.b{gate}"])
        gates[gate] = T.tanh(pre) if gate == "g" else T.sigmoid(pre)
    c_new = T.add(T.mul(gates["f"], c), T.mul(gates["i"], gates["g"]))
    h_new = T.mul(gates["o"], T.tanh(c_new))
    return h_new, c_new


def per_column_propagate_step(h, cache, params, config, t):
    """One propagation step with a gather per path position and the
    composed dense and softmax forms."""
    n = h.values.shape[0]
    msgs, roots = [], []
    for k in config.lengths():
        group = cache.get(k)
        if group is None:
            continue
        parts = [T.gather_rows(h, group.paths[:, col]) for col in range(k + 1)]
        msgs.append(T.relu(composed_dense(parts + [T.Tensor(group.static)],
                                          params[f"msg{t}.len{k}.W"],
                                          params[f"msg{t}.len{k}.b"])))
        roots.append(group.paths[:, 0])
    if not msgs:
        m_v = T.Tensor(np.zeros((n, config.hidden_dim)))
    else:
        messages = msgs[0] if len(msgs) == 1 else T.concat(msgs, axis=0)
        roots = np.concatenate(roots)
        scores = T.leaky_relu(composed_dense([T.gather_rows(h, roots), messages],
                                             params[f"attn{t}.h0"]), slope=0.2)
        weights = composed_segment_softmax(scores, roots, n)
        m_v = T.segment_sum(T.mul(weights, messages), roots, n)
    return T.sigmoid(composed_dense([h, m_v], params[f"upd{t}.W"], params[f"upd{t}.b"]))


def merge_batch(graphs, caches) -> GraphBatch:
    """One batch from per-graph path caches, shifting each graph's node
    table by its offset and concatenating: the reference form of
    model.take over model.featurize."""
    offsets = np.cumsum([0] + [g.n for g in graphs])
    x = np.concatenate([g.node_features for g in graphs], axis=0)
    graph_ids = np.concatenate([
        np.full(g.n, i, dtype=np.int64) for i, g in enumerate(graphs)])
    merged: dict[int, list[PathGroup]] = {}
    for off, cache in zip(offsets, caches):
        for k, group in cache.items():
            merged.setdefault(k, []).append(PathGroup(group.paths + off, group.static))
    groups = {k: PathGroup(*(np.concatenate(column) for column in zip(*parts)))
              for k, parts in merged.items()}
    return GraphBatch(x, graph_ids, offsets, groups)
