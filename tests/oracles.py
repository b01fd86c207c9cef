"""The per-op forms that the library's fused ops replaced, built from the
primitive ops (or plain numpy), kept as oracles for the property tests."""

import numpy as np

import pathmpnn.tensor as T


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
