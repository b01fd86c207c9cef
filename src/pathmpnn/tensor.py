"""Dense tensors with reverse-mode gradient accumulation.

Define-by-run: every op records a backward closure on its output, and
backward() replays the tape in reverse topological order. Values are float64
numpy arrays throughout; model sizes here are small and the gradient checks
need the precision.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from itertools import accumulate

import numpy as np

DEBUG_CHECKS = False  # when True, every op asserts its output is finite
GRAD_ENABLED = True   # False inside no_grad(): ops record no tape


@contextlib.contextmanager
def no_grad():
    """Inside the block, or a function decorated @no_grad(), ops record no
    tape and give the same values, so each intermediate is freed once the
    next op has used it."""
    global GRAD_ENABLED
    previous, GRAD_ENABLED = GRAD_ENABLED, False
    try:
        yield
    finally:
        GRAD_ENABLED = previous


class ShapeError(ValueError):
    pass


def _check_finite(values, op: str):
    if DEBUG_CHECKS and not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite values out of {op}")


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(values, parents, backward_fn, op: str) -> Tensor:
    _check_finite(values, op)
    out = Tensor(values)
    out.requires_grad = GRAD_ENABLED and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g):
    if not t.requires_grad:
        return
    if t.grad is None:   # g always has the tensor's own shape
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_COLUMN_SCATTER_MAX_WIDTH = 8   # measured: per-column bincounts win up to 8 columns


def _scatter_rows(ids, values, n: int):
    """Sum the rows of `values` into `n` rows by id. Up to
    _COLUMN_SCATTER_MAX_WIDTH columns, one bincount per column; wider rows,
    one bincount over the (id, column) bins. Either adds each bin's entries
    in input order, as an unbuffered scatter-add does, so the sums are
    bit-identical to one and several times faster."""
    row_shape = values.shape[ids.ndim:]
    width = math.prod(row_shape)
    bins = ids.reshape(-1)
    flat = values.reshape(len(bins), width)
    if width <= _COLUMN_SCATTER_MAX_WIDTH:
        out = np.empty((n, width))
        for j in range(width):
            out[:, j] = np.bincount(bins, weights=flat[:, j], minlength=n)
    else:
        bins = ((bins * width)[:, None] + np.arange(width)).reshape(-1)
        out = np.bincount(bins, weights=flat.reshape(-1), minlength=n * width)
    return out.astype(np.float64, copy=False).reshape((n,) + row_shape)   # int if empty


# -- forward ops ---------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values + b.values

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "add")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "mul")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.values.shape} and {b.values.shape}")
    out_values = a.values @ b.values

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ g)

    return _make(out_values, (a, b), backward_fn, "matmul")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out_values = np.concatenate([t.values for t in tensors], axis=axis)
    offsets = list(accumulate((t.values.shape[axis] for t in tensors), initial=0))

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets, offsets[1:]):
            if not t.requires_grad:
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_values, tensors, backward_fn, "concat")


# -- shared formulas: each maps input values to (output values, a function
#    from the output's gradient to the input's), for the ops below and for
#    the fused layer ops that chain them ------------------------------------

def _identity(x):
    return x, lambda g: g


def _relu(x):
    mask = x > 0
    return np.where(mask, x, 0.0), lambda g: g * mask


def _leaky_relu(x, slope):
    mask = x > 0
    return np.where(mask, x, slope * x), lambda g: g * np.where(mask, 1.0, slope)


def _sigmoid(x):
    # exp of -|x| never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    pos = x >= 0
    ez = np.exp(np.where(pos, -x, x))
    out = np.where(pos, 1.0, ez) / (1.0 + ez)
    return out, lambda g: g * out * (1.0 - out)


def _tanh(x):
    out = np.tanh(x)
    return out, lambda g: g * (1.0 - out * out)


def _segment_softmax(scores, ids, n: int):
    """Softmax within each segment; the max shift per segment is treated as
    a constant, which leaves the gradient exact: w * (g - segment_sum(w * g)
    gathered back to the rows)."""
    seg_max = np.full((n,) + scores.shape[1:], -np.inf)
    np.maximum.at(seg_max, ids, scores)
    seg_max[~np.isfinite(seg_max)] = 0.0  # empty segments
    shifted = np.exp(scores - seg_max.take(ids, axis=0))
    out = shifted / _scatter_rows(ids, shifted, n).take(ids, axis=0)
    return out, lambda g: out * (g - _scatter_rows(ids, out * g, n).take(ids, axis=0))


_ACTIVATIONS = {None: _identity, "relu": _relu, "sigmoid": _sigmoid}


def _dense_values(values, W: Tensor, b, op: str):
    """The arrays `values` side by side as x, and x @ W (+ b)."""
    x = values[0] if len(values) == 1 else np.concatenate(values, axis=1)
    if x.ndim != 2 or W.values.ndim != 2 or x.shape[1] != W.values.shape[0]:
        raise ShapeError(f"{op}: incompatible shapes {x.shape} and {W.values.shape}")
    out = x @ W.values
    return x, (out if b is None else out + b.values)


def _dense_param_grads(g, x, W: Tensor, b):
    """A dense product's weight and bias gradients: x.T @ g and g's column sums."""
    if W.requires_grad:
        _accumulate(W, x.T @ g)
    if b is not None and b.requires_grad:
        _accumulate(b, _unbroadcast(g, b.values.shape))


def _dense_backward(g, parts, x, W: Tensor, b):
    """dense's backward: one g @ W.T sliced per part, then W's and b's."""
    if any(p.requires_grad for p in parts):
        gx = g @ W.values.T
        offsets = list(accumulate((p.values.shape[1] for p in parts), initial=0))
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            if p.requires_grad:
                _accumulate(p, gx[:, lo:hi])
    _dense_param_grads(g, x, W, b)


def dense(parts, W, b=None, activation=None):
    """activation(concat(parts, axis=1) @ W (+ b)) as one op, the activation
    None, "relu" or "sigmoid". The backward does the composed ops'
    arithmetic: the activation's gradient, one g @ W.T sliced per part,
    x.T @ g and the bias's column sums, so values and gradients are
    bit-identical to activation(add(matmul(concat(parts, axis=1), W), b))."""
    parts = [as_tensor(p) for p in parts]
    W, b = as_tensor(W), (None if b is None else as_tensor(b))
    x, pre = _dense_values([p.values for p in parts], W, b, "dense")
    out_values, activation_grad = _ACTIVATIONS[activation](pre)

    def backward_fn(g):
        _dense_backward(activation_grad(g), parts, x, W, b)

    parents = parts + [W] + ([] if b is None else [b])
    return _make(out_values, parents, backward_fn, "dense")


def columns(a, lo: int, hi: int):
    """Columns lo:hi of a 2-D tensor, as a view; the gradient is added into
    the same columns of a's gradient."""
    a = as_tensor(a)
    out_values = a.values[:, lo:hi]

    def backward_fn(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        a.grad[:, lo:hi] += g

    return _make(out_values, (a,), backward_fn, "columns")


def _elementwise(a, formula, op: str):
    """One op applying a shared formula to a's values."""
    a = as_tensor(a)
    out_values, grad = formula(a.values)
    return _make(out_values, (a,), lambda g: _accumulate(a, grad(g)), op)


def relu(a):
    return _elementwise(a, _relu, "relu")


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_values = a.values.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.values.shape).copy())

    return _make(out_values, (a,), backward_fn, "sum")


def segment_sum(a, segment_ids, num_segments: int):
    """Sum rows of `a` into `num_segments` buckets; empty buckets stay zero."""
    a = as_tensor(a)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape[0] != a.values.shape[0]:
        raise ShapeError(
            f"segment_sum: {a.values.shape[0]} rows vs {ids.shape[0]} segment ids"
        )
    out_values = _scatter_rows(ids, a.values, num_segments)

    def backward_fn(g):
        _accumulate(a, g.take(ids, axis=0))

    return _make(out_values, (a,), backward_fn, "segment_sum")


def segment_weighted_sum(weights, values, segment_ids, num_segments: int):
    """segment_sum(mul(weights, values), ...) as one op: the rows of
    weights * values (weights broadcast, e.g. one per row) summed per
    segment. The backward does the two ops' arithmetic, so values and
    gradients are bit-identical to the composed form."""
    w, v = as_tensor(weights), as_tensor(values)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape[0] != v.values.shape[0]:
        raise ShapeError(
            f"segment_weighted_sum: {v.values.shape[0]} rows vs {ids.shape[0]} segment ids")
    out_values = _scatter_rows(ids, w.values * v.values, num_segments)

    def backward_fn(g):
        g = g.take(ids, axis=0)
        if w.requires_grad:
            _accumulate(w, _unbroadcast(g * v.values, w.values.shape))
        if v.requires_grad:
            _accumulate(v, _unbroadcast(g * w.values, v.values.shape))

    return _make(out_values, (w, v), backward_fn, "segment_weighted_sum")


def row_dot(a, q, indices):
    """Row i of `a` dotted with row indices[i] of `q`, shape (P, 1): the
    composed reduce_sum(mul(a, gather_rows(q, indices)), axis=1,
    keepdims=True) as one op, with the same arithmetic forward and back."""
    a, q = as_tensor(a), as_tensor(q)
    idx = np.asarray(indices, dtype=np.int64)
    gathered = q.values.take(idx, axis=0)
    if gathered.shape != a.values.shape:
        raise ShapeError(f"row_dot: rows {a.values.shape} vs gathered rows {gathered.shape}")
    out_values = (a.values * gathered).sum(axis=1, keepdims=True)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * gathered)
        if q.requires_grad:
            _accumulate(q, _scatter_rows(idx, g * a.values, q.values.shape[0]))

    return _make(out_values, (a, q), backward_fn, "row_dot")


def segment_softmax(scores, segment_ids, num_segments: int):
    """Softmax within each segment, as one op; scores are (P, ...) with one
    weight per row."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    return _elementwise(scores, lambda x: _segment_softmax(x, ids, num_segments),
                        "segment_softmax")


def gather_rows(a, indices):
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_values = a.values.take(idx, axis=0)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _scatter_rows(idx, g, a.values.shape[0]))

    return _make(out_values, (a,), backward_fn, "gather_rows")


LSTM_GATES = ("i", "f", "o", "g")   # the three sigmoid gates first, then tanh


def lstm_weights(params, prefix="lstm"):
    """An LSTM's per-gate parameters {prefix}.W{gate} (input rows),
    {prefix}.U{gate} (state rows) and {prefix}.b{gate}, joined into one
    (in + d, 4d) matrix [W; U] and one 4d bias, gates in LSTM_GATES order.
    Built with ops from the parameter tensors, so gradients reach them."""
    W = concat([concat([params[f"{prefix}.W{gate}"] for gate in LSTM_GATES], axis=1),
                concat([params[f"{prefix}.U{gate}"] for gate in LSTM_GATES], axis=1)],
               axis=0)
    b = concat([params[f"{prefix}.b{gate}"] for gate in LSTM_GATES])
    return W, b


def lstm_cell(inputs, state, W, b):
    """One LSTM step on the input parts `inputs` (joined by columns) and
    state (h, c), with the joined weights of lstm_weights, as one op: one
    dense over [inputs, h], a sigmoid over the i, f, o columns and a tanh
    over the g columns, c' = f c + i g and h' = o tanh(c'). Returns the new
    (h, c) as column views of the op's [h' | c']. The backward does the
    composed ops' arithmetic, so values and gradients are bit-identical to
    them up to the sign of a zero."""
    h, c = (as_tensor(t) for t in state)
    parts = [as_tensor(p) for p in inputs] + [h]
    W, b = as_tensor(W), as_tensor(b)
    d = h.values.shape[1]
    x, pre = _dense_values([p.values for p in parts], W, b, "lstm_cell")
    gates, gates_grad = _sigmoid(pre[:, :3 * d])
    i, f, o = gates[:, :d], gates[:, d:2 * d], gates[:, 2 * d:]
    g_values, g_grad = _tanh(pre[:, 3 * d:])
    c_new = f * c.values + i * g_values
    tc, tc_grad = _tanh(c_new)

    def backward_fn(grad):
        g_h = grad[:, :d]
        g_c = grad[:, d:] + tc_grad(g_h * o)   # c' feeds the next step and tanh(c')
        g_pre = np.empty_like(pre)
        g_pre[:, :3 * d] = gates_grad(np.concatenate([g_c * g_values, g_c * c.values, g_h * tc],
                                                     axis=1))
        g_pre[:, 3 * d:] = g_grad(g_c * i)
        if c.requires_grad:
            _accumulate(c, g_c * f)
        _dense_backward(g_pre, parts, x, W, b)

    hc = _make(np.concatenate([o * tc, c_new], axis=1), parts + [c, W, b], backward_fn,
               "lstm_cell")
    return columns(hc, 0, d), columns(hc, d, 2 * d)


def path_message(h, paths, static, W, b):
    """relu(dense([reshape(gather_rows(h, paths), (P, (k+1)d)), static], W, b))
    as one op: the message over each row of the (P, k+1) node table `paths`,
    its nodes' states side by side, then its row of the constant array
    `static`. The backward does the composed ops' arithmetic, so values and
    gradients are bit-identical to them."""
    h, W, b = as_tensor(h), as_tensor(W), as_tensor(b)
    idx = np.asarray(paths, dtype=np.int64)
    n, d = h.values.shape
    width = idx.shape[1] * d
    x, pre = _dense_values([h.values.take(idx, axis=0).reshape(len(idx), width), static], W, b,
                           "path_message")
    out_values, relu_grad = _relu(pre)

    def backward_fn(g):
        g = relu_grad(g)
        if h.requires_grad:
            gx = g @ W.values[:width].T   # static is constant: skip its rows of W
            _accumulate(h, _scatter_rows(idx, gx.reshape(idx.shape + (d,)), n))
        _dense_param_grads(g, x, W, b)

    return _make(out_values, (h, W, b), backward_fn, "path_message")


def attention(h, messages, roots, n: int, a, slope=0.2):
    """segment_weighted_sum(segment_softmax(leaky_relu(dense([gather_rows(h,
    roots), messages], a), slope), roots, n), messages, roots, n) as one op:
    each message scored against its root's state with the (2d, 1) vector a,
    softmax within each root's messages, the weighted sum per root (zero
    for a root with none). The backward does the composed ops' arithmetic
    in their order, so values and gradients are bit-identical to them."""
    h, msgs, a = as_tensor(h), as_tensor(messages), as_tensor(a)
    ids = np.asarray(roots, dtype=np.int64)
    d = h.values.shape[1]
    x, s = _dense_values([h.values.take(ids, axis=0), msgs.values], a, None, "attention")
    scores, leaky_grad = _leaky_relu(s, slope)
    weights, softmax_grad = _segment_softmax(scores, ids, n)
    out_values = _scatter_rows(ids, weights * msgs.values, n)

    def backward_fn(g):
        g = g.take(ids, axis=0)
        g_s = leaky_grad(softmax_grad(_unbroadcast(g * msgs.values, weights.shape)))
        if msgs.requires_grad:
            _accumulate(msgs, _unbroadcast(g * weights, msgs.values.shape))
        if h.requires_grad or msgs.requires_grad:
            gx = g_s @ a.values.T
            if msgs.requires_grad:
                _accumulate(msgs, gx[:, d:])
            if h.requires_grad:
                _accumulate(h, _scatter_rows(ids, gx[:, :d], h.values.shape[0]))
        _dense_param_grads(g_s, x, a, None)

    return _make(out_values, (h, msgs, a), backward_fn, "attention")


def _fixed(*arrays):
    """Whether no one can change these arrays under a result kept from them:
    read-only, and owning their data (a read-only view's base could change)."""
    return all(not a.flags.writeable and a.flags.owndata for a in arrays)


def _path_gcn_product(h, Ws, paths, adj, n, products=None):
    """path_gcn_layer's product and first-order sum, for an (n, f) array h
    and Ws in path_gcn_layer's order: the joined weight [W | M...], z = h @
    joined, the width of one block, checked to be W's width for every block,
    and the degree-normalized sum of z's W columns over adj's (src, dst,
    weight) edges. A _fixed h has (h, joined, z, adj, sum) kept in
    `products` per set of path lengths. Its product is served again while h
    is the same object and every weight equals its columns of the kept
    joined weight bit for bit (as int64, so -0.0 never passes for 0.0 and
    NaNs compare by their bits): an in-place weight update forms it anew.
    Its sum is served while adj is also the same object; a sum for another
    adj with _fixed arrays replaces it, and one for any other adj is never
    kept. A writable h never enters it."""
    blocks = 1 + sum(paths)   # the first-order block, then one per path position
    if len(Ws) != blocks:
        raise ShapeError(f"path_gcn_layer: {len(Ws)} weights for {blocks} blocks")
    width = Ws[0].values.shape[-1]
    if any(W.values.ndim != 2 or W.values.shape[1] != width for W in Ws):
        raise ShapeError(f"path_gcn_layer: weight shapes {[W.values.shape for W in Ws]} "
                         f"are not all {width} wide")
    if h.ndim != 2 or any(W.values.shape[0] != h.shape[1] for W in Ws):
        raise ShapeError(f"path_gcn_layer: incompatible shapes {h.shape} and "
                         f"{[W.values.shape for W in Ws]}")

    def first_order(z):
        rows = z[:, :width].take(adj.src, axis=0)
        return _scatter_rows(adj.dst, rows * adj.weight[:, None], n)

    if products is None or not _fixed(h):
        joined = np.concatenate([W.values for W in Ws], axis=1)
        z = h @ joined
        return joined, z, width, first_order(z)
    key = tuple(sorted(paths))
    entry = products.pop(key, None)
    if entry is None or entry[0] is not h or not all(
            np.array_equal(W.values.view(np.int64),
                           entry[1][:, i * width:(i + 1) * width].view(np.int64))
            for i, W in enumerate(Ws)):
        entry = None   # a stale product goes before the new one is formed
        joined = np.concatenate([W.values for W in Ws], axis=1)
        z = h @ joined
        z.flags.writeable = False
        entry = (h, joined, z, None, None)
    _, joined, z, kept_adj, agg = entry
    if kept_adj is not adj:
        agg = first_order(z)
        if _fixed(adj.src, adj.dst, adj.weight):
            agg.flags.writeable = False
            entry = (h, joined, z, adj, agg)
    products[key] = entry
    return joined, z, width, agg


def path_gcn_layer(h, Ws, b, adj, paths, n: int, activation=None, products=None):
    """One path-GCN layer as one op, activation None or "relu": one product
    z = h @ [W | M...] against the GCN weight and every per-position path
    map side by side (Ws in that order: W, then per length ascending one
    map per position), the degree-normalized first-order sum of z's W
    columns over adj's (src, dst, weight) edges, and for each length k of
    `paths` ({k: (P, k+1) node table}) the sum over positions of each
    position's map's columns at that position's nodes, scaled by one over
    the root's path count and summed per root, then the bias. The backward
    does the composed ops' arithmetic in their order, so values and
    gradients are bit-identical to them (tests/oracles.py). It keeps the
    index tables, per-path scales and joined weight, not z or a per-path
    row. z and the first-order sum are kept in `products` for a read-only h
    (_path_gcn_product)."""
    h, b = as_tensor(h), as_tensor(b)
    Ws = [as_tensor(W) for W in Ws]
    joined, z, width, agg = _path_gcn_product(h.values, Ws, paths, adj, n, products)
    src, dst, edge_weight = adj.src, adj.dst, adj.weight[:, None]
    groups = []
    lo = width
    for k, table in sorted(paths.items()):
        roots = table[:, 0]
        msg = None
        for pos in range(k):
            zp = z[:, lo:lo + width].take(table[:, pos + 1], axis=0)
            msg = zp if msg is None else msg + zp
            lo += width
        # per-root mean keeps the path term on the same scale as the
        # degree-normalized first-order aggregation
        counts = np.bincount(roots, minlength=n).astype(np.float64)
        counts[counts == 0] = 1.0
        scale = 1.0 / counts.take(roots)[:, None]
        agg = agg + _scatter_rows(roots, msg * scale, n)
        groups.append((k, table, scale))
    out_values, activation_grad = _ACTIVATIONS[activation](agg + b.values)

    def backward_fn(g):
        g = activation_grad(g)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.values.shape))
        weights_grad = any(W.requires_grad for W in Ws)
        if not (h.requires_grad or weights_grad):
            return
        gz = np.zeros((n, joined.shape[1]))
        gz[:, :width] += _scatter_rows(src, g.take(dst, axis=0) * edge_weight, n)
        lo = width
        for k, table, scale in groups:
            g_msg = g.take(table[:, 0], axis=0) * scale
            for pos in range(k):
                gz[:, lo:lo + width] += _scatter_rows(table[:, pos + 1], g_msg, n)
                lo += width
        if h.requires_grad:
            _accumulate(h, gz @ joined.T)
        if weights_grad:
            gw = h.values.T @ gz
            for i, W in enumerate(Ws):
                if W.requires_grad:
                    _accumulate(W, gw[:, i * width:(i + 1) * width])

    return _make(out_values, [h, b] + Ws, backward_fn, "path_gcn_layer")


# -- losses: one op each, whose backward replays the composed form's arithmetic
#    in order (tests/oracles.py), so values and gradients are bit-identical --

def rmse_loss(pred, target):
    """Root-mean-squared error, sqrt(mean((pred - target)^2))."""
    pred, target = as_tensor(pred), as_tensor(target)
    diff = pred.values - target.values
    scale = 1.0 / diff.size
    out_values = np.sqrt((diff * diff).sum() * scale)

    def backward_fn(g):
        g_diff = g * 0.5 / out_values * scale * diff
        g_diff = g_diff + g_diff   # the square's two operands
        _accumulate(pred, _unbroadcast(g_diff, pred.values.shape))
        _accumulate(target, _unbroadcast(-g_diff, target.values.shape))

    return _make(out_values, (pred, target), backward_fn, "rmse_loss")


def cross_entropy(logits, labels, idx):
    """Mean cross entropy over the rows in idx. The per-row max shift is a
    constant, keeping the log-sum-exp stable without touching gradients."""
    logits = as_tensor(logits)
    idx = np.asarray(idx, dtype=np.int64)
    picked = logits.values.take(idx, axis=0)
    z = picked - picked.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sums = ez.sum(axis=1, keepdims=True)
    onehot = np.zeros(picked.shape)
    onehot[np.arange(idx.size), np.asarray(labels)[idx]] = 1.0
    scale = -1.0 / idx.size
    out_values = ((z - np.log(sums)) * onehot).sum() * scale

    def backward_fn(g):
        g_z = g * scale * onehot   # the gradient of z - log(sums)
        g_z = g_z + _unbroadcast(-g_z, sums.shape) / sums * ez
        _accumulate(logits, _scatter_rows(idx, g_z, logits.values.shape[0]))

    return _make(out_values, (logits,), backward_fn, "cross_entropy")


def l2_penalty(tensors, coefficient):
    """coefficient times the sum of the tensors' squared entries. The
    backward adds g * t into each gradient twice, once per operand of the
    square: onto a gradient that holds a layer's share, 2 g t rounds apart."""
    tensors = [as_tensor(t) for t in tensors]
    c = np.float64(coefficient)
    out_values = sum((t.values * t.values).sum() for t in tensors) * c

    def backward_fn(g):
        g = g * c
        for t in tensors:
            g_t = g * t.values
            _accumulate(t, g_t)
            _accumulate(t, g_t)

    return _make(out_values, tensors, backward_fn, "l2_penalty")


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad on every reachable tensor that requires gradients.
    The walk passes over leaves, which have nothing to replay, and drops an
    op output's gradient once its backward has run, so a second backward
    on the same loss adds the same gradients to the leaves again."""
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        raise ValueError("backward on a loss that requires no gradient (computed "
                         "under no_grad or only from constants)")
    topo: list[Tensor] = []
    visited = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward_fn is not None and id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._backward_fn is not None:   # only the loss can be a leaf here
            node._backward_fn(node.grad)
            node.grad = None


def zero_grad(params):
    """Zero every gradient in place, so a packed parameter's gradient stays
    a view of its AdamState's buffer; a gradient never set stays None."""
    for t in params.values():
        if t.grad is not None:
            t.grad.fill(0.0)


# -- optimizer -----------------------------------------------------------

_ADAM_CHUNK = 32768   # numbers per pass: a chunk's temporaries stay in cache


class AdamState:
    """Adam's moments over the parameters packed into one flat buffer.

    Packing copies each parameter's values, and any gradient it already
    has, into the flat `values` and `grads` buffers and rebinds t.values
    and t.grad to reshaped views of them, in dict order. From then on the
    parameters must be updated in place, never rebound: adam_step refuses
    a parameter whose values or gradient no longer views the buffers."""

    def __init__(self, params):
        sizes = [t.values.size for t in params.values()]
        total = sum(sizes)
        self.values, self.grads = np.empty(total), np.zeros(total)
        self.m, self.v = np.zeros(total), np.zeros(total)
        self.t = 0
        self.views = {}
        for (name, t), lo in zip(params.items(), accumulate(sizes, initial=0)):
            shape, hi = t.values.shape, lo + t.values.size
            self.values[lo:hi] = t.values.reshape(-1)
            if t.grad is not None:
                self.grads[lo:hi] = t.grad.reshape(-1)
            t.values = self.values[lo:hi].reshape(shape)
            t.grad = self.grads[lo:hi].reshape(shape)
            self.views[name] = (t.values, t.grad)
        # per chunk: views of the four buffers and of a preallocated scratch pair
        scratch = np.empty((2, min(total, _ADAM_CHUNK)))
        self.chunks = []
        for lo in range(0, total, _ADAM_CHUNK):
            part, size = slice(lo, lo + _ADAM_CHUNK), min(_ADAM_CHUNK, total - lo)
            self.chunks.append((self.values[part], self.grads[part], self.m[part],
                                self.v[part], scratch[0, :size], scratch[1, :size]))

    def check_views(self, params):
        """Raise ValueError naming a parameter that is not the state's, or
        whose values or gradient was rebound after packing."""
        if len(params) != len(self.views):
            raise ValueError(f"AdamState packs {len(self.views)} parameters, got {len(params)}")
        for name, t in params.items():
            values, grad = self.views.get(name, (None, None))
            if t.values is not values or t.grad is not grad:
                raise ValueError(f"parameter {name}: values or gradient no longer views "
                                 "the AdamState buffers (rebound after packing)")


def adam_step(params, state: AdamState, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
    """In-place Adam update with bias correction over the packed buffers, in
    chunks, every temporary written into the state's scratch. The
    elementwise operations and their order are those of the per-tensor
    update, so the result is bit-identical to it."""
    state.check_views(params)
    b1, b2 = betas
    state.t += 1
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    for p, g, m, v, a, b in state.chunks:
        m *= b1
        np.multiply(g, 1 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a
        np.divide(m, correct1, out=a)
        a *= lr
        np.divide(v, correct2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


# -- parameter checkpoints ------------------------------------------------

CHECKPOINT_MAGIC = b"PMPN0001"


class CheckpointError(ValueError):
    """A file that is not a whole parameter checkpoint."""


_MAX_NDIM = 32   # the most dimensions every numpy release holds (numpy 2 holds 64)


@contextlib.contextmanager
def open_replacing(path, mode="w"):
    """A file to write `path` whole: a temporary file in its directory that
    replaces it (os.replace) when the block ends, and is removed instead if
    the block raises, leaving `path` as it was."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def save_params(path, params, metadata=None):
    """Binary checkpoint: magic, JSON metadata block, then a flat list of
    (name, shape, little-endian float64 values). Written whole
    (open_replacing)."""
    meta = json.dumps(metadata or {}).encode("utf-8")
    with open_replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            shape = t.values.shape
            fh.write(struct.pack("<B", len(shape)))
            for dim in shape:
                fh.write(struct.pack("<I", dim))
            fh.write(t.values.astype("<f8").tobytes(order="C"))


def load_params(path):
    """Returns (params dict of Tensors with requires_grad, metadata dict).
    Raises CheckpointError naming the file if it is no whole checkpoint or
    has bytes after its last parameter, and the parameter if its shape is
    impossible or a value is not finite."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read(size):
            # checked before reading: a corrupt shape can ask for any size
            if fh.tell() + size > file_size:
                raise CheckpointError(f"{path}: truncated checkpoint ({file_size} bytes)")
            return fh.read(size)

        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a parameter checkpoint")
        (meta_len,) = struct.unpack("<I", read(4))
        try:
            metadata = json.loads(read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CheckpointError(f"{path}: unreadable checkpoint metadata ({err})") from None
        (count,) = struct.unpack("<I", read(4))
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            name = read(name_len).decode("utf-8", errors="replace")
            (ndim,) = struct.unpack("<B", read(1))
            if ndim > _MAX_NDIM:
                raise CheckpointError(f"{path}: parameter {name}: {ndim} dimensions, "
                                      f"more than {_MAX_NDIM}")
            shape = tuple(struct.unpack("<I", read(4))[0] for _ in range(ndim))
            # a Python int, so a corrupt shape asks read() for its true size
            values = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").astype(np.float64)
            if not np.isfinite(values).all():
                raise CheckpointError(f"{path}: parameter {name}: non-finite value")
            params[name] = Tensor(values.reshape(shape), requires_grad=True)
        if fh.tell() != file_size:
            raise CheckpointError(f"{path}: {file_size - fh.tell()} bytes after the last "
                                  f"parameter")
    return params, metadata


# -- initialization & gradient checking -----------------------------------

def glorot(rng, fan_in, fan_out, shape=None):
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)


def zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def gradcheck(loss_fn, params, eps=1e-5):
    """Max relative error of analytic vs central-difference gradients.

    loss_fn closes over params and returns a scalar Tensor. Returns a dict
    name -> max relative error over that parameter's entries.
    """
    zero_grad(params)
    loss = loss_fn()
    backward(loss)
    analytic = {
        k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.values))
        for k, t in params.items()
    }
    errors = {}
    for name, t in params.items():
        numeric = np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        num_flat = numeric.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = loss_fn().item()
                flat[i] = keep - eps
                lo = loss_fn().item()
                flat[i] = keep
                num_flat[i] = (hi - lo) / (2 * eps)
        diff = np.abs(analytic[name] - numeric)
        denom = np.maximum(np.abs(analytic[name]) + np.abs(numeric), 1e-6)
        errors[name] = float((diff / denom).max()) if flat.size else 0.0
    return errors
