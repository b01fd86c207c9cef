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

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        count = self.values.size if axis is None else self.values.shape[axis]
        return reduce_sum(self, axis=axis, keepdims=keepdims) * (1.0 / count)

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def backward(self):
        backward(self)


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


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values - b.values

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values / b.values

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.values, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.values / (b.values * b.values),
                                        b.values.shape))

    return _make(out_values, (a, b), backward_fn, "div")


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


def dense(parts, W, b=None):
    """concat(parts, axis=1) @ W (+ b) as one op. The backward does the
    three ops' arithmetic: one g @ W.T sliced per part, x.T @ g and the
    bias's column sums, so values and gradients are bit-identical to
    add(matmul(concat(parts, axis=1), W), b)."""
    parts = [as_tensor(p) for p in parts]
    W = as_tensor(W)
    x = (parts[0].values if len(parts) == 1
         else np.concatenate([p.values for p in parts], axis=1))
    if x.ndim != 2 or W.values.ndim != 2 or x.shape[1] != W.values.shape[0]:
        raise ShapeError(f"dense: incompatible shapes {x.shape} and {W.values.shape}")
    out_values = x @ W.values
    parents = parts + [W]
    if b is not None:
        b = as_tensor(b)
        out_values = out_values + b.values
        parents.append(b)
    offsets = list(accumulate((p.values.shape[1] for p in parts), initial=0))

    def backward_fn(g):
        if any(p.requires_grad for p in parts):
            gx = g @ W.values.T
            for p, lo, hi in zip(parts, offsets, offsets[1:]):
                if p.requires_grad:
                    _accumulate(p, gx[:, lo:hi])
        if W.requires_grad:
            _accumulate(W, x.T @ g)
        if b is not None and b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.values.shape))

    return _make(out_values, parents, backward_fn, "dense")


def reshape(a, shape):
    a = as_tensor(a)
    out_values = a.values.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.values.shape))

    return _make(out_values, (a,), backward_fn, "reshape")


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


def relu(a):
    a = as_tensor(a)
    mask = a.values > 0
    out_values = np.where(mask, a.values, 0.0)

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _make(out_values, (a,), backward_fn, "relu")


def leaky_relu(a, slope=0.2):
    a = as_tensor(a)
    mask = a.values > 0
    out_values = np.where(mask, a.values, slope * a.values)

    def backward_fn(g):
        _accumulate(a, g * np.where(mask, 1.0, slope))

    return _make(out_values, (a,), backward_fn, "leaky_relu")


def sigmoid(a):
    a = as_tensor(a)
    # exp of -|x| never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    pos = a.values >= 0
    ez = np.exp(np.where(pos, -a.values, a.values))
    out_values = np.where(pos, 1.0, ez) / (1.0 + ez)

    def backward_fn(g):
        _accumulate(a, g * out_values * (1.0 - out_values))

    return _make(out_values, (a,), backward_fn, "sigmoid")


def tanh(a):
    a = as_tensor(a)
    out_values = np.tanh(a.values)

    def backward_fn(g):
        _accumulate(a, g * (1.0 - out_values * out_values))

    return _make(out_values, (a,), backward_fn, "tanh")


def exp(a):
    a = as_tensor(a)
    out_values = np.exp(a.values)

    def backward_fn(g):
        _accumulate(a, g * out_values)

    return _make(out_values, (a,), backward_fn, "exp")


def log(a):
    a = as_tensor(a)
    out_values = np.log(a.values)

    def backward_fn(g):
        _accumulate(a, g / a.values)

    return _make(out_values, (a,), backward_fn, "log")


def sqrt(a):
    a = as_tensor(a)
    out_values = np.sqrt(a.values)

    def backward_fn(g):
        _accumulate(a, g * 0.5 / out_values)

    return _make(out_values, (a,), backward_fn, "sqrt")


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    out_values = ez / ez.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * out_values).sum(axis=axis, keepdims=True)
        _accumulate(a, out_values * (g - inner))

    return _make(out_values, (a,), backward_fn, "softmax")


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
        _accumulate(a, g[ids])

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
        g = g[ids]
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
    gathered = q.values[idx]
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
    """Softmax within each segment, as one op. Scores are (P, ...) with one
    weight per row; the max shift per segment is treated as a constant,
    which leaves the gradient exact. Backward: w * (g - segment_sum(w * g)
    gathered back to the rows)."""
    scores = as_tensor(scores)
    ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments,) + scores.values.shape[1:], -np.inf)
    np.maximum.at(seg_max, ids, scores.values)
    seg_max[~np.isfinite(seg_max)] = 0.0  # empty segments
    shifted = np.exp(scores.values - seg_max[ids])
    out_values = shifted / _scatter_rows(ids, shifted, num_segments)[ids]

    def backward_fn(g):
        inner = _scatter_rows(ids, out_values * g, num_segments)[ids]
        _accumulate(scores, out_values * (g - inner))

    return _make(out_values, (scores,), backward_fn, "segment_softmax")


def gather_rows(a, indices):
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_values = a.values[idx]

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
    state (h, c), with the joined weights of lstm_weights: one dense over
    [inputs, h], one sigmoid over the i, f, o columns and one tanh over the
    g columns. Returns the new (h, c)."""
    h, c = state
    d = h.values.shape[1]
    pre = dense(list(inputs) + [h], W, b)
    gates = sigmoid(columns(pre, 0, 3 * d))
    i, f, o = (columns(gates, lo, lo + d) for lo in (0, d, 2 * d))
    c_new = add(mul(f, c), mul(i, tanh(columns(pre, 3 * d, 4 * d))))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad on every reachable tensor that requires gradients."""
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
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


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


def save_params(path, params, metadata=None):
    """Binary checkpoint: magic, JSON metadata block, then a flat list of
    (name, shape, little-endian float64 values)."""
    meta = json.dumps(metadata or {}).encode("utf-8")
    with open(path, "wb") as fh:
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
    Raises CheckpointError naming the file if it is no whole checkpoint."""
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
            shape = tuple(struct.unpack("<I", read(4))[0] for _ in range(ndim))
            n_values = int(np.prod(shape)) if shape else 1
            values = np.frombuffer(read(8 * n_values), dtype="<f8").astype(np.float64)
            params[name] = Tensor(values.reshape(shape), requires_grad=True)
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
