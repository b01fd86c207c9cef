"""Dense tensors with reverse-mode gradient accumulation.

Define-by-run: every op records a backward closure on its output, and
backward() replays the tape in reverse topological order. Values are float64
numpy arrays throughout; model sizes here are small and the gradient checks
need the precision.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

DEBUG_CHECKS = False  # when True, every op asserts its output is finite


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
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# -- forward ops ---------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values + b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(g, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values - b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(-g, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values * b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

    return _make(out_values, (a, b), backward_fn, "mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values / b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g / b.values, a.values.shape))
        _accumulate(b, _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return _make(out_values, (a, b), backward_fn, "div")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.values.shape} and {b.values.shape}")
    out_values = a.values @ b.values

    def backward_fn(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _make(out_values, (a, b), backward_fn, "matmul")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out_values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets, offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_values, tensors, backward_fn, "concat")


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
    out_values = np.empty_like(a.values)
    pos = a.values >= 0
    out_values[pos] = 1.0 / (1.0 + np.exp(-a.values[pos]))
    ez = np.exp(a.values[~pos])
    out_values[~pos] = ez / (1.0 + ez)

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
    out_values = np.zeros((num_segments,) + a.values.shape[1:], dtype=np.float64)
    np.add.at(out_values, ids, a.values)

    def backward_fn(g):
        _accumulate(a, g[ids])

    return _make(out_values, (a,), backward_fn, "segment_sum")


def segment_softmax(scores, segment_ids, num_segments: int):
    """Softmax within each segment. Scores are (P, ...) with one weight per
    row; the max shift per segment is treated as a constant, which leaves
    the gradient exact."""
    scores = as_tensor(scores)
    ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments,) + scores.values.shape[1:], -np.inf)
    np.maximum.at(seg_max, ids, scores.values)
    seg_max[~np.isfinite(seg_max)] = 0.0  # empty segments
    shifted = exp(sub(scores, Tensor(seg_max[ids])))
    denom = segment_sum(shifted, ids, num_segments)
    return div(shifted, gather_rows(denom, ids))


def gather_rows(a, indices):
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_values = a.values[idx]

    def backward_fn(g):
        if a.requires_grad:
            acc = np.zeros_like(a.values)
            np.add.at(acc, idx, g)
            _accumulate(a, acc)

    return _make(out_values, (a,), backward_fn, "gather_rows")


def lstm_cell(x, state, params, prefix="lstm"):
    """One LSTM step built from the primitive ops.

    params holds {prefix}.W{i,f,g,o}, {prefix}.U{i,f,g,o}, {prefix}.b{i,f,g,o};
    state is (h, c). Returns the new (h, c).
    """
    h, c = state
    gates = {}
    for gate in ("i", "f", "g", "o"):
        pre = add(add(matmul(x, params[f"{prefix}.W{gate}"]),
                      matmul(h, params[f"{prefix}.U{gate}"])),
                  params[f"{prefix}.b{gate}"])
        gates[gate] = tanh(pre) if gate == "g" else sigmoid(pre)
    c_new = add(mul(gates["f"], c), mul(gates["i"], gates["g"]))
    h_new = mul(gates["o"], tanh(c_new))
    return h_new, c_new


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad on every reachable tensor that requires gradients."""
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
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
    for t in params.values():
        t.grad = None


# -- optimizer -----------------------------------------------------------

class AdamState:
    def __init__(self, params):
        self.m = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.t = 0


def adam_step(params, state: AdamState, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
    """In-place Adam update with bias correction. Missing gradients are
    treated as zero."""
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
