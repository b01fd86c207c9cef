"""Path-message-passing model for molecular property regression.

Each propagation step gathers messages over all simple paths rooted at a
node (lengths 1..path_length, one dense message function per length),
aggregates them with attention, and updates the node state. Readout is
set2set over the final states joined with the raw node features, then a
linear head. path_length=1 in base feature mode is exactly the classic
neighbor-message MPNN, and forward_base_mpnn provides that model as an
independent implementation for reduction testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import chem, geometry
from .geometry import DegenerateGeometryError
from .molgraph import ConfigError, GraphUnion
from .paths import PathExplosionError, enumerate_paths
from .tensor import (Tensor, attention, concat, dense, gather_rows, lstm_cell, lstm_weights,
                     path_message, row_dot, segment_softmax, segment_weighted_sum, glorot,
                     zeros)

FEATURE_MODES = ("base", "substructure", "geometry")


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 16
    steps: int = 2
    path_length: int = 2
    feature_mode: str = "base"
    set2set_steps: int = 3
    n_targets: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim < 1 or self.steps < 1 or self.set2set_steps < 1:
            raise ConfigError("hidden_dim, steps and set2set_steps must be positive")
        if self.path_length not in (1, 2, 3):
            raise ConfigError(f"path_length must be 1, 2 or 3, got {self.path_length}")
        if self.feature_mode not in FEATURE_MODES:
            raise ConfigError(f"feature_mode must be one of {FEATURE_MODES}")

    def lengths(self) -> tuple[int, ...]:
        return tuple(range(1, self.path_length + 1))


def static_feature_width(mode: str, k: int, edge_dim: int) -> int:
    extra = 0
    if mode == "substructure":
        extra = chem.feature_width(k)
    elif mode == "geometry":
        extra = geometry.feature_width(k)
    return k * edge_dim + extra


class PathGroup(NamedTuple):
    paths: np.ndarray   # (P, k+1) node table, root first
    static: np.ndarray  # (P, static_feature_width)


def path_feature_fn(graph, mode: str):
    """A feature mode's own path features as a function from a (P, k+1)
    node table to its (P, width) feature rows, with the per-graph tables
    (ring membership, functional groups) computed once. Base mode has none
    and gives None."""
    if mode == "substructure":
        ring_table = chem.ring_membership(graph)
        groups = chem.detect_groups(graph)
        return lambda paths: chem.substructure_features(paths, ring_table, groups)
    if mode == "geometry":
        if graph.coords is None:
            raise ConfigError("geometry feature mode needs coordinates on the graph")
        return lambda paths: geometry.geometry_features(graph.coords, paths)
    return None


def featurize(graph: GraphUnion, config: ModelConfig) -> GraphBatch:
    """The GraphBatch of a union of molecules: one path enumeration, then
    each length's static rows in one pass. Rows are root-major, so a
    molecule's rows are contiguous and in the order it alone gives. An error
    names the first bad molecule, in its own node indices."""
    n = graph.n
    # an edge's row is found by its key a*n+b; edge_index is sorted, so the keys are
    edge_keys = graph.edge_index[:, 0] * n + graph.edge_index[:, 1]
    try:
        path_features = path_feature_fn(graph, config.feature_mode)
        tables = enumerate_paths(None, np.arange(n), config.path_length, csr=graph.csr)
        cache = {}
        for k, paths in tables.items():
            steps = paths[:, :-1] * n + paths[:, 1:]
            edges = graph.edge_attr.take(edge_keys.searchsorted(steps), axis=0)
            parts = [edges.reshape(len(paths), -1)]
            if path_features is not None:
                parts.append(path_features(paths))
            cache[k] = PathGroup(paths, np.concatenate(parts, axis=1))
    except (ConfigError, DegenerateGeometryError, PathExplosionError) as err:
        if len(graph.ids) == 1:
            raise type(err)(f"molecule {graph.ids[0]}: {err}") from None
        for i in range(len(graph.ids)):   # alone, a molecule's error is in its own indices
            featurize(graph.molecule(i), config)
        raise
    ptr = graph.ptr
    return GraphBatch(graph.node_features, np.arange(len(ptr) - 1).repeat(ptr[1:] - ptr[:-1]),
                      ptr, cache)


def build_path_cache(graph, config: ModelConfig, seed=None) -> dict[int, PathGroup]:
    """One molecule's path groups: featurize's cache. `seed` is unused; it
    stays accepted because perfbench/workloads.py passes it."""
    return featurize(graph, config).cache


def init_params(config: ModelConfig, node_dim: int, edge_dim: int,
                rng=None) -> dict[str, Tensor]:
    rng = np.random.default_rng(config.seed if rng is None else rng)
    d = config.hidden_dim
    params: dict[str, Tensor] = {}
    params["embed.W"] = glorot(rng, node_dim, d)
    params["embed.b"] = zeros(d)
    for t in range(config.steps):
        for k in config.lengths():
            width = d + k * d + static_feature_width(config.feature_mode, k, edge_dim)
            params[f"msg{t}.len{k}.W"] = glorot(rng, width, d)
            params[f"msg{t}.len{k}.b"] = zeros(d)
        params[f"attn{t}.h0"] = glorot(rng, 2 * d, 1)
        params[f"upd{t}.W"] = glorot(rng, 2 * d, d)
        params[f"upd{t}.b"] = zeros(d)
    params["s2s.proj.W"] = glorot(rng, d + node_dim, d)
    params["s2s.proj.b"] = zeros(d)
    for gate in ("i", "f", "g", "o"):
        params[f"s2s.lstm.W{gate}"] = glorot(rng, 2 * d, d)
        params[f"s2s.lstm.U{gate}"] = glorot(rng, d, d)
        params[f"s2s.lstm.b{gate}"] = zeros(d)
    params["head.W"] = glorot(rng, 2 * d, config.n_targets)
    params["head.b"] = zeros(config.n_targets)
    return params


# -- model pieces ----------------------------------------------------------

def message_standard(h_v, h_w, e_vw, W, b):
    """Dense relu message over concatenated node and edge features."""
    return dense([h_v, h_w, e_vw], W, b, activation="relu")


def message_path(h, paths, static, W, b):
    """Dense relu message over each path's node states h[paths], root
    first, side by side, and its static path feature row; one tape node.
    For length-1 paths this is message_standard."""
    return path_message(h, paths, static, W, b)


def attention_aggregate(h, messages, root_ids, n, attn_params, slope=0.2):
    """Score each message against its root with the (2d, 1) attention
    vector attn_params, softmax within the root's message set, return the
    weighted sums; one tape node. Nodes with no messages get a zero vector."""
    return attention(h, messages, root_ids, n, attn_params, slope)


def node_update(h, m, W, b):
    return dense([h, m], W, b, activation="sigmoid")


def _propagate_step(h, cache: dict[int, PathGroup], params, config: ModelConfig, t: int):
    n = h.values.shape[0]
    msgs_parts, roots_parts = [], []
    for k in config.lengths():
        group = cache.get(k)
        if group is None:
            continue
        msgs_parts.append(message_path(h, group.paths, group.static,
                                       params[f"msg{t}.len{k}.W"], params[f"msg{t}.len{k}.b"]))
        roots_parts.append(group.paths[:, 0])

    if not msgs_parts:
        m_v = Tensor(np.zeros((n, config.hidden_dim)))
    else:   # one attention over the messages of every length
        messages = msgs_parts[0] if len(msgs_parts) == 1 else concat(msgs_parts, axis=0)
        roots = roots_parts[0] if len(roots_parts) == 1 else np.concatenate(roots_parts)
        m_v = attention_aggregate(h, messages, roots, n, params[f"attn{t}.h0"])
    return node_update(h, m_v, params[f"upd{t}.W"], params[f"upd{t}.b"])


@dataclass
class GraphBatch:
    """Disjoint union of graphs: stacked node features, per-node graph ids
    for the readout segments, and one path group per length in union node
    indices, rows root-major. Graph i owns nodes ptr[i]:ptr[i+1]."""
    x: np.ndarray
    graph_ids: np.ndarray
    ptr: np.ndarray
    cache: dict[int, PathGroup]

    @property
    def n_graphs(self) -> int:
        return len(self.ptr) - 1

    @cached_property
    def row_ptr(self) -> dict[int, np.ndarray]:
        """Per length, each graph's row offset, from the owners graph_ids[paths[:, 0]]."""
        bounds = np.arange(self.n_graphs + 1)
        return {k: np.searchsorted(self.graph_ids.take(g.paths[:, 0]), bounds)
                for k, g in self.cache.items()}


def _ranges(ptr: np.ndarray, idx: np.ndarray):
    """The ranges ptr[i]:ptr[i+1] for i in idx end to end, and their offsets."""
    start = ptr.take(idx)
    counts = ptr.take(idx + 1) - start
    offsets = np.concatenate([[0], counts.cumsum()])
    return np.arange(offsets[-1]) + (start - offsets[:-1]).repeat(counts), offsets


def take(batch: GraphBatch, idx) -> GraphBatch:
    """The sub-batch of the graphs idx, in that order, by offset arithmetic."""
    idx = np.asarray(idx, dtype=np.int64)
    nodes, ptr = _ranges(batch.ptr, idx)
    shift = ptr[:-1] - batch.ptr.take(idx)     # each graph's new first node minus its old
    cache = {}
    for k, group in batch.cache.items():
        rows, offsets = _ranges(batch.row_ptr[k], idx)
        if len(rows):
            paths = (group.paths.take(rows, axis=0)
                     + shift.repeat(offsets[1:] - offsets[:-1])[:, None])
            cache[k] = PathGroup(paths, group.static.take(rows, axis=0))
    return GraphBatch(batch.x.take(nodes, axis=0), np.arange(len(idx)).repeat(ptr[1:] - ptr[:-1]),
                      ptr, cache)


merge_batch = take   # the name perfbench/spans.py traces; nothing calls it, so it reads 0


def forward(graph, params, config: ModelConfig,
            cache: dict[int, PathGroup] | None = None):
    """One molecule's prediction, shape (1, n_targets): forward_batched on
    its featurize batch or on the given path cache."""
    batch = featurize(graph, config) if cache is None else GraphBatch(
        graph.node_features, np.zeros(graph.n, dtype=np.int64), np.array([0, graph.n]), cache)
    return forward_batched(batch, params, config)


def set2set_readout_batched(h, x, graph_ids, n_graphs, params, steps: int):
    """Permutation-invariant readout per graph: LSTM-driven attention over
    the projected node states of each graph (rows grouped by graph_ids),
    returning concat(query, read) of width 2d per graph."""
    mem = dense([h, x], params["s2s.proj.W"], params["s2s.proj.b"])
    d = mem.values.shape[1]
    lstm_W, lstm_b = lstm_weights(params, prefix="s2s.lstm")
    q = Tensor(np.zeros((n_graphs, d)))
    c = Tensor(np.zeros((n_graphs, d)))
    r = Tensor(np.zeros((n_graphs, d)))
    for _ in range(steps):
        q, c = lstm_cell([q, r], (q, c), lstm_W, lstm_b)
        weights = segment_softmax(row_dot(mem, q, graph_ids), graph_ids, n_graphs)
        r = segment_weighted_sum(weights, mem, graph_ids, n_graphs)
    return concat([q, r], axis=1)


def forward_batched(batch: GraphBatch, params, config: ModelConfig):
    """Predictions for a whole batch in one op stream, shape
    (n_graphs, n_targets)."""
    x = Tensor(batch.x)
    h = dense([x], params["embed.W"], params["embed.b"])
    for t in range(config.steps):
        h = _propagate_step(h, batch.cache, params, config, t)
    read = set2set_readout_batched(h, x, batch.graph_ids, batch.n_graphs,
                                   params, config.set2set_steps)
    return dense([read], params["head.W"], params["head.b"])


def forward_base_mpnn(graph, params, config: ModelConfig):
    """Classic first-order MPNN, written directly over the adjacency list.

    Independent of the path machinery; must agree with forward() when
    path_length=1 in base feature mode (same parameters apply).
    """
    if config.path_length != 1 or config.feature_mode != "base":
        raise ConfigError("the base MPNN is the path_length=1, base-mode model")
    roots, nbrs = graph.edge_index.T
    efeat = Tensor(graph.edge_attr)
    x = Tensor(graph.node_features)
    h = dense([x], params["embed.W"], params["embed.b"])
    for t in range(config.steps):
        if roots.size:
            msg = message_standard(gather_rows(h, roots), gather_rows(h, nbrs),
                                   efeat, params[f"msg{t}.len1.W"],
                                   params[f"msg{t}.len1.b"])
            m_v = attention_aggregate(h, msg, roots, graph.n, params[f"attn{t}.h0"])
        else:
            m_v = Tensor(np.zeros((graph.n, config.hidden_dim)))
        h = node_update(h, m_v, params[f"upd{t}.W"], params[f"upd{t}.b"])
    read = set2set_readout_batched(h, x, np.zeros(graph.n, dtype=np.int64), 1,
                                   params, config.set2set_steps)
    return dense([read], params["head.W"], params["head.b"])
