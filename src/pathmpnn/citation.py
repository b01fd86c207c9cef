"""Node classification on citation networks: a two-layer GCN and its
path-extended variant.

The path variant keeps the full degree-normalized first-order aggregation
and adds messages from sampled higher-order paths (one uniformly sampled
extension per first-order neighbor per hop). Each layer transforms before
aggregating (A_hat (H W) rather than (A_hat H) W, same map, far cheaper on
wide inputs), and per-length linear maps carry the concatenated path states
into the same output space, added before the bias and activation. With a
zero sampling budget the op sequence is exactly the plain GCN's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError
from .paths import csr_adjacency, extensions
from .tensor import (Tensor, add, concat, gather_rows, matmul, mul, relu,
                     segment_sum, glorot, zeros)


@dataclass(eq=False)
class CitationGraph:
    n: int
    edges: tuple                      # unordered pairs (u, v), u != v, deduplicated
    features: np.ndarray              # (n, f) bag-of-words, {0,1}
    labels: np.ndarray                # (n,) class ids
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    n_classes: int = 0
    ids: tuple = ()                   # original document ids, dense order
    adjacency: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_classes == 0:
            self.n_classes = int(self.labels.max()) + 1 if self.n > 0 else 0
        if self.adjacency is None:
            adj = [set() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self.adjacency = tuple(tuple(sorted(s)) for s in adj)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetric degree-normalized adjacency with self-loops, as an edge
    list: weight(v, w) = 1 / sqrt((deg(v)+1)(deg(w)+1))."""
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


def normalize_adjacency(graph: CitationGraph) -> NormalizedAdjacency:
    deg = np.zeros(graph.n, dtype=np.float64)
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    inv = 1.0 / np.sqrt(deg + 1.0)
    src, dst, weight = [], [], []
    for u, v in graph.edges:
        src.extend((u, v))
        dst.extend((v, u))
        w = inv[u] * inv[v]
        weight.extend((w, w))
    for v in range(graph.n):
        src.append(v)
        dst.append(v)
        weight.append(inv[v] * inv[v])
    return NormalizedAdjacency(
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        weight=np.asarray(weight, dtype=np.float64),
    )


@dataclass(frozen=True)
class PathGCNConfig:
    hidden_dim: int = 16
    path_length: int = 3
    per_hop_budget: int = 1     # 0 disables higher-order paths (plain GCN)
    dropout: float = 0.5
    weight_decay: float = 5e-4
    lr: float = 0.01
    resample_each_epoch: bool = True
    eval_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.per_hop_budget not in (0, 1):
            raise ConfigError(f"per_hop_budget must be 0 (plain GCN) or 1, "
                              f"got {self.per_hop_budget!r}")


def init_gcn_params(config: PathGCNConfig, n_features: int, n_classes: int,
                    rng=None) -> dict[str, Tensor]:
    """Plain-GCN weights first so a fixed seed gives the same W/b whether or
    not the path maps exist."""
    rng = np.random.default_rng(config.seed if rng is None else rng)
    d = config.hidden_dim
    params = {
        "gcn1.W": glorot(rng, n_features, d),
        "gcn1.b": zeros(d),
        "gcn2.W": glorot(rng, d, n_classes),
        "gcn2.b": zeros(n_classes),
    }
    if config.per_hop_budget > 0:
        # per-position blocks of the length-k path map: the message for a
        # path is sum_j h_{node_j} @ M_j, the decomposed form of
        # concat(h_path) @ [M_1; ...; M_k]. Started small so early training
        # stays close to the plain GCN; the maps grow where paths help.
        for layer, w_in, w_out in (("1", n_features, d), ("2", d, n_classes)):
            for k in range(2, config.path_length + 1):
                for pos in range(k):
                    block = glorot(rng, k * w_in, w_out, shape=(w_in, w_out))
                    block.values *= 0.1
                    params[f"path{layer}.len{k}.M{pos}"] = block
    return params


def sample_citation_paths(graph: CitationGraph, config: PathGCNConfig,
                          rng) -> dict[int, np.ndarray]:
    """One uniformly sampled extension per partial path per hop, starting
    from every first-order neighbor of every node, as node tables of lengths
    2..path_length (those that drew paths): one draw per partial path.
    Budget 0 returns {} without drawing from rng."""
    if config.per_hop_budget == 0:
        return {}
    csr = csr_adjacency(graph.adjacency)
    frontier = np.stack(extensions(np.arange(graph.n)[:, None], csr), axis=1)
    groups = {}
    for hop in range(2, config.path_length + 1):
        row, nxt = extensions(frontier, csr)
        count = np.bincount(row, minlength=len(frontier))
        first = np.cumsum(count) - count
        draws = rng.random(len(frontier))
        extended = np.flatnonzero(count)
        picks = first[extended] + (draws[extended] * count[extended]).astype(np.int64)
        frontier = np.concatenate([frontier[row[picks]], nxt[picks, None]], axis=1)
        if len(frontier):
            groups[hop] = frontier
    return groups


def citation_path_features(h, path_nodes: np.ndarray):
    """Concatenated hidden states of the path's non-root nodes; citation
    edges carry no features of their own."""
    k = path_nodes.shape[1]
    return concat([gather_rows(h, path_nodes[:, col]) for col in range(k)], axis=1)


def gcn_layer(h, adj: NormalizedAdjacency, W, b, activation=None):
    """Dense transform, weighted neighbor+self sum, bias. Activation only
    where asked (hidden layers); logits stay linear."""
    z = matmul(h, W)
    weighted = mul(gather_rows(z, adj.src), Tensor(adj.weight[:, None]))
    out = add(segment_sum(weighted, adj.dst, h.values.shape[0]), b)
    return activation(out) if activation is not None else out


def _layer_with_paths(h, adj, params, layer: str, paths: dict, n: int,
                      activation):
    z = matmul(h, params[f"gcn{layer}.W"])
    weighted = mul(gather_rows(z, adj.src), Tensor(adj.weight[:, None]))
    agg = segment_sum(weighted, adj.dst, n)
    for k, table in sorted(paths.items()):
        roots = table[:, 0]
        # transform once per position, then gather narrow rows; equal to
        # matmul(citation_path_features(h, table[:, 1:]), stacked per-position maps)
        msg = None
        for pos in range(k):
            zp = gather_rows(matmul(h, params[f"path{layer}.len{k}.M{pos}"]),
                             table[:, pos + 1])
            msg = zp if msg is None else add(msg, zp)
        # per-root mean keeps the path term on the same scale as the
        # degree-normalized first-order aggregation
        counts = np.bincount(roots, minlength=n).astype(np.float64)
        counts[counts == 0] = 1.0
        msg = mul(msg, Tensor(1.0 / counts[roots][:, None]))
        agg = add(agg, segment_sum(msg, roots, n))
    out = add(agg, params[f"gcn{layer}.b"])
    return activation(out) if activation is not None else out


def gcn_forward(graph: CitationGraph, adj: NormalizedAdjacency, params,
                dropout_masks=None):
    """Plain two-layer GCN, no path machinery anywhere."""
    h = Tensor(graph.features)
    if dropout_masks is not None:
        h = mul(h, Tensor(dropout_masks[0]))
    h = gcn_layer(h, adj, params["gcn1.W"], params["gcn1.b"], activation=relu)
    if dropout_masks is not None:
        h = mul(h, Tensor(dropout_masks[1]))
    return gcn_layer(h, adj, params["gcn2.W"], params["gcn2.b"])


def path_gcn_forward(graph: CitationGraph, adj: NormalizedAdjacency, params,
                     paths: dict | None, dropout_masks=None):
    """Two-layer path GCN. With no sampled paths (None or {}) the op
    sequence is exactly the plain GCN's."""
    paths = paths or {}
    h = Tensor(graph.features)
    if dropout_masks is not None:
        h = mul(h, Tensor(dropout_masks[0]))
    h = _layer_with_paths(h, adj, params, "1", paths, graph.n, relu)
    if dropout_masks is not None:
        h = mul(h, Tensor(dropout_masks[1]))
    return _layer_with_paths(h, adj, params, "2", paths, graph.n, None)
