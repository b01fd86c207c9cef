"""Node classification on citation networks: a two-layer GCN and its
path-extended variant.

The path variant keeps the full degree-normalized first-order aggregation
and adds messages from sampled higher-order paths (one uniformly sampled
extension per first-order neighbor per hop). Each layer transforms before
aggregating (A_hat (H W) rather than (A_hat H) W, same map, far cheaper on
wide inputs), and per-length linear maps carry the concatenated path states
into the same output space, added before the bias and activation. With a
zero sampling budget the outputs are bit-identical to the plain GCN's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import ConfigError
from .paths import extensions
from .tensor import (Tensor, add, gather_rows, glorot, matmul, mul, path_gcn_layer, relu,
                     segment_sum, zeros)


@dataclass(eq=False)
class CitationGraph:
    n: int
    edges: tuple                      # unordered pairs (u, v), u != v, deduplicated
    features: np.ndarray              # (n, f) bag-of-words, {0,1}; made read-only
    labels: np.ndarray                # (n,) class ids
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    n_classes: int = 0
    ids: tuple = ()                   # original document ids, dense order
    # layer 1's z = features @ [W | M...] per set of path lengths (path_gcn_layer)
    products: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.features.flags.writeable = False   # replace the graph, do not edit it
        if self.n_classes == 0:
            self.n_classes = int(self.labels.max()) + 1 if self.n > 0 else 0

    @cached_property
    def sampling_levels(self):
        """What every path draw reads and no draw changes: the CSR
        adjacency of the edges (neighbours ascending, each once), the table
        of all one-edge paths (root, neighbor), and per hop h >= 2, filled
        by _sampling_level on the first draw that reaches h, the arrays
        (nxt, count, first): each (h-1)-path's number of fresh one-edge
        extensions and the index of its first among all h-paths, and each
        h-path's last node, row-major as paths.extensions gives them. They
        hold one int64 per simple path of length h and two per (h-1)-path,
        so they grow with the graph's path counts (README). Replace the
        graph, do not edit its edges, once paths have been drawn."""
        u, v = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2).T
        keys = np.unique(np.concatenate([u * self.n + v, v * self.n + u]))   # sorted (from, to)
        indptr = np.concatenate([[0], np.bincount(keys // self.n, minlength=self.n).cumsum()])
        csr = indptr, keys % self.n
        return csr, np.stack(extensions(np.arange(self.n)[:, None], csr), axis=1), {}


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetric degree-normalized adjacency with self-loops, as an edge
    list: weight(v, w) = 1 / sqrt((deg(v)+1)(deg(w)+1))."""
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


def normalize_adjacency(graph: CitationGraph) -> NormalizedAdjacency:
    """Each edge's two directions in edge order, then every self-loop. The
    arrays are read-only, so path_gcn_layer may keep sums formed over them."""
    pairs = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    inv = 1.0 / np.sqrt(np.bincount(pairs.ravel(), minlength=graph.n) + 1.0)
    nodes = np.arange(graph.n, dtype=np.int64)
    arrays = (np.concatenate([pairs.ravel(), nodes]),
              np.concatenate([pairs[:, ::-1].ravel(), nodes]),
              np.concatenate([np.repeat(inv[pairs[:, 0]] * inv[pairs[:, 1]], 2), inv * inv]))
    for a in arrays:
        a.flags.writeable = False
    return NormalizedAdjacency(*arrays)


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


_LEVEL_ROWS = 1 << 16   # paths extended at once while a level is built, bounding its temporaries


def _candidates(table: np.ndarray, csr):
    """The one-edge extensions of the paths in `table` as a sampling level:
    each extension's next node, row-major as paths.extensions gives them,
    then each row's count and the position of its first. Listed
    _LEVEL_ROWS rows at a time, so the candidates of a whole table are
    never held at once."""
    nxts, counts = [], []
    for lo in range(0, max(len(table), 1), _LEVEL_ROWS):   # once for an empty table
        rows = table[lo:lo + _LEVEL_ROWS]
        row, nxt = extensions(rows, csr)
        nxts.append(nxt)
        counts.append(np.bincount(row, minlength=len(rows)))
    count = np.concatenate(counts)
    return np.concatenate(nxts), count, np.cumsum(count) - count


def _sampling_level(graph: CitationGraph, hop: int):
    """The graph's sampling level for `hop` (CitationGraph.sampling_levels),
    built on first use from the table of all (hop-1)-paths, which is grown
    again from the one-edge paths through the kept levels and then dropped.
    Levels are asked for in ascending order, so every shallower one is kept."""
    csr, table, levels = graph.sampling_levels
    if hop not in levels:
        for h in range(2, hop):
            nxt, count, _ = levels[h]
            table = np.concatenate([table.repeat(count, axis=0), nxt[:, None]], axis=1)
        levels[hop] = _candidates(table, csr)
    return levels[hop]


def sample_citation_paths(graph: CitationGraph, config: PathGCNConfig,
                          rng) -> dict[int, np.ndarray]:
    """One uniformly sampled extension per partial path per hop, starting
    from every first-order neighbor of every node, as node tables of lengths
    2..path_length (those that drew paths): one draw per partial path.
    `idx` holds each partial path's index among all paths of its length, so
    with the graph's sampling levels a hop is a pick: the drawn extension's
    index among all longer paths is its path's first plus the draw times its
    count. Budget 0 returns {} without drawing from rng."""
    if config.per_hop_budget == 0:
        return {}
    _, frontier, _ = graph.sampling_levels
    idx = np.arange(len(frontier))
    groups = {}
    for hop in range(2, config.path_length + 1):
        nxt, count, first = _sampling_level(graph, hop)
        draws = rng.random(len(frontier))
        count, first = count.take(idx), first.take(idx)
        extended = np.flatnonzero(count)
        idx = first.take(extended) + (draws.take(extended) * count.take(extended)).astype(np.int64)
        frontier = np.concatenate([frontier.take(extended, axis=0), nxt.take(idx)[:, None]],
                                  axis=1)
        if len(frontier):
            groups[hop] = frontier
    return groups


def gcn_layer(h, adj: NormalizedAdjacency, W, b, activation=None):
    """Dense transform, weighted neighbor+self sum, bias. Activation only
    where asked (hidden layers); logits stay linear."""
    z = matmul(h, W)
    weighted = mul(gather_rows(z, adj.src), Tensor(adj.weight[:, None]))
    out = add(segment_sum(weighted, adj.dst, h.values.shape[0]), b)
    return activation(out) if activation is not None else out


def _path_layer(h, adj, params, layer: str, paths: dict, n: int, activation, products=None):
    """path_gcn_layer with the GCN weight, then each length's per-position
    path maps, in the order it joins them."""
    Ws = [params[f"gcn{layer}.W"]] + [params[f"path{layer}.len{k}.M{pos}"]
                                      for k in sorted(paths) for pos in range(k)]
    return path_gcn_layer(h, Ws, params[f"gcn{layer}.b"], adj, paths, n, activation, products)


def gcn_forward(graph: CitationGraph, adj: NormalizedAdjacency, params, dropout=None):
    """Plain two-layer GCN, no path machinery anywhere. dropout=(x,
    hidden_mask) trains with dropout: x, the dropped-out input (the
    features times an input mask), stands in for the features, and the
    hidden activations are multiplied by hidden_mask."""
    x, hidden_mask = (graph.features, None) if dropout is None else dropout
    h = gcn_layer(Tensor(x), adj, params["gcn1.W"], params["gcn1.b"], activation=relu)
    if hidden_mask is not None:
        h = mul(h, Tensor(hidden_mask))
    return gcn_layer(h, adj, params["gcn2.W"], params["gcn2.b"])


def path_gcn_forward(graph: CitationGraph, adj: NormalizedAdjacency, params,
                     paths: dict | None, dropout=None):
    """Two-layer path GCN. With no sampled paths (None or {}) the outputs
    are bit-identical to the plain GCN's. dropout=(x, hidden_mask) as for
    gcn_forward: the input layer reads x instead of the features, and the
    hidden mask is the one dropout op on the tape."""
    paths = paths or {}
    x, hidden_mask = (graph.features, None) if dropout is None else dropout
    products = graph.products if dropout is None else None
    h = _path_layer(Tensor(x), adj, params, "1", paths, graph.n, "relu", products)
    if hidden_mask is not None:
        h = mul(h, Tensor(hidden_mask))
    return _path_layer(h, adj, params, "2", paths, graph.n, None)

