"""Reference forms for the property tests: the primitive ops that only the
composed forms use, the per-op forms that the library's fused ops and
losses replaced, built from the primitive ops (or plain numpy), the
per-tensor Adam step, the exhaustive path counter, the neighbour sets of an
edge list and their CSR, the per-node alcohol detector, the brute-force ring
flags, the join of built graphs, the per-graph batch merge, the citation
sampler that rebuilds its first hops on every draw, the final citation
evaluation with one whole forward per path draw, the per-bond edge feature
dict that molgraph's edge arrays replaced, and the per-line, per-token
citation file parser."""

import warnings
from itertools import accumulate, chain, combinations, permutations, product

import numpy as np

import pathmpnn.citation as cit
import pathmpnn.tensor as T
from pathmpnn.chem import RING_FLAG_DIM, RING_SIZES
from pathmpnn.citation import CitationGraph
from pathmpnn.data import DataFormatError
from pathmpnn.model import GraphBatch, PathGroup
from pathmpnn.molgraph import BOND_ORDERS, ConfigError, GraphUnion
from pathmpnn.paths import extensions

# -- primitive ops that no library code path records --------------------------


def sub(a, b):
    a, b = T.as_tensor(a), T.as_tensor(b)
    out_values = a.values - b.values

    def backward_fn(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g, a.values.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(-g, b.values.shape))

    return T._make(out_values, (a, b), backward_fn, "sub")


def div(a, b):
    a, b = T.as_tensor(a), T.as_tensor(b)
    out_values = a.values / b.values

    def backward_fn(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g / b.values, a.values.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(-g * a.values / (b.values * b.values),
                                            b.values.shape))

    return T._make(out_values, (a, b), backward_fn, "div")


def reshape(a, shape):
    a = T.as_tensor(a)
    out_values = a.values.reshape(shape)

    def backward_fn(g):
        T._accumulate(a, g.reshape(a.values.shape))

    return T._make(out_values, (a,), backward_fn, "reshape")


def leaky_relu(a, slope=0.2):
    return T._elementwise(a, lambda x: T._leaky_relu(x, slope), "leaky_relu")


def sigmoid(a):
    return T._elementwise(a, T._sigmoid, "sigmoid")


def tanh(a):
    return T._elementwise(a, T._tanh, "tanh")


def exp(a):
    a = T.as_tensor(a)
    out_values = np.exp(a.values)

    def backward_fn(g):
        T._accumulate(a, g * out_values)

    return T._make(out_values, (a,), backward_fn, "exp")


def log(a):
    a = T.as_tensor(a)
    out_values = np.log(a.values)

    def backward_fn(g):
        T._accumulate(a, g / a.values)

    return T._make(out_values, (a,), backward_fn, "log")


def sqrt(a):
    a = T.as_tensor(a)
    out_values = np.sqrt(a.values)

    def backward_fn(g):
        T._accumulate(a, g * 0.5 / out_values)

    return T._make(out_values, (a,), backward_fn, "sqrt")


def mean(a):
    """The mean of every entry: a sum, then a multiply by one over the count."""
    return T.mul(T.reduce_sum(a), 1.0 / T.as_tensor(a).values.size)


# -- composed forms ------------------------------------------------------------


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
    shifted = exp(sub(scores, T.Tensor(seg_max[ids])))
    denom = T.segment_sum(shifted, ids, num_segments)
    return div(shifted, T.gather_rows(denom, ids))


def composed_segment_weighted_sum(weights, values, segment_ids, num_segments):
    """mul, then segment_sum: two tape nodes."""
    return T.segment_sum(T.mul(weights, values), segment_ids, num_segments)


def composed_row_dot(a, q, indices):
    """gather_rows, mul, then reduce_sum over the columns: three tape nodes."""
    return T.reduce_sum(T.mul(a, T.gather_rows(q, indices)), axis=1, keepdims=True)


def composed_dense_activation(parts, W, b, activation):
    """dense, then relu or sigmoid as an op of its own: two tape nodes."""
    return {"relu": T.relu, "sigmoid": sigmoid}[activation](T.dense(parts, W, b))


def composed_path_message(h, paths, static, W, b):
    """gather_rows, reshape, dense over a constant static block, then relu:
    four tape nodes and a leaf."""
    h_path = reshape(T.gather_rows(h, paths), (len(paths), paths.shape[1] * h.values.shape[1]))
    return T.relu(T.dense([h_path, T.Tensor(static)], W, b))


def composed_attention(h, messages, roots, n, a, slope=0.2):
    """gather_rows, dense, leaky_relu, segment_softmax and
    segment_weighted_sum: five tape nodes."""
    scores = leaky_relu(T.dense([T.gather_rows(h, roots), messages], a), slope=slope)
    return T.segment_weighted_sum(T.segment_softmax(scores, roots, n), messages, roots, n)


def composed_lstm_cell(inputs, state, W, b):
    """One dense, then columns, sigmoid, tanh, mul and add: 13 tape nodes."""
    h, c = state
    d = h.values.shape[1]
    pre = T.dense(list(inputs) + [h], W, b)
    gates = sigmoid(T.columns(pre, 0, 3 * d))
    i, f, o = (T.columns(gates, lo, lo + d) for lo in (0, d, 2 * d))
    c_new = T.add(T.mul(f, c), T.mul(i, tanh(T.columns(pre, 3 * d, 4 * d))))
    return T.mul(o, tanh(c_new)), c_new


def composed_path_gcn_layer(h, Ws, b, adj, paths, n, activation=None):
    """concat, matmul and one columns view per map, a gather_rows per path
    position, the adds, muls and segment_sums of the first-order and
    per-length sums, the bias and relu: 45 tape nodes at path length 3."""
    z = T.matmul(h, T.concat(Ws, axis=1))
    width = Ws[0].values.shape[1]
    blocks = [T.columns(z, i * width, (i + 1) * width) for i in range(len(Ws))]
    weighted = T.mul(T.gather_rows(blocks[0], adj.src), T.Tensor(adj.weight[:, None]))
    agg = T.segment_sum(weighted, adj.dst, n)
    block = 1
    for k, table in sorted(paths.items()):
        roots = table[:, 0]
        msg = None
        for pos in range(k):
            zp = T.gather_rows(blocks[block], table[:, pos + 1])
            msg = zp if msg is None else T.add(msg, zp)
            block += 1
        counts = np.bincount(roots, minlength=n).astype(np.float64)
        counts[counts == 0] = 1.0
        msg = T.mul(msg, T.Tensor(1.0 / counts[roots][:, None]))
        agg = T.add(agg, T.segment_sum(msg, roots, n))
    out = T.add(agg, b)
    return T.relu(out) if activation == "relu" else out


def composed_rmse_loss(pred, target):
    """sub, mul, the mean's sum and multiply, then sqrt: five tape nodes."""
    diff = sub(pred, target)
    return sqrt(mean(T.mul(diff, diff)))


def composed_cross_entropy(logits, labels, idx):
    """gather_rows, the max shift, exp, the row sums, log, the log
    probabilities, the one-hot pick, the sum and the scale: nine tape nodes."""
    idx = np.asarray(idx, dtype=np.int64)
    picked = T.gather_rows(logits, idx)
    z = sub(picked, T.Tensor(picked.values.max(axis=1, keepdims=True)))
    lse = log(T.reduce_sum(exp(z), axis=1, keepdims=True))
    onehot = np.zeros(picked.values.shape)
    onehot[np.arange(idx.size), np.asarray(labels)[idx]] = 1.0
    return T.mul(T.reduce_sum(T.mul(sub(z, lse), T.Tensor(onehot))), -1.0 / idx.size)


def composed_l2_penalty(tensors, coefficient):
    """Per tensor a square and its sum, the adds between them, then the
    coefficient: three tape nodes per tensor."""
    term = None
    for t in tensors:
        sq = T.reduce_sum(T.mul(t, t))
        term = sq if term is None else T.add(term, sq)
    return T.mul(term, coefficient)


def citation_path_features(h, path_nodes):
    """Concatenated hidden states of the path's non-root nodes; citation
    edges carry no features of their own."""
    k = path_nodes.shape[1]
    return T.concat([T.gather_rows(h, path_nodes[:, col]) for col in range(k)], axis=1)


def per_draw_sample_citation_paths(graph, config, rng):
    """The citation sampler building the CSR adjacency, the one-edge paths
    and their extensions again on every draw, with the same rng calls."""
    if config.per_hop_budget == 0:
        return {}
    csr = csr_of(adjacency_oracle(graph.n, graph.edges))
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


@T.no_grad()
def per_draw_citation_logits(graph, adj, params, config, rng):
    """The final citation evaluation forwarding each of eval_samples fresh
    path draws whole, the layer-1 product formed anew for each from a
    writable copy of the features, which path_gcn_layer never memoizes, and
    averaging the logits: summed in draw order, divided once."""
    total = None
    for _ in range(max(1, config.eval_samples)):
        sample = cit.sample_citation_paths(graph, config, rng)
        logits = cit.path_gcn_forward(graph, adj, params, sample,
                                      dropout=(np.array(graph.features), None)).values
        total = logits if total is None else total + logits
    return total / max(1, config.eval_samples)


COMPOSED_LAYERS = {   # model function -> its composed form, for monkeypatching
    "message_path": composed_path_message,
    "attention_aggregate": composed_attention,
    "node_update": lambda h, m, W, b: composed_dense_activation([h, m], W, b, "sigmoid"),
    "lstm_cell": composed_lstm_cell,
}


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
        gates[gate] = tanh(pre) if gate == "g" else sigmoid(pre)
    c_new = T.add(T.mul(gates["f"], c), T.mul(gates["i"], gates["g"]))
    h_new = T.mul(gates["o"], tanh(c_new))
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
        scores = leaky_relu(composed_dense([T.gather_rows(h, roots), messages],
                                             params[f"attn{t}.h0"]), slope=0.2)
        weights = composed_segment_softmax(scores, roots, n)
        m_v = T.segment_sum(T.mul(weights, messages), roots, n)
    return sigmoid(composed_dense([h, m_v], params[f"upd{t}.W"], params[f"upd{t}.b"]))


def adjacency_oracle(n, edges) -> tuple:
    """Each node's neighbours in an undirected edge list, ascending and once
    each, by Python sets (duplicates, reversed duplicates and self-loops
    included): the loop CitationGraph ran before it read its CSR off its
    edges."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(s)) for s in adj)


def csr_of(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of neighbour lists: the neighbours of v are
    indices[indptr[v]:indptr[v+1]], in list order."""
    indptr = np.array([0, *accumulate(map(len, adjacency))], dtype=np.int64)
    indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64,
                          count=int(indptr[-1]))
    return indptr, indices


def count_paths_oracle(graph, v: int, max_length: int) -> dict[int, int]:
    """Exhaustive path counter used to cross-check enumerate_paths.

    Checks every node sequence of each length for adjacency and
    distinctness; no search tree shared with the enumerator. Intended for
    small graphs (n <= 12).
    """
    adj_sets = [set(nbrs) for nbrs in graph.adjacency]
    counts: dict[int, int] = {}
    nodes = range(graph.n)
    for length in range(1, max_length + 1):
        c = 0
        for tail in product(nodes, repeat=length):
            seq = (v,) + tail
            if len(set(seq)) != length + 1:
                continue
            if all(b in adj_sets[a] for a, b in zip(seq, seq[1:])):
                c += 1
        counts[length] = c
    return counts


def alcohol_oracle(graph) -> tuple[list, list]:
    """chem.detect_alcohol one node at a time over the union's neighbour
    lists: (member nodes ascending, group bonds as (v, w) in both
    orientations, ascending). An O bonds one C and nothing else, or, where
    its molecule lists an H, exactly one C and one H."""
    ptr = graph.ptr.tolist()
    lists_h = [h for a, b in zip(ptr, ptr[1:]) for h in ("H" in graph.elements[a:b],) * (b - a)]
    members, bonds = set(), set()
    for v, el in enumerate(graph.elements):
        nbrs = graph.adjacency[v]
        nbr_els = sorted(graph.elements[w] for w in nbrs)
        if el == "O" and nbr_els == (["C", "H"] if lists_h[v] else ["C"]):
            members.update([v, *nbrs])
            bonds.update(pair for w in nbrs for pair in ((v, w), (w, v)))
    return sorted(members), sorted(bonds)


def rings_oracle(graph) -> np.ndarray:
    """Ring flags by brute force, independent of chem's cycle search: for
    every node subset of size s, check whether the induced subgraph has a
    Hamiltonian cycle."""
    adj_sets = [set(nbrs) for nbrs in graph.adjacency]
    flags = np.zeros((graph.n, RING_FLAG_DIM), dtype=np.float64)
    nodes = range(graph.n)
    for size in RING_SIZES:
        col = RING_SIZES.index(size)
        for subset in combinations(nodes, size):
            anchor, rest = subset[0], subset[1:]
            found = False
            for perm in permutations(rest):
                seq = (anchor,) + perm
                if all(seq[(i + 1) % size] in adj_sets[seq[i]] for i in range(size)):
                    found = True
                    break
            if found:
                for v in subset:
                    flags[v, col] = 1.0
                    flags[v, -1] = 1.0
    return flags


def union_of(graphs) -> GraphUnion:
    """The union of built graphs, each graph's node indices shifted by its
    first node: the reference form of molgraph.build_union, with its error
    for graphs built with and without coordinates."""
    for g in graphs[1:]:
        if g.edge_dim != graphs[0].edge_dim:
            raise ConfigError(f"molecule {g.ids[0]}: edge feature width {g.edge_dim}, "
                              f"but molecule {graphs[0].ids[0]} has {graphs[0].edge_dim}")
    ptr = np.array([0, *accumulate(g.n for g in graphs)])
    shift = ptr[:-1].repeat([len(g.edge_index) for g in graphs])[:, None]   # per edge
    coords = [g.coords for g in graphs]
    return GraphUnion(ptr, np.concatenate([g.node_features for g in graphs]),
                      np.concatenate([g.edge_index for g in graphs]) + shift,
                      np.concatenate([g.edge_attr for g in graphs]),
                      tuple(chain.from_iterable(g.elements for g in graphs)),
                      None if any(c is None for c in coords) else np.concatenate(coords),
                      tuple(chain.from_iterable(g.ids for g in graphs)))


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


def edge_feature_dict(record, config) -> dict:
    """Each kept bond's feature vector, built one bond at a time and keyed
    by the bond in both orientations (v, w) and (w, v), in graph node
    indices: the reference form of build_graph's edge_index and edge_attr."""
    if config.explicit_hydrogens:
        keep = list(range(record.n_atoms))
    else:
        keep = [i for i, el in enumerate(record.elements) if el != "H"]
    remap = {old: new for new, old in enumerate(keep)}
    coords = None if record.coords is None else np.asarray(record.coords)[keep]
    edge_dim = config.edge_dim(coords is not None)
    features = {}
    for i, j, order in record.bonds:
        if i in remap and j in remap:
            vi, vj = remap[i], remap[j]
            feat = np.zeros(edge_dim, dtype=np.float64)
            feat[BOND_ORDERS.index(order)] = 1.0
            if coords is not None:
                feat[-1] = float(np.linalg.norm(coords[vi] - coords[vj]))
            features[(vi, vj)] = features[(vj, vi)] = feat
    return features


def per_line_text(path):
    """(line number, text) for each line of a UTF-8 file, decoded one line
    at a time, so a line that is not UTF-8 is named."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8 text (byte "
                                      f"{raw[err.start]:#04x} at offset {err.start})") from None


def per_token_parse_citation_files(content_path, cites_path, train_per_class=20,
                                   val_size=500, test_size=1000) -> CitationGraph:
    """The content/cites pair read line by line, each feature value by
    float(): the reference form of data.parse_citation_files, which reads
    one-digit rows from their bytes and any other file in one np.loadtxt
    pass."""
    index: dict[str, int] = {}
    rows, row_lines = [], []
    label_index: dict[str, int] = {}
    labels = []
    n_features = None
    for lineno, line in per_line_text(content_path):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < 3:
            raise DataFormatError(f"{content_path}:{lineno}: expected id, features, label")
        doc_id, *feat, label = tokens
        if n_features is None:
            n_features = len(feat)
        elif len(feat) != n_features:
            raise DataFormatError(
                f"{content_path}:{lineno}: {len(feat)} features, expected {n_features}")
        if doc_id in index:
            raise DataFormatError(f"{content_path}:{lineno}: duplicate id {doc_id!r}")
        index[doc_id] = len(index)
        row_lines.append(lineno)
        try:
            rows.append([float(x) for x in feat])
        except ValueError as err:
            raise DataFormatError(f"{content_path}:{lineno}: feature values must be "
                                  f"numbers ({err})") from None
        labels.append(label_index.setdefault(label, len(label_index)))
    features = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=-1))   # float() reads nan, inf
    if bad.size:
        value = next(v for v in features[bad[0]] if not np.isfinite(v))
        raise DataFormatError(f"{content_path}:{row_lines[bad[0]]}: feature values must be "
                              f"finite numbers, got {value}")

    edges = set()
    dropped = 0
    for lineno, line in per_line_text(cites_path):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise DataFormatError(f"{cites_path}:{lineno}: expected two ids")
        a, b = tokens
        if a not in index or b not in index:
            dropped += 1
            continue
        u, v = index[a], index[b]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    if dropped:
        warnings.warn(f"{cites_path}: dropped {dropped} citation pairs with unknown ids")

    n = len(index)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = len(label_index)
    train = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.flatnonzero(labels == c)[:train_per_class] for c in range(n_classes)]))
    pool = np.setdiff1d(np.arange(n, dtype=np.int64), train)
    val = pool[:min(val_size, len(pool) // 2)]
    test = pool[len(val):][-test_size:]
    return CitationGraph(
        n=n, edges=tuple(sorted(edges)), features=features,
        labels=labels, train_idx=train, val_idx=val, test_idx=test,
        n_classes=n_classes, ids=tuple(index))
