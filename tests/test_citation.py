import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pathmpnn.tensor as T
from pathmpnn.citation import (CitationGraph, PathGCNConfig,
                               citation_path_features, gcn_forward, gcn_layer,
                               init_gcn_params, normalize_adjacency,
                               path_gcn_forward, sample_citation_paths)
from pathmpnn.model import ConfigError
from pathmpnn.synth import synth_citation
from pathmpnn.tensor import Tensor, gradcheck


def tiny_graph(n, edges, n_features=6, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return CitationGraph(
        n=n, edges=tuple(edges),
        features=rng.normal(size=(n, n_features)),
        labels=rng.integers(n_classes, size=n).astype(np.int64),
        train_idx=np.arange(min(2, n)), val_idx=np.arange(n)[-2:],
        test_idx=np.arange(n)[-2:], n_classes=n_classes)


def test_normalize_single_node():
    g = tiny_graph(1, [])
    adj = normalize_adjacency(g)
    assert adj.src.tolist() == [0] and adj.dst.tolist() == [0]
    assert adj.weight.tolist() == [1.0]


def test_normalize_single_edge():
    # hand-computed: degrees 1,1 -> D+I = diag(2,2); every weight 1/2
    g = tiny_graph(2, [(0, 1)])
    adj = normalize_adjacency(g)
    weights = {(s, d): w for s, d, w in zip(adj.src, adj.dst, adj.weight)}
    assert weights[(0, 1)] == pytest.approx(0.5)
    assert weights[(1, 0)] == pytest.approx(0.5)
    assert weights[(0, 0)] == pytest.approx(0.5)
    assert weights[(1, 1)] == pytest.approx(0.5)


def test_normalized_rows_sum_to_one_on_regular_graph():
    ring = tiny_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    adj = normalize_adjacency(ring)
    sums = np.zeros(6)
    np.add.at(sums, adj.dst, adj.weight)
    assert np.allclose(sums, 1.0)


def test_gcn_layer_identity_adjacency_is_dense_map():
    g = tiny_graph(3, [])
    adj = normalize_adjacency(g)   # no edges: self-loops of weight 1
    rng = np.random.default_rng(1)
    W = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    out = gcn_layer(Tensor(g.features), adj, W, b)
    assert np.allclose(out.values, g.features @ W.values + b.values)


def test_gcn_output_shape_and_gradcheck():
    g = tiny_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    adj = normalize_adjacency(g)
    config = PathGCNConfig(hidden_dim=3, per_hop_budget=1, seed=2)
    params = init_gcn_params(config, 6, 2)
    rng = np.random.default_rng(0)
    paths = sample_citation_paths(g, config, rng)
    logits = path_gcn_forward(g, adj, params, paths)
    assert logits.values.shape == (5, 2)

    probe = Tensor(np.random.default_rng(3).normal(size=(5, 2)))

    def loss_fn():
        return T.mul(path_gcn_forward(g, adj, params, paths), probe).sum()

    errs = gradcheck(loss_fn, params)
    assert max(errs.values()) < 1e-4


def test_citation_path_features_match_manual_concat():
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(size=(6, 3)))
    cols = np.array([[1, 2], [3, 4], [5, 0]])
    block = citation_path_features(h, cols).values
    manual = np.concatenate([h.values[cols[:, 0]], h.values[cols[:, 1]]], axis=1)
    assert np.array_equal(block, manual)
    single = citation_path_features(h, np.array([[2]])).values
    assert np.array_equal(single, h.values[[2]])
    assert citation_path_features(h, np.array([[0, 1, 2]])).values.shape == (1, 9)


def test_decomposed_path_maps_equal_concat_matmul():
    # the layer evaluates sum_j h[cols_j] @ M_j; check it equals the
    # concatenated-block form with the stacked matrix
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=(6, 3)))
    cols = np.array([[1, 2], [3, 4], [5, 0]])
    m0 = rng.normal(size=(3, 4))
    m1 = rng.normal(size=(3, 4))
    stacked = np.concatenate([m0, m1], axis=0)
    block_route = citation_path_features(h, cols).values @ stacked
    decomposed = h.values[cols[:, 0]] @ m0 + h.values[cols[:, 1]] @ m1
    assert np.allclose(block_route, decomposed, atol=1e-12)


def per_position_layer(h, adj, params, layer, paths, n):
    """The path layer with one matmul per map: the GCN weight, then each
    position's block applied to that position's column of
    citation_path_features."""
    z = T.matmul(h, params[f"gcn{layer}.W"])
    weighted = T.mul(T.gather_rows(z, adj.src), Tensor(adj.weight[:, None]))
    agg = T.segment_sum(weighted, adj.dst, n)
    for k, table in sorted(paths.items()):
        roots = table[:, 0]
        msg = None
        for pos in range(k):
            zp = citation_path_features(T.matmul(h, params[f"path{layer}.len{k}.M{pos}"]),
                                        table[:, pos + 1:pos + 2])
            msg = zp if msg is None else T.add(msg, zp)
        counts = np.bincount(roots, minlength=n).astype(np.float64)
        counts[counts == 0] = 1.0
        agg = T.add(agg, T.segment_sum(T.mul(msg, Tensor(1.0 / counts[roots][:, None])),
                                       roots, n))
    return T.add(agg, params[f"gcn{layer}.b"])


@pytest.mark.parametrize("layer", ["1", "2"])
def test_one_matmul_layer_equals_per_position_form(layer):
    # layer 1 takes the constant input features: its values and parameter
    # gradients are exactly those of the per-position form (each output
    # column comes out of the same dot products). Layer 2 takes a
    # hidden state that needs gradients; summing h.grad over one matmul
    # instead of one per map may move the last ulp, so values and gradients
    # there are held to 1e-12 relative.
    from pathmpnn.citation import _layer_with_paths
    g = synth_citation(n_nodes=120, n_features=40, seed=3)
    adj = normalize_adjacency(g)
    config = PathGCNConfig(hidden_dim=8, path_length=3, per_hop_budget=1, seed=4)
    params = init_gcn_params(config, 40, g.n_classes)
    paths = sample_citation_paths(g, config, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    width = 40 if layer == "1" else config.hidden_dim
    h_values = g.features if layer == "1" else rng.normal(size=(g.n, width))
    probe = Tensor(rng.normal(size=(g.n, params[f"gcn{layer}.b"].values.shape[0])))

    def run(layer_fn):
        T.zero_grad(params)
        h = Tensor(h_values, requires_grad=layer == "2")
        out = layer_fn(h, adj, params, layer, paths, g.n)
        T.backward(T.mul(out, probe).sum())
        grads = {name: t.grad.copy() for name, t in params.items()   # zeroed in place next run
                 if name.split(".")[0].endswith(layer)}
        return out.values, grads, h.grad

    fused = run(lambda *args: _layer_with_paths(*args, activation=None))
    split = run(per_position_layer)
    pairs = [(fused[0], split[0])] + [(fused[1][k], split[1][k]) for k in split[1]]
    assert fused[1].keys() == split[1].keys() and len(split[1]) == 7
    if layer == "1":
        assert fused[2] is None and split[2] is None
        for a, b in pairs:
            assert np.array_equal(a, b)
    else:
        pairs.append((fused[2], split[2]))
        for a, b in pairs:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_zero_budget_reduces_to_plain_gcn_bit_exact():
    g = synth_citation(n_nodes=60, seed=0)
    adj = normalize_adjacency(g)
    config = PathGCNConfig(per_hop_budget=0, seed=7)
    params = init_gcn_params(config, g.features.shape[1], g.n_classes)
    plain = gcn_forward(g, adj, params)
    path = path_gcn_forward(g, adj, params, None)
    assert np.array_equal(plain.values, path.values)


def test_zero_budget_and_plain_share_initialization():
    cfg0 = PathGCNConfig(per_hop_budget=0, seed=9)
    cfg1 = PathGCNConfig(per_hop_budget=1, seed=9)
    p0 = init_gcn_params(cfg0, 10, 3)
    p1 = init_gcn_params(cfg1, 10, 3)
    for name in p0:
        assert np.array_equal(p0[name].values, p1[name].values)
    assert any(name.startswith("path") for name in p1)


def test_receptive_field_one_layer():
    # path graph 0-1-2-3; perturb node 3 and look at node 0 after ONE layer
    g = tiny_graph(4, [(0, 1), (1, 2), (2, 3)])
    adj = normalize_adjacency(g)
    config = PathGCNConfig(hidden_dim=4, path_length=3, per_hop_budget=1, seed=3)
    params = init_gcn_params(config, 6, 2)
    paths = sample_citation_paths(g, config, np.random.default_rng(0))

    def layer_outputs(features):
        h = Tensor(features)
        from pathmpnn.citation import _layer_with_paths
        plain = gcn_layer(h, adj, params["gcn1.W"], params["gcn1.b"])
        withp = _layer_with_paths(h, adj, params, "1", paths, g.n, None)
        return plain.values[0].copy(), withp.values[0].copy()

    plain_a, path_a = layer_outputs(g.features)
    perturbed = g.features.copy()
    perturbed[3] += 10.0
    plain_b, path_b = layer_outputs(perturbed)
    assert np.allclose(plain_a, plain_b)          # 3 hops away, invisible
    assert np.abs(path_a - path_b).max() > 1e-6   # visible through paths


def test_star_leaves_see_sibling_leaves():
    star = tiny_graph(4, [(0, 1), (0, 2), (0, 3)])
    adj = normalize_adjacency(star)
    config = PathGCNConfig(hidden_dim=4, path_length=2, per_hop_budget=1, seed=5)
    params = init_gcn_params(config, 6, 2)
    paths = sample_citation_paths(star, config, np.random.default_rng(1))
    # a leaf root reaches another leaf through the center
    assert any(r != 0 and c != 0 and b == 0 for r, b, c in paths[2].tolist())


def test_sampled_paths_deterministic_given_seed():
    g = synth_citation(n_nodes=50, seed=1)
    config = PathGCNConfig(per_hop_budget=1, seed=0)
    a = sample_citation_paths(g, config, np.random.default_rng(42))
    b = sample_citation_paths(g, config, np.random.default_rng(42))
    assert a.keys() == b.keys() == {2, 3}
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_sampled_paths_are_simple_and_adjacent():
    g = synth_citation(n_nodes=50, seed=2)
    config = PathGCNConfig(per_hop_budget=1, seed=0)
    paths = sample_citation_paths(g, config, np.random.default_rng(3))
    adj_sets = [set(nbrs) for nbrs in g.adjacency]
    for k, table in paths.items():
        for seq in table.tolist():
            assert len(seq) == k + 1 and len(set(seq)) == len(seq)
            for a, b in zip(seq, seq[1:]):
                assert b in adj_sets[a]


def test_per_hop_uniform_choices(k4):
    # budget 1 picks one uniform extension per partial path per hop; check
    # the hop-2 choice frequencies of the partial path (0, 1) on K4
    config = PathGCNConfig(path_length=3, per_hop_budget=1)
    draws = 10_000
    counts = {}
    for seed in range(draws):
        table = sample_citation_paths(k4, config, np.random.default_rng(seed))[2]
        for path in table[(table[:, 0] == 0) & (table[:, 1] == 1)]:
            counts[path[2]] = counts.get(path[2], 0) + 1
    assert set(counts) == {2, 3}
    expected = draws / 2
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 1 dof: mean 1, sd sqrt(2); 3 sigma above is ~5.2
    assert chi2 < 5.2, counts


def test_per_hop_mode_structure(k4):
    config = PathGCNConfig(path_length=3, per_hop_budget=1)
    paths = sample_citation_paths(k4, config, np.random.default_rng(4))
    assert sorted(paths) == [2, 3]
    for k, table in paths.items():
        assert table.shape == (12, k + 1)
        # one extension per first-order neighbor of every root
        assert np.array_equal(np.bincount(table[:, 0]), [3, 3, 3, 3])
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    zero = PathGCNConfig(path_length=3, per_hop_budget=0)
    assert sample_citation_paths(k4, zero, rng) == {}
    assert rng.bit_generator.state == before      # budget 0 draws nothing


@pytest.mark.parametrize("budget", [-1, 2, 3])
def test_budgets_other_than_zero_and_one_are_rejected(budget):
    with pytest.raises(ConfigError,
                       match=rf"^per_hop_budget must be 0 \(plain GCN\) or 1, got {budget}$"):
        PathGCNConfig(per_hop_budget=budget)


def per_partial_path_oracle(graph, config, rng):
    """The budget-1 sampler one partial path at a time, as a Python loop
    over the frontier; returns {length: (roots, non-root columns)}."""
    by_len = {k: ([], []) for k in range(2, config.path_length + 1)}
    if config.per_hop_budget > 0:
        adj = graph.adjacency
        frontier = [(v, w) for v in range(graph.n) for w in adj[v]]
        for hop in range(2, config.path_length + 1):
            draws = rng.random(len(frontier))
            nxt = []
            roots, cols = by_len[hop]
            for i, partial in enumerate(frontier):
                admissible = [y for y in adj[partial[-1]] if y not in partial]
                if not admissible:
                    continue
                path = partial + (admissible[int(draws[i] * len(admissible))],)
                roots.append(path[0])
                cols.append(path[1:])
                nxt.append(path)
            frontier = nxt
    groups = {}
    for k, (roots, cols) in by_len.items():
        if roots:
            groups[k] = (np.asarray(roots, dtype=np.int64),
                         np.asarray(cols, dtype=np.int64))
    return groups


@pytest.mark.parametrize("n_nodes", [1, 50, 300])
@pytest.mark.parametrize("path_length", [2, 3, 4])
def test_budget_one_equals_per_partial_path_oracle(n_nodes, path_length):
    # tolerance 0: same paths in the same order, same rng end state
    graph = synth_citation(n_nodes=n_nodes, seed=n_nodes)
    config = PathGCNConfig(path_length=path_length, per_hop_budget=1)
    for seed in range(3):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            got = sample_citation_paths(graph, config, rng)
            want = per_partial_path_oracle(graph, config, oracle_rng)
            assert list(got) == list(want)
            for k, (roots, cols) in want.items():
                assert got[k].dtype == np.int64
                assert np.array_equal(got[k], np.concatenate([roots[:, None], cols], axis=1))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@given(budget=st.sampled_from([0, 1]), path_length=st.integers(2, 3),
       dropout=st.booleans(), seed=st.integers(0, 10_000))
def test_tape_free_path_gcn_forward_equals_taped_forward(budget, path_length, dropout,
                                                         seed):
    # tolerance 0: the same numpy calls run on the same arrays
    g = synth_citation(n_nodes=80, seed=seed % 7)
    config = PathGCNConfig(hidden_dim=6, per_hop_budget=budget, path_length=path_length,
                           seed=seed)
    rng = np.random.default_rng(seed)
    params = init_gcn_params(config, g.features.shape[1], g.n_classes, rng)
    paths = sample_citation_paths(g, config, rng) if budget else None
    masks = (tuple((rng.random(shape) < 0.5) / 0.5
                   for shape in (g.features.shape, (g.n, config.hidden_dim)))
             if dropout else None)
    adj = normalize_adjacency(g)
    taped = path_gcn_forward(g, adj, params, paths, masks)
    with T.no_grad():
        free = path_gcn_forward(g, adj, params, paths, masks)
    assert taped.requires_grad and not free.requires_grad
    assert np.array_equal(free.values, taped.values)
