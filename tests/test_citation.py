import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import pathmpnn.citation as cit
import pathmpnn.paths as P
import pathmpnn.tensor as T
from oracles import citation_path_features
from pathmpnn.citation import (CitationGraph, NormalizedAdjacency, PathGCNConfig, _path_layer,
                               gcn_forward, gcn_layer, init_gcn_params, normalize_adjacency,
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


@pytest.fixture
def k4():
    """The complete graph on four nodes as a CitationGraph, the graph type
    sample_citation_paths takes (the shared fixture is a bare adjacency)."""
    return tiny_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


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

    fused = run(lambda *args: _path_layer(*args, activation=None))
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


def layer_weights(params, layer, paths):
    """The GCN weight, then each length's per-position maps: path_gcn_layer's order."""
    return [params[f"gcn{layer}.W"]] + [params[f"path{layer}.len{k}.M{pos}"]
                                        for k in sorted(paths) for pos in range(k)]


def layer_run(build, x, mask, params, probe):
    """Values, every parameter gradient and x's gradient of one layer built
    on x (through a dropout mask, if given), from fresh gradients."""
    for t in [x, *params.values()]:
        t.grad = None
    h = x if mask is None else T.mul(x, Tensor(mask))
    out = build(h)
    T.backward(T.mul(out, probe).sum())
    return out.values, {name: t.grad for name, t in params.items()}, x.grad


def assert_layers_equal(fused, composed):
    assert np.array_equal(fused[0], composed[0])
    for name, grad in composed[1].items():
        assert (fused[1][name] is None) == (grad is None), name
        assert grad is None or np.array_equal(fused[1][name], grad), name
    assert (fused[2] is None) == (composed[2] is None)
    assert composed[2] is None or np.array_equal(fused[2], composed[2])


def layer_inputs(layer, dropout, seed, path_length=3):
    # layer 1 takes the constant features, layer 2 a hidden state that
    # needs gradients; with dropout, either goes through a mask op first
    g = synth_citation(n_nodes=60, n_features=30, seed=seed % 5)
    config = PathGCNConfig(hidden_dim=5, path_length=path_length, seed=seed)
    rng = np.random.default_rng(seed)
    params = init_gcn_params(config, 30, g.n_classes, rng)
    paths = sample_citation_paths(g, config, rng)
    x = (Tensor(g.features) if layer == "1"
         else Tensor(rng.normal(size=(g.n, 5)), requires_grad=True))
    mask = (rng.random(x.shape) < 0.5) / 0.5 if dropout else None
    probe = Tensor(rng.normal(size=(g.n, params[f"gcn{layer}.b"].values.shape[0])))
    return g, normalize_adjacency(g), params, paths, x, mask, probe


@given(layer=st.sampled_from(["1", "2"]), path_length=st.integers(2, 4),
       dropout=st.booleans(), activation=st.sampled_from([None, "relu"]),
       seed=st.integers(0, 10_000))
def test_path_gcn_layer_equals_composed_form_exactly(layer, path_length, dropout,
                                                     activation, seed):
    # tolerance 0: values, every parameter gradient and the input's gradient
    # (None for the constant layer-1 input), against tests/oracles.py
    g, adj, params, paths, x, mask, probe = layer_inputs(layer, dropout, seed, path_length)
    Ws, b = layer_weights(params, layer, paths), params[f"gcn{layer}.b"]
    assert sorted(paths) == list(range(2, path_length + 1))

    def run(op):
        return layer_run(lambda h: op(h, Ws, b, adj, paths, g.n, activation), x, mask,
                         params, probe)

    fused, composed = run(T.path_gcn_layer), run(oracles.composed_path_gcn_layer)
    assert (fused[2] is None) == (layer == "1")
    assert_layers_equal(fused, composed)
    with T.no_grad():
        h = x if mask is None else T.mul(x, Tensor(mask))
        free = T.path_gcn_layer(h, Ws, b, adj, paths, g.n, activation)
    assert not free.requires_grad and np.array_equal(free.values, fused[0])


@given(layer=st.sampled_from(["1", "2"]), dropout=st.booleans(), seed=st.integers(0, 10_000))
def test_path_gcn_layer_without_paths_equals_gcn_layer(layer, dropout, seed):
    # tolerance 0: no paths leaves the plain GCN layer, relu or linear
    g, adj, params, _, x, mask, probe = layer_inputs(layer, dropout, seed)
    W, b = params[f"gcn{layer}.W"], params[f"gcn{layer}.b"]
    activation = "relu" if layer == "1" else None
    fused = layer_run(lambda h: T.path_gcn_layer(h, [W], b, adj, {}, g.n, activation),
                      x, mask, params, probe)
    plain = layer_run(lambda h: gcn_layer(h, adj, W, b, T.relu if activation else None),
                      x, mask, params, probe)
    assert_layers_equal(fused, plain)


def test_path_gcn_layer_is_one_tape_node():
    g, adj, params, paths, x, _, _ = layer_inputs("2", False, 0)
    out = T.path_gcn_layer(x, layer_weights(params, "2", paths), params["gcn2.b"], adj,
                           paths, g.n)
    assert all(p._backward_fn is None for p in out._parents)
    with pytest.raises(T.ShapeError, match="path_gcn_layer: 5 weights for 6 blocks"):
        T.path_gcn_layer(x, layer_weights(params, "2", paths)[:-1], params["gcn2.b"], adj,
                         paths, g.n)
    # a path map narrower than W: the block width is W's, checked for every
    # block, so the forward's slices and the backward's gradient columns agree
    narrow = layer_weights(params, "2", paths)
    narrow[-1] = Tensor(narrow[-1].values[:, :-1])
    with pytest.raises(T.ShapeError, match="are not all .* wide"):
        T.path_gcn_layer(x, narrow, params["gcn2.b"], adj, paths, g.n)
    # a path map with a row too many: the weights are not joined before the
    # check, which names every weight's shape
    tall = layer_weights(params, "2", paths)
    tall[-1] = Tensor(np.vstack([tall[-1].values, tall[-1].values[:1]]))
    with pytest.raises(T.ShapeError, match=r"incompatible shapes \(\d+, \d+\) and \["):
        T.path_gcn_layer(x, tall, params["gcn2.b"], adj, paths, g.n)


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
        plain = gcn_layer(h, adj, params["gcn1.W"], params["gcn1.b"])
        withp = _path_layer(h, adj, params, "1", paths, g.n, None)
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
    adj_sets = [set(nbrs) for nbrs in oracles.adjacency_oracle(g.n, g.edges)]
    for k, table in paths.items():
        for seq in table.tolist():
            assert len(seq) == k + 1 and len(set(seq)) == len(seq)
            for a, b in zip(seq, seq[1:]):
                assert b in adj_sets[a]


def directed_edges(graph):
    return set(graph.edges) | {(v, u) for u, v in graph.edges}


def sampled_steps(paths):
    """Every consecutive node pair of every sampled path."""
    return [step for table in paths.values() for row in table.tolist()
            for step in zip(row, row[1:])]


def test_a_graph_replaced_with_fewer_edges_samples_only_its_own_edges():
    g = synth_citation(n_nodes=60, n_features=20, seed=3)
    halved = replace(g, edges=g.edges[::2])
    steps = sampled_steps(sample_citation_paths(halved, PathGCNConfig(path_length=3),
                                                np.random.default_rng(0)))
    assert steps and set(steps) <= directed_edges(halved)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), m=st.integers(0, 40),
       keep=st.floats(0.0, 1.0))
def test_the_sampling_csr_is_the_edge_sets_of_the_graph_and_of_a_replaced_one(seed, n, m,
                                                                              keep):
    # exact, int64: for a graph and for replace(graph, edges=subset), the
    # CSR equals the Python-set oracle over the graph's own edges, with
    # duplicates, reversed duplicates, self-loops and isolated nodes; every
    # step of every sampled path is one of those edges
    rng = np.random.default_rng(seed)
    edges = [tuple(rng.integers(n, size=2).tolist()) for _ in range(m)]
    g = tiny_graph(n, edges)
    for graph in (g, replace(g, edges=tuple(e for e in edges if rng.random() < keep))):
        want = oracles.csr_of(oracles.adjacency_oracle(graph.n, graph.edges))
        for got, oracle in zip(graph.sampling_levels[0], want, strict=True):
            assert got.dtype == np.int64 and np.array_equal(got, oracle)
        paths = sample_citation_paths(graph, PathGCNConfig(path_length=3), rng)
        assert set(sampled_steps(paths)) <= directed_edges(graph)


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


SAMPLER_GRAPHS = ["synthetic", "star", "k4", "chain", "triangle and pendant"]


@pytest.mark.parametrize("graph_name, path_length", [
    pytest.param(name, length, id=f"{length}-{name}")
    for length in (2, 3, 4, 5) for name in (SAMPLER_GRAPHS if length < 5 else ["chain"])])
def test_sampler_equals_per_draw_oracle(graph_name, path_length):
    # tolerance 0: the same tables and the same rng end state over repeated
    # draws, against the sampler that lists every extension again per draw.
    # The chain's levels past hop 3 are empty; the triangle's pendant ends
    # 2-paths, such as (1, 0, 3), that have no hop-3 extension
    k4_edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    graph = {"synthetic": lambda: synth_citation(n_nodes=200, seed=path_length),
             "star": lambda: tiny_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
             "k4": lambda: tiny_graph(4, k4_edges),
             "chain": lambda: tiny_graph(4, [(0, 1), (1, 2), (2, 3)]),
             "triangle and pendant": lambda: tiny_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
             }[graph_name]()
    assert_draws_equal_per_draw_oracle(graph, PathGCNConfig(path_length=path_length))


def assert_draws_equal_per_draw_oracle(graph, config):
    for seed in range(4):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_citation_paths(graph, config, rng)
            want = oracles.per_draw_sample_citation_paths(graph, config, oracle_rng)
            assert list(got) == list(want)
            for k in want:
                assert got[k].dtype == np.int64 and np.array_equal(got[k], want[k])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("path_length", [3, 4, 5])
def test_levels_built_a_few_paths_at_a_time_equal_the_per_draw_oracle(path_length,
                                                                      monkeypatch):
    # tolerance 0: a level built 7 paths at a time, with chunks that end
    # mid-root and, on the chain, levels past hop 3 that are empty
    monkeypatch.setattr(cit, "_LEVEL_ROWS", 7)
    for graph in (synth_citation(n_nodes=60, seed=path_length),
                  tiny_graph(4, [(0, 1), (1, 2), (2, 3)])):
        assert_draws_equal_per_draw_oracle(graph, PathGCNConfig(path_length=path_length))


@pytest.mark.parametrize("path_length", [2, 3, 4])
def test_a_draw_after_the_first_lists_no_extensions(path_length):
    # the graph keeps its sampling levels, so a later draw only picks; a
    # draw deeper than any before builds the missing levels from the kept
    # ones. Tolerance 0 against the per-draw sampler, rng end state included
    graph = synth_citation(n_nodes=200, seed=path_length)
    configs = [PathGCNConfig(path_length=2), PathGCNConfig(path_length=path_length)]
    rng, oracle_rng = np.random.default_rng(0), np.random.default_rng(0)
    got = [sample_citation_paths(graph, config, rng) for config in configs]

    def refuse(*args):
        raise AssertionError("a draw listed extensions")

    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((P, "extensions"), (cit, "extensions"), (cit, "_candidates")):
            patch.setattr(module, name, refuse)
        got += [sample_citation_paths(graph, configs[1], rng) for _ in range(3)]
    want = [oracles.per_draw_sample_citation_paths(graph, config, oracle_rng)
            for config in configs + 3 * configs[1:]]
    for a, b in zip(got, want, strict=True):
        assert list(a) == list(b) and all(np.array_equal(a[k], b[k]) for k in b)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sampling_levels_of_the_benchmark_sized_network_hold_under_a_megabyte():
    # one int64 per simple path of length 3, two per 2-path, and the CSR
    # adjacency and one-edge paths: about 0.76 MB at seed 1
    graph = synth_citation(n_nodes=800, n_features=1433, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample_citation_paths(graph, PathGCNConfig(path_length=3), np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sorted(graph.sampling_levels[2]) == [2, 3]
    assert held <= 1_000_000, held


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
        adj = oracles.adjacency_oracle(graph.n, graph.edges)
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
    dropout = None if masks is None else (g.features * masks[0], masks[1])
    adj = normalize_adjacency(g)
    taped = path_gcn_forward(g, adj, params, paths, dropout=dropout)
    with T.no_grad():
        free = path_gcn_forward(g, adj, params, paths, dropout=dropout)
    assert taped.requires_grad and not free.requires_grad
    assert np.array_equal(free.values, taped.values)


# -- path_gcn_layer's product memo, a CitationGraph's `products`: tolerance 0
#    against the product formed with the memo bypassed (a writable copy of
#    the features stands in) --

def memo_case(seed, path_length=3, n_features=30):
    g = synth_citation(n_nodes=60, n_features=n_features, seed=seed % 5)
    config = PathGCNConfig(hidden_dim=5, path_length=path_length, seed=seed)
    rng = np.random.default_rng(seed)
    params = init_gcn_params(config, n_features, g.n_classes, rng)
    return g, normalize_adjacency(g), params, sample_citation_paths(g, config, rng)


def memo_logits(g, adj, params, paths, bypass=False):
    dropout = (np.array(g.features), None) if bypass else None
    with T.no_grad():
        return path_gcn_forward(g, adj, params, paths, dropout=dropout).values


def kept_product(g, paths):
    """The product g keeps for the lengths of `paths`, or None."""
    return g.products.get(tuple(sorted(paths)), (None, None, None))[2]


@given(seed=st.integers(0, 10_000), path_length=st.integers(2, 4))
def test_product_memo_serves_unchanged_weights_and_misses_an_adam_step(seed, path_length):
    g, adj, params, paths = memo_case(seed, path_length)
    state = T.AdamState(params)
    first = memo_logits(g, adj, params, paths)
    z = kept_product(g, paths)
    assert z is not None and not z.flags.writeable
    assert np.array_equal(memo_logits(g, adj, params, paths), first)
    assert kept_product(g, paths) is z
    assert np.array_equal(first, memo_logits(g, adj, params, paths, bypass=True))
    # a taped step reads the memo too; Adam then updates the weights in place
    T.backward(T.cross_entropy(path_gcn_forward(g, adj, params, paths), g.labels,
                               g.train_idx))
    assert kept_product(g, paths) is z
    T.adam_step(params, state, lr=0.01)
    after = memo_logits(g, adj, params, paths)
    assert kept_product(g, paths) is not z and not np.array_equal(after, first)
    assert np.array_equal(after, memo_logits(g, adj, params, paths, bypass=True))


@pytest.mark.parametrize("old, new", [(0.0, -0.0), (np.nan, -np.nan)])
def test_product_memo_compares_weights_bit_for_bit(old, new):
    # 0.0 == -0.0 and NaNs are unequal as values: bits decide
    g, adj, params, paths = memo_case(0)
    W = params["gcn1.W"].values
    W[0, 0] = old
    memo_logits(g, adj, params, paths)
    z = kept_product(g, paths)
    W[0, 0] = new
    got = memo_logits(g, adj, params, paths)
    assert kept_product(g, paths) is not z
    want = memo_logits(g, adj, params, paths, bypass=True)
    assert got.tobytes() == want.tobytes()


def test_product_memo_misses_another_graph_and_a_rebuilt_one():
    g, adj, params, paths = memo_case(1)
    first = memo_logits(g, adj, params, paths)
    z = kept_product(g, paths)
    other = replace(g, features=np.array(g.features))
    got = memo_logits(other, adj, params, paths)
    assert kept_product(other, paths) is not z
    assert np.array_equal(got, memo_logits(other, adj, params, paths, bypass=True))
    rebuilt = memo_case(1)[0]
    assert np.array_equal(memo_logits(rebuilt, adj, params, paths), got)
    assert kept_product(rebuilt, paths) is not z
    assert kept_product(rebuilt, paths) is not kept_product(other, paths)
    assert rebuilt.products[tuple(sorted(paths))][0] is rebuilt.features
    # features swapped on the same graph: the kept h is not this h
    g.features = rebuilt.features
    assert np.array_equal(memo_logits(g, adj, params, paths), first)
    assert kept_product(g, paths) is not z


def test_product_memo_never_holds_a_writable_input():
    g, adj, params, paths = memo_case(2)
    rng = np.random.default_rng(2)
    # training's dropped-out input and hidden mask (layer 2 reads the masked
    # hidden state, writable too)
    dropout = (g.features * ((rng.random(g.features.shape) < 0.5) / 0.5),
               (rng.random((g.n, 5)) < 0.5) / 0.5)
    T.backward(T.cross_entropy(path_gcn_forward(g, adj, params, paths, dropout), g.labels,
                               g.train_idx))
    memo_logits(g, adj, params, paths, bypass=True)
    assert g.products == {}
    # handed a memo directly: a writable input, and a read-only view whose
    # base could still change, are never kept
    with T.no_grad():
        for h in (np.array(g.features), g.features[:, :]):
            _path_layer(Tensor(h), adj, params, "1", paths, g.n, "relu", g.products)
    assert g.products == {}
    memo_logits(g, adj, params, paths)
    assert list(g.products) == [tuple(sorted(paths))]


@given(seed=st.integers(0, 10_000), path_length=st.integers(2, 4))
def test_product_memo_holds_at_most_one_product_per_drawable_set_of_lengths(seed,
                                                                           path_length):
    # draws hold the lengths 2..k for some k, so at most path_length - 1 sets
    g = tiny_graph(9, ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 8), (6, 7)), seed=seed)
    config = PathGCNConfig(hidden_dim=3, path_length=path_length, seed=seed)
    rng = np.random.default_rng(seed)
    params = init_gcn_params(config, 6, g.n_classes, rng)
    adj = normalize_adjacency(g)
    for _ in range(12):
        memo_logits(g, adj, params, sample_citation_paths(g, config, rng))
        assert len(g.products) <= path_length - 1


def test_product_memo_drops_a_collected_graphs_products():
    g, adj, params, paths = memo_case(4)
    memo_logits(g, adj, params, paths)
    _, joined, z, _, _ = g.products[tuple(sorted(paths))]
    joined, z = weakref.ref(joined), weakref.ref(z)
    del g
    gc.collect()
    assert joined() is None and z() is None   # they went with the graph


def test_kept_first_order_sum_is_served_only_for_its_own_read_only_adjacency():
    # tolerance 0 against the composed layer, whichever adjacency comes:
    # another read-only one replaces the kept sum, a writable one is never
    # kept, not even after an in-place edit
    g, adj, params, paths = memo_case(5)
    key = tuple(sorted(paths))
    Ws = [params["gcn1.W"]] + [params[f"path1.len{k}.M{pos}"]
                               for k in sorted(paths) for pos in range(k)]

    def check(a):
        with T.no_grad():
            got = _path_layer(Tensor(g.features), a, params, "1", paths, g.n, "relu",
                              g.products).values
            want = oracles.composed_path_gcn_layer(Tensor(g.features), Ws, params["gcn1.b"],
                                                   a, paths, g.n, "relu").values
        assert np.array_equal(got, want)
        return g.products[key][3:]

    assert not any(a.flags.writeable for a in (adj.src, adj.dst, adj.weight))
    kept_adj, first_order = check(adj)
    assert kept_adj is adj and not first_order.flags.writeable
    assert check(adj)[1] is first_order
    halved = normalize_adjacency(replace(g, edges=g.edges[::2]))
    assert check(halved)[0] is halved
    writable = NormalizedAdjacency(np.array(adj.src), np.array(adj.dst), adj.weight * 0.5)
    for _ in range(2):
        assert check(writable)[0] is halved
        writable.weight[::3] *= 3.0
    assert check(adj)[0] is adj


def test_a_replaced_graph_starts_with_an_empty_memo():
    g, adj, params, paths = memo_case(7)
    memo_logits(g, adj, params, paths)
    assert len(g.products) == 1
    for new in (replace(g), replace(g, features=np.array(g.features))):
        assert new.products == {}
        memo_logits(new, adj, params, paths)
        assert kept_product(new, paths) is not kept_product(g, paths)
    assert "products" not in repr(g)


def test_a_graph_on_a_view_of_a_writable_array_is_never_served():
    # the graph makes its view read-only, but the base can still change
    g, adj, params, paths = memo_case(8)
    base = np.array(g.features)
    g = replace(g, features=base[:, :])
    before = memo_logits(g, adj, params, paths)
    base *= 2.0
    after = memo_logits(g, adj, params, paths)
    assert g.products == {} and not np.array_equal(after, before)
    assert np.array_equal(after, memo_logits(g, adj, params, paths, bypass=True))


def test_product_memo_keeps_no_graph_alive():
    g, adj, params, paths = memo_case(3)
    memo_logits(g, adj, params, paths)
    path_gcn_forward(g, adj, params, paths)
    features = weakref.ref(g.features)
    del g
    gc.collect()
    assert features() is None
