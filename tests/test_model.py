import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import pathmpnn.model as model_module
import pathmpnn.tensor as T
import pathmpnn.training as training_module
from pathmpnn.chem import detect_groups, ring_membership, substructure_path_features
from pathmpnn.citation import PathGCNConfig
from pathmpnn.geometry import DegenerateGeometryError, geometry_path_features
from pathmpnn.gradchecks import TOLERANCE, full_model_gradcheck, probe_molecule
from oracles import merge_batch, union_of
from pathmpnn.model import (FEATURE_MODES, ConfigError, ModelConfig, PathGroup,
                            attention_aggregate,
                            build_path_cache, featurize, forward, forward_base_mpnn,
                            forward_batched, init_params, message_path,
                            message_standard, node_update, set2set_readout_batched,
                            static_feature_width, take)
from pathmpnn.molgraph import FeaturizerConfig, MoleculeRecord, build_graph, build_union
from pathmpnn.paths import PathExplosionError, enumerate_paths
from pathmpnn.synth import generate_molecules, synth_citation
from pathmpnn.training import featurizer_from_records, rmse_loss

S60 = np.sqrt(3.0) / 2.0
CHAIN_BONDS = ((0, 1, "single"), (1, 2, "single"), (2, 3, "single"))


def chain_record(coords, mol_id="chain"):
    return MoleculeRecord(mol_id, ("C", "C", "C", "C"), CHAIN_BONDS,
                          targets=(0.0,), coords=np.asarray(coords, dtype=np.float64))


CIS = chain_record([[-0.5, S60, 0], [0, 0, 0], [1, 0, 0], [1.5, S60, 0]], "cis")
TRANS = chain_record([[-0.5, S60, 0], [0, 0, 0], [1, 0, 0], [1.5, -S60, 0]], "trans")
FEAT = FeaturizerConfig(("C", "N", "O"))


def small_config(**kw):
    base = dict(hidden_dim=5, steps=2, path_length=2,
                feature_mode="substructure", set2set_steps=2, n_targets=1, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(path_length=4)
    with pytest.raises(ConfigError):
        ModelConfig(feature_mode="other")
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dim=0)
    assert ModelConfig(path_length=3).lengths() == (1, 2, 3)


def test_geometry_mode_requires_coords():
    record = MoleculeRecord("dry", ("C", "C"), ((0, 1, "single"),), targets=(0.0,))
    graph = build_graph(record, FEAT)
    config = small_config(feature_mode="geometry", path_length=3)
    params = init_params(config, graph.node_dim, graph.edge_dim)
    with pytest.raises(ConfigError, match="coordinates"):
        forward(graph, params, config)


def test_message_zero_weights_give_zero_message():
    h = T.Tensor(np.random.default_rng(0).normal(size=(4, 5)))
    e = T.Tensor(np.ones((4, 3)))
    W = T.Tensor(np.zeros((13, 5)))
    b = T.Tensor(np.zeros(5))
    out = message_standard(h, h, e, W, b)
    assert np.all(out.values == 0.0)
    assert out.values.shape == (4, 5)


def test_message_path_length_one_is_message_standard():
    rng = np.random.default_rng(1)
    h_v = T.Tensor(rng.normal(size=(6, 5)))
    h_w = T.Tensor(rng.normal(size=(6, 5)))
    e = T.Tensor(rng.normal(size=(6, 4)))
    W = T.Tensor(rng.normal(size=(14, 5)))
    b = T.Tensor(rng.normal(size=(5,)))
    a = message_standard(h_v, h_w, e, W, b)
    # the six length-1 paths (i, 6 + i) over the stacked states [h_v; h_w]
    paths = np.stack([np.arange(6), np.arange(6, 12)], axis=1)
    b_out = message_path(T.concat([h_v, h_w], axis=0), paths, e.values, W, b)
    assert np.array_equal(a.values, b_out.values)


def test_attention_single_message_passes_through():
    rng = np.random.default_rng(2)
    h = T.Tensor(rng.normal(size=(3, 4)))
    msg = T.Tensor(rng.normal(size=(1, 4)))
    attn = T.Tensor(rng.normal(size=(8, 1)))
    out = attention_aggregate(h, msg, np.array([1]), 3, attn)
    assert np.allclose(out.values[1], msg.values[0])
    assert np.all(out.values[[0, 2]] == 0.0)   # no messages -> zero vector


def test_attention_identical_messages_convex():
    rng = np.random.default_rng(3)
    h = T.Tensor(rng.normal(size=(2, 4)))
    row = rng.normal(size=4)
    msgs = T.Tensor(np.tile(row, (5, 1)))
    attn = T.Tensor(rng.normal(size=(8, 1)))
    out = attention_aggregate(h, msgs, np.zeros(5, dtype=int), 2, attn)
    assert np.allclose(out.values[0], row)


def test_attention_score_shift_invariance():
    # adding a constant to every score must not change the weights
    rng = np.random.default_rng(4)
    scores = T.Tensor(rng.normal(size=(6, 1)))
    ids = np.array([0, 0, 0, 1, 1, 1])
    base = T.segment_softmax(scores, ids, 2).values
    shifted = T.segment_softmax(T.add(scores, 5.0), ids, 2).values
    assert np.allclose(base, shifted, atol=1e-12)


def test_node_update_zero_weights_give_half():
    h = T.Tensor(np.random.default_rng(5).normal(size=(4, 5)))
    out = node_update(h, h, T.Tensor(np.zeros((10, 5))), T.Tensor(np.zeros(5)))
    assert np.allclose(out.values, 0.5)


def test_set2set_permutation_invariant(probe_graph):
    config = small_config()
    params = init_params(config, probe_graph.node_dim, probe_graph.edge_dim)
    rng = np.random.default_rng(6)
    h = rng.normal(size=(probe_graph.n, config.hidden_dim))
    x = probe_graph.node_features
    one_graph = np.zeros(probe_graph.n, dtype=np.int64)
    out = set2set_readout_batched(T.Tensor(h), T.Tensor(x), one_graph, 1, params, 3).values
    perm = rng.permutation(probe_graph.n)
    out_p = set2set_readout_batched(T.Tensor(h[perm]), T.Tensor(x[perm]), one_graph, 1,
                                    params, 3).values
    assert np.abs(out - out_p).max() < 1e-10
    assert out.shape == (1, 2 * config.hidden_dim)


def test_set2set_single_node():
    config = small_config()
    params = init_params(config, 4, 5)
    out = set2set_readout_batched(T.Tensor(np.ones((1, config.hidden_dim))),
                                  T.Tensor(np.ones((1, 4))), np.zeros(1, dtype=np.int64),
                                  1, params, 2)
    assert out.values.shape == (1, 2 * config.hidden_dim)


def test_static_feature_widths():
    assert static_feature_width("base", 2, 5) == 10
    assert static_feature_width("substructure", 2, 5) == 10 + 16
    assert static_feature_width("geometry", 3, 5) == 15 + 8


def test_reduction_length_one_is_base_mpnn(probe_graph):
    config = small_config(path_length=1, feature_mode="base")
    params = init_params(config, probe_graph.node_dim, probe_graph.edge_dim)
    y_path = forward(probe_graph, params, config)
    y_base = forward_base_mpnn(probe_graph, params, config)
    assert np.array_equal(y_path.values, y_base.values)


def test_forward_runs_with_isolated_node():
    record = MoleculeRecord("iso", ("C", "C", "N"), ((0, 1, "single"),),
                            targets=(0.0,))
    graph = build_graph(record, FEAT)
    config = small_config(feature_mode="base")
    params = init_params(config, graph.node_dim, graph.edge_dim)
    y = forward(graph, params, config)
    assert y.values.shape == (1, 1)
    assert np.isfinite(y.values).all()


def test_forward_permutation_invariance(probe_graph):
    record, featurizer = probe_molecule()
    config = small_config(feature_mode="geometry", path_length=3)
    graph = build_graph(record, featurizer)
    params = init_params(config, graph.node_dim, graph.edge_dim)
    y = forward(graph, params, config).values

    rng = np.random.default_rng(8)
    perm = rng.permutation(record.n_atoms)
    inverse = np.argsort(perm)
    permuted = MoleculeRecord(
        record.id,
        tuple(record.elements[inverse[i]] for i in range(record.n_atoms)),
        tuple((int(perm[a]), int(perm[b]), o) for a, b, o in record.bonds),
        targets=record.targets,
        coords=record.coords[inverse],
    )
    graph_p = build_graph(permuted, featurizer)
    y_p = forward(graph_p, params, config).values
    assert np.abs(y - y_p).max() < 1e-8


def test_forward_rigid_motion_invariance():
    record, featurizer = probe_molecule()
    config = small_config(feature_mode="geometry", path_length=3)
    rng = np.random.default_rng(9)
    graph = build_graph(record, featurizer)
    params = init_params(config, graph.node_dim, graph.edge_dim)
    y = forward(graph, params, config).values
    for _ in range(20):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = MoleculeRecord(record.id, record.elements, record.bonds,
                               targets=record.targets,
                               coords=record.coords @ q.T + rng.normal(size=3))
        y_m = forward(build_graph(moved, featurizer), params, config).values
        assert np.abs(y - y_m).max() < 1e-6


def test_stereoisomers_separate_in_geometry_mode_only():
    config_geo = small_config(feature_mode="geometry", path_length=3, seed=21)
    g_cis = build_graph(CIS, FEAT)
    g_trans = build_graph(TRANS, FEAT)
    params = init_params(config_geo, g_cis.node_dim, g_cis.edge_dim)
    y_cis = forward(g_cis, params, config_geo).values
    y_trans = forward(g_trans, params, config_geo).values
    assert np.abs(y_cis - y_trans).max() > 1e-6

    config_base = small_config(feature_mode="base", path_length=1, seed=21)
    params = init_params(config_base, g_cis.node_dim, g_cis.edge_dim)
    y_cis = forward(g_cis, params, config_base).values
    y_trans = forward(g_trans, params, config_base).values
    assert np.abs(y_cis - y_trans).max() < 1e-12


def test_sibling_path_permutation_leaves_message_unchanged(probe_graph):
    # aggregation is a weighted set operation: permuting the path rows of a
    # cache group must not change anything
    config = small_config(feature_mode="substructure")
    params = init_params(config, probe_graph.node_dim, probe_graph.edge_dim)
    cache = build_path_cache(probe_graph, config)
    y = forward(probe_graph, params, config, cache).values
    rng = np.random.default_rng(10)
    for k, group in cache.items():
        perm = rng.permutation(len(group.paths))
        cache[k] = PathGroup(group.paths[perm], group.static[perm])
    y_p = forward(probe_graph, params, config, cache).values
    assert np.abs(y - y_p).max() < 1e-10


def test_batched_forward_matches_single(probe_graph):
    config = small_config(feature_mode="substructure", n_targets=2)
    records = [CIS, TRANS]
    graphs = [build_graph(r, FEAT) for r in records] + [probe_graph]
    params = init_params(config, graphs[0].node_dim, graphs[0].edge_dim)
    caches = [build_path_cache(g, config) for g in graphs]
    batched = forward_batched(merge_batch(graphs, caches), params, config).values
    single = np.concatenate([forward(g, params, config, c).values
                             for g, c in zip(graphs, caches)])
    assert np.abs(batched - single).max() < 1e-12


def test_full_model_gradcheck_all_modes():
    errors = full_model_gradcheck(seed=11)
    assert set(errors) == {"base", "substructure", "geometry"}
    for mode, err in errors.items():
        assert err < TOLERANCE, (mode, err)


def test_forward_is_finite_under_debug_checks(probe_graph):
    config = small_config(feature_mode="geometry", path_length=3)
    params = init_params(config, probe_graph.node_dim, probe_graph.edge_dim)
    T.DEBUG_CHECKS = True
    try:
        forward(probe_graph, params, config)   # every op asserts finiteness
    finally:
        T.DEBUG_CHECKS = False


# -- the batched path cache against the per-path oracle; tolerance 0 (exact) --

def oracle_cache(graph, config, exact_length_only=False):
    """build_path_cache one path at a time: enumerate from each root, then one
    static row per path from the edge features and the scalar features;
    with exact_length_only only the paths of length config.path_length."""
    found = []
    for v in range(graph.n):
        tables = enumerate_paths(graph.csr, [v], config.path_length)
        found.extend(tuple(row) for k, t in tables.items() for row in t.tolist()
                     if not exact_length_only or k == config.path_length)
    edge_rows = dict(zip(map(tuple, graph.edge_index.tolist()), graph.edge_attr))
    groups = {}
    for p in found:
        parts = [edge_rows[(a, b)] for a, b in zip(p, p[1:])]
        if config.feature_mode == "substructure":
            parts.append(substructure_path_features(
                graph, p, ring_membership(graph), detect_groups(graph)).to_vector())
        elif config.feature_mode == "geometry":
            parts.append(geometry_path_features(graph, p).to_vector())
        groups.setdefault(len(p) - 1, []).append((p[0], p[1:], np.concatenate(parts)))
    return {k: (np.array([r[0] for r in rows], dtype=np.int64),
                np.array([r[1] for r in rows], dtype=np.int64),
                np.stack([r[2] for r in rows]))
            for k, rows in groups.items()}


def geometry_record(mol_id, coords, bonds):
    return MoleculeRecord(mol_id, ("C",) * len(coords),
                          tuple((a, b, "single") for a, b in bonds), targets=(0.0,),
                          coords=np.asarray(coords, dtype=np.float64))


COLLINEAR = geometry_record("collinear", [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                                          [3.5, 1, 0], [4.5, 1, 0.6]],
                            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
SINGLE_ATOM = geometry_record("single", [[0, 0, 0]], [])
NO_LENGTH_3 = geometry_record("bent", [[0, 0, 0], [1, 0, 0], [1.5, 1, 0]], [(0, 1), (1, 2)])


def cache_graphs():
    """Random 3D trees, ring and alcohol molecules, a collinear chain with a
    degenerate dihedral, a single atom and a graph without length-3 paths."""
    records = (generate_molecules("dihedral-sum", 6, seed=2)
               + generate_molecules("solubility", 6, seed=2)
               + generate_molecules("alcohol-count", 6, seed=2)
               + [CIS, TRANS, COLLINEAR, SINGLE_ATOM, NO_LENGTH_3])
    featurizer = FeaturizerConfig(("C", "N", "O"))
    return [build_graph(r, featurizer) for r in records]


@pytest.mark.parametrize("mode", ["base", "substructure", "geometry"])
@pytest.mark.parametrize("path_length", [1, 2, 3])
@pytest.mark.parametrize("exact_length_only", [False, True])
@pytest.mark.parametrize("seed", [None, 3])
def test_path_cache_equals_per_path_oracle(mode, path_length, exact_length_only, seed):
    """With exact_length_only the cache is read as callers read exact-length
    paths, by its path_length group alone, and that view must equal the
    oracle's exact-length paths. build_path_cache's seed keyword is unused:
    passing one (3) or none (None) gives the same cache."""
    config = small_config(feature_mode=mode, path_length=path_length)
    for graph in cache_graphs():
        if mode == "geometry" and graph.coords is None:
            continue
        cache = build_path_cache(graph, config, seed=seed)
        if exact_length_only:
            cache = {k: g for k, g in cache.items() if k == path_length}
        oracle = oracle_cache(graph, config, exact_length_only=exact_length_only)
        assert list(cache) == list(oracle), graph.ids
        for k, (roots, nodes, static) in oracle.items():
            group = cache[k]
            for got, want in ((group.paths[:, 0], roots), (group.paths[:, 1:], nodes),
                              (group.static, static)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (graph.ids, k)
    assert build_path_cache(build_graph(SINGLE_ATOM, FEAT), config) == {}


def test_path_cache_names_molecule_with_coincident_atoms():
    record = geometry_record("coincident", [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]],
                             [(0, 1), (1, 2), (2, 3)])
    graph = build_graph(record, FEAT)
    config = small_config(feature_mode="geometry", path_length=3)
    with pytest.raises(DegenerateGeometryError,
                       match=r"^molecule coincident: zero-length bond vector "
                             r"in angle \(0, 1, 2\) on path \(0, 1, 2\)$"):
        build_path_cache(graph, config)


def test_path_cache_names_molecule_past_the_path_cap(monkeypatch, probe_graph):
    monkeypatch.setattr(model_module, "enumerate_paths", partial(enumerate_paths, cap=2))
    with pytest.raises(PathExplosionError,
                       match=f"^molecule {probe_graph.ids[0]}: more than 2 paths rooted at node 0"):
        build_path_cache(probe_graph, small_config())


# task and feature mode pairs the synthetic generators support
TASK_MODES = [("dihedral-sum", "geometry"), ("solubility", "substructure"),
              ("alcohol-count", "base"), ("alcohol-count", "substructure")]


# -- featurize over a disjoint union against the per-graph caches --------------

def test_featurize_names_a_later_molecule_with_coincident_atoms():
    # the third molecule's degenerate angle, in its own node indices
    coincident = geometry_record("coincident", [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]],
                                 [(0, 1), (1, 2), (2, 3)])
    union = build_union([CIS, TRANS, coincident, NO_LENGTH_3], FEAT)
    config = small_config(feature_mode="geometry", path_length=3)
    with pytest.raises(DegenerateGeometryError,
                       match=r"^molecule coincident: zero-length bond vector "
                             r"in angle \(0, 1, 2\) on path \(0, 1, 2\)$"):
        featurize(union, config)


def test_featurize_names_a_later_molecule_past_the_path_cap(monkeypatch, probe_graph):
    # the second molecule crosses the cap at its own node 0, union node 2
    monkeypatch.setattr(model_module, "enumerate_paths", partial(enumerate_paths, cap=2))
    pair = geometry_record("pair", [[0, 0, 0], [1, 0, 0]], [(0, 1)])
    graphs = [build_graph(pair, FEAT), probe_graph, build_graph(CIS, FEAT)]
    with pytest.raises(PathExplosionError,
                       match=f"^molecule {probe_graph.ids[0]}: more than 2 paths rooted at node 0"):
        featurize(union_of(graphs), small_config())


def test_featurize_names_a_later_molecule_without_coordinates():
    # no union mixes molecules with and without coordinates (build_union
    # refuses it, see below), so each is featurized alone
    dry = MoleculeRecord("dry", ("C", "C"), ((0, 1, "single"),), targets=(0.0,))
    graphs = [build_graph(r, FEAT) for r in (CIS, dry, TRANS)]
    with pytest.raises(ConfigError, match="^molecule dry: geometry feature mode needs "
                                          "coordinates on the graph$"):
        for graph in graphs:
            featurize(graph, small_config(feature_mode="geometry"))


@pytest.mark.parametrize("mode", ["base", "substructure"])
def test_featurize_names_a_later_molecule_of_another_edge_width(mode):
    # built with coordinates (edge width 5) and without (4); a bare numpy
    # ValueError about array dimensions before
    dry = MoleculeRecord("dry", ("C", "C"), ((0, 1, "single"),), targets=(0.0,))
    with pytest.raises(ConfigError,
                       match="^molecule dry: edge feature width 4, but molecule cis has 5$"):
        featurize(build_union([CIS, TRANS, dry], FEAT), small_config(feature_mode=mode))


def test_featurize_keeps_each_molecules_hydrogen_convention():
    # with explicit hydrogens kept, a molecule that lists none still follows
    # the heavy-atom alcohol rule, and one that lists some the explicit rule
    featurizer = FeaturizerConfig(("C", "H", "O"), explicit_hydrogens=True)
    records = [MoleculeRecord("ethanol", ("C", "C", "O"), ((0, 1, "single"), (1, 2, "single"))),
               MoleculeRecord("formaldehyde", ("C", "O", "H", "H"),
                              ((0, 1, "double"), (0, 2, "single"), (0, 3, "single"))),
               MoleculeRecord("methanol", ("C", "O", "H"), ((0, 1, "single"), (1, 2, "single")))]
    graphs = [build_graph(r, featurizer) for r in records]
    config = small_config(feature_mode="substructure", path_length=2)
    assert_take_equals_merge(featurize(build_union(records, featurizer), config), graphs, config,
                             range(3))
    touches = [build_path_cache(g, config)[1].static[:, -1].any() for g in graphs]
    assert touches == [True, False, True]


def test_featurize_finds_edge_rows_whatever_the_neighbour_order():
    # the same molecule with every neighbour list of its csr reversed
    # enumerates its paths in another order, but each path keeps its static row
    graph = build_graph(CIS, FEAT)
    flipped = replace(graph)
    indptr, indices = graph.csr
    vars(flipped)["csr"] = indptr, np.concatenate(
        [indices[a:b][::-1] for a, b in zip(indptr[:-1], indptr[1:])])
    config = small_config(feature_mode="geometry", path_length=3)
    caches = [featurize(x, config).cache for x in (graph, flipped)]
    assert caches[0][1].paths.tolist() != caches[1][1].paths.tolist()
    rows = [{tuple(p): s.tolist() for g in cache.values()
             for p, s in zip(g.paths.tolist(), g.static)} for cache in caches]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("bad", [2, 7])
def test_take_of_a_graph_past_the_end_raises_index_error(bad):
    batch = featurize(build_union([CIS, TRANS], FEAT),
                      small_config(feature_mode="geometry", path_length=3))
    with pytest.raises(IndexError):
        take(batch, [0, bad])


def assert_take_equals_merge(batch, graphs, config, idx):
    """take(batch, idx) against the reference merge of the graphs' own
    caches, every array at tolerance 0 with its dtype."""
    got = take(batch, idx)
    want = merge_batch([graphs[i] for i in idx],
                       [build_path_cache(graphs[i], config) for i in idx])
    assert got.n_graphs == want.n_graphs
    for a, b in ((got.x, want.x), (got.graph_ids, want.graph_ids), (got.ptr, want.ptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(got.cache) == list(want.cache)
    for k, group in want.cache.items():
        for a, b in zip(got.cache[k], group):
            assert a.dtype == b.dtype and np.array_equal(a, b), k


def union_graphs(task):
    """Six synthetic molecules plus molecules with no paths of length 1, 2
    or 3: a single atom, a bonded pair and a bent triple, with coordinates
    when the task's molecules have them (they set the edge width)."""
    records = generate_molecules(task, 6, seed=4)
    pair = geometry_record("pair", [[0, 0, 0], [1, 0, 0]], [(0, 1)])
    small = [SINGLE_ATOM, pair, NO_LENGTH_3]
    if records[0].coords is None:
        small = [replace(r, coords=None) for r in small]
    records += small
    featurizer = featurizer_from_records(records)
    return [build_graph(r, featurizer) for r in records]


@given(task_mode=st.sampled_from(TASK_MODES), path_length=st.integers(1, 3),
       idx=st.lists(st.integers(0, 8), min_size=1, max_size=12))
def test_take_of_featurize_equals_merged_per_graph_caches(task_mode, path_length, idx):
    # any order, repeats allowed, including batches of only path-less graphs
    task, mode = task_mode
    graphs = union_graphs(task)
    config = small_config(feature_mode=mode, path_length=path_length)
    assert_take_equals_merge(featurize(union_of(graphs), config), graphs, config, idx)


@pytest.mark.parametrize("task, mode, path_length, n_molecules", [
    ("solubility", "substructure", 2, 400),
    ("dihedral-sum", "geometry", 3, 600),
])
def test_featurize_memory_grows_with_paths_not_nodes_squared(task, mode, path_length,
                                                             n_molecules):
    # about 5,000 union nodes: one (n, n) int64 table would take about 200 MB
    records = generate_molecules(task, n_molecules, seed=1)
    featurizer = featurizer_from_records(records)
    graphs = [build_graph(r, featurizer) for r in records]
    assert sum(g.n for g in graphs) > 4_500
    tracemalloc.start()
    try:
        featurize(build_union(records, featurizer),
                  small_config(feature_mode=mode, path_length=path_length))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def random_batch(task, mode, path_length, n_molecules, seed, hidden_dim):
    records = generate_molecules(task, n_molecules, seed)
    featurizer = featurizer_from_records(records)
    graphs = [build_graph(r, featurizer) for r in records]
    config = ModelConfig(hidden_dim=hidden_dim, steps=2, path_length=path_length,
                         feature_mode=mode, set2set_steps=3, n_targets=1, seed=seed)
    batch = merge_batch(graphs, [build_path_cache(g, config) for g in graphs])
    return batch, config, init_params(config, graphs[0].node_dim, graphs[0].edge_dim)


@given(task_mode=st.sampled_from(TASK_MODES), path_length=st.integers(1, 3),
       n_molecules=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_one_gather_step_equals_per_column_form(task_mode, path_length, n_molecules, seed):
    # within 1e-12 of each tensor's largest entry, forward and every
    # gradient: one gather per length with fused ops against a gather per
    # path position with the per-op forms (tests/oracles.py)
    batch, config, params = random_batch(*task_mode, path_length, n_molecules, seed, 5)
    rng = np.random.default_rng(seed)
    h = T.Tensor(rng.normal(size=(len(batch.x), config.hidden_dim)), requires_grad=True)
    probe = T.Tensor(rng.normal(size=h.values.shape))
    inputs = params | {"h": h}
    results = []
    for step in (model_module._propagate_step, oracles.per_column_propagate_step):
        T.zero_grad(inputs)
        out = step(h, batch.cache, params, config, 1)
        T.backward(T.mul(out, probe).sum())
        # copies: zero_grad zeroes the gradients in place before the next form
        results.append((out.values, {k: (t.grad.copy() if t.grad is not None else None)
                                     for k, t in inputs.items()}))
    (got, got_grads), (want, want_grads) = results
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for name in inputs:
        if want_grads[name] is None:   # step 0's parameters take no part
            assert got_grads[name] is None, name
            continue
        scale = np.abs(want_grads[name]).max()
        assert np.abs(got_grads[name] - want_grads[name]).max() <= 1e-12 * scale, name


# a synthetic task whose molecules each feature mode can read
MODE_TASKS = {"base": "alcohol-count", "substructure": "solubility",
              "geometry": "dihedral-sum"}


@given(mode=st.sampled_from(FEATURE_MODES), path_length=st.integers(1, 3),
       n_molecules=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_tape_free_forward_equals_taped_forward(mode, path_length, n_molecules, seed):
    # tolerance 0: the same numpy calls run on the same arrays
    batch, config, params = random_batch(MODE_TASKS[mode], mode, path_length,
                                         n_molecules, seed, 5)
    taped = forward_batched(batch, params, config)
    with T.no_grad():
        free = forward_batched(batch, params, config)
    assert taped.requires_grad and not free.requires_grad
    assert np.array_equal(free.values, taped.values)


def reachable(loss):
    """The ids of the walk of perfbench.spans.count_tape_nodes: every tensor
    reachable from the loss through its parents."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return seen


def reachable_tape(loss):
    return len(reachable(loss))


def training_step_tape(task, mode, path_length):
    # tape nodes of one 16-molecule training step of the benchmark's model
    # (hidden 12, two steps, three set2set steps)
    batch, config, params = random_batch(task, mode, path_length, 16, 1, 12)
    assert sorted(batch.cache) == list(config.lengths())
    loss = rmse_loss(forward_batched(batch, params, config), np.zeros((16, 1)))
    return reachable_tape(loss)


@pytest.mark.parametrize("task, mode, path_length, bound", [
    ("dihedral-sum", "geometry", 3, 160),
    ("solubility", "substructure", 2, 146),
])
def test_training_step_tape_stays_small(task, mode, path_length, bound):
    # the step records at most `bound` tape nodes; it was 247 (geometry)
    # and 225 (substructure) before the fused ops
    assert training_step_tape(task, mode, path_length) <= bound


@pytest.mark.parametrize("task, mode, path_length, bound", [
    ("dihedral-sum", "geometry", 3, 84),
    ("solubility", "substructure", 2, 78),
])
def test_training_step_tape_has_one_node_per_layer(task, mode, path_length, bound):
    # with each message, attention, update and LSTM cell one node the step
    # records at most `bound` tape nodes; it was 149 (geometry) and 135
    # (substructure) when they were composed of several
    assert training_step_tape(task, mode, path_length) <= bound


@pytest.mark.parametrize("task, mode, path_length, bound", [
    ("dihedral-sum", "geometry", 3, 79),
    ("solubility", "substructure", 2, 73),
])
def test_training_step_tape_has_one_node_per_loss(task, mode, path_length, bound):
    # with the loss one node as well the step records at most `bound` tape
    # nodes; it was 84 (geometry) and 78 (substructure) with the composed loss
    assert training_step_tape(task, mode, path_length) <= bound


def citation_step_tapes(monkeypatch):
    """Tape nodes of each step of two epochs of the benchmark's citation
    model (hidden 16, length-3 paths, dropout and weight decay)."""
    counts, backward = [], training_module.backward
    monkeypatch.setattr(training_module, "backward",
                        lambda loss: counts.append(reachable_tape(loss)) or backward(loss))
    training_module.train_node_classification(
        synth_citation(n_nodes=300, n_features=100, seed=0),
        PathGCNConfig(hidden_dim=16, path_length=3, per_hop_budget=1), epochs=2, patience=3)
    assert len(counts) == 2
    return counts


def test_citation_training_step_tape_has_one_node_per_layer(monkeypatch):
    # at most 39 tape nodes with each path-GCN layer one node; it was 96
    # when each layer was composed of primitive ops
    counts = citation_step_tapes(monkeypatch)
    assert max(counts) <= 39, counts


def test_citation_training_step_tape_has_one_node_per_loss(monkeypatch):
    # cross entropy and the weight decay one node each as well: at most 22
    # tape nodes; it was 39 with the composed losses
    counts = citation_step_tapes(monkeypatch)
    assert max(counts) <= 22, counts


def test_citation_training_step_makes_only_the_ops_on_its_tape(monkeypatch):
    # the dropped-out input is written into one buffer before the forward,
    # so each step makes six ops, every one on its tape: the two layers, the
    # hidden dropout, the loss, the decay and their sum. The input dropout
    # was a seventh op, of two constants and so off the tape, whose mask and
    # product were two more feature-sized arrays per step
    steps, made, make = [], [], T._make
    zero_grad, backward = training_module.zero_grad, training_module.backward

    def recording_backward(loss):
        tape = reachable(loss)
        steps.append(([op for op, _ in made], all(id(t) in tape for _, t in made), len(tape)))
        backward(loss)

    monkeypatch.setattr(T, "_make", lambda *args: made.append((args[3], make(*args)))
                        or made[-1][1])
    monkeypatch.setattr(training_module, "zero_grad",
                        lambda params: made.clear() or zero_grad(params))
    monkeypatch.setattr(training_module, "backward", recording_backward)
    training_module.train_node_classification(
        synth_citation(n_nodes=300, n_features=100, seed=0),
        PathGCNConfig(hidden_dim=16, path_length=3, per_hop_budget=1), epochs=2, patience=3)
    assert len(steps) == 2
    for ops, on_tape, tape in steps:
        assert ops == ["path_gcn_layer", "mul", "path_gcn_layer", "cross_entropy",
                       "l2_penalty", "add"]
        assert on_tape and tape <= 22


@given(mode=st.sampled_from(FEATURE_MODES), path_length=st.integers(1, 3),
       n_molecules=st.integers(1, 4), drop=st.sampled_from([None, 1, 2, 3]),
       seed=st.integers(0, 10_000))
def test_one_node_layers_equal_composed_layers_exactly(mode, path_length, n_molecules, drop,
                                                       seed):
    # tolerance 0, the prediction and every parameter's gradient: the model
    # with its four one-node layers against the same model with each layer
    # swapped for its composed form (tests/oracles.py). One molecule is a
    # single graph; `drop` takes a length's group out of the batch, as a
    # batch whose molecules have no path of that length has none.
    batch, config, params = random_batch(MODE_TASKS[mode], mode, path_length,
                                         n_molecules, seed, 5)
    batch.cache.pop(drop, None)
    target = np.random.default_rng(seed).normal(size=(n_molecules, 1))

    def run():
        T.zero_grad(params)
        pred = forward_batched(batch, params, config)
        T.backward(rmse_loss(pred, target))
        return pred.values, {k: t.grad.copy() for k, t in params.items() if t.grad is not None}

    fused, fused_grads = run()
    with pytest.MonkeyPatch.context() as patch:
        for name, composed in oracles.COMPOSED_LAYERS.items():
            patch.setattr(model_module, name, composed)
        composed_values, composed_grads = run()
    assert np.array_equal(fused, composed_values)
    assert fused_grads.keys() == composed_grads.keys()
    for name in fused_grads:
        assert np.array_equal(fused_grads[name], composed_grads[name]), name
    with T.no_grad():
        assert np.array_equal(forward_batched(batch, params, config).values, fused)


def test_taped_forward_calls_each_traced_layer_by_name(monkeypatch):
    # the benchmark times these layers by wrapping the module attributes, so
    # the forward must reach each through its name: once per step and
    # length that has paths for the message, once per step for attention
    # and update, once for set2set
    batch, config, params = random_batch("dihedral-sum", "geometry", 3, 4, 1, 5)
    del batch.cache[2]
    calls = []

    def counted(name, layer):
        def call(*args, **kwargs):
            calls.append(name)
            return layer(*args, **kwargs)
        return call

    for name in ("message_path", "attention_aggregate", "node_update",
                 "set2set_readout_batched"):
        monkeypatch.setattr(model_module, name, counted(name, getattr(model_module, name)))
    forward_batched(batch, params, config)
    one_step = ["message_path", "message_path", "attention_aggregate", "node_update"]
    assert calls == one_step * config.steps + ["set2set_readout_batched"]
