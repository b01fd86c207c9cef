from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import AdjacencyGraph, random_graph
from pathmpnn.paths import (PathExplosionError, count_paths_oracle,
                            enumerate_paths, sample_paths)


def lengths_histogram(tables):
    return {k: len(t) for k, t in tables.items()}


def rows(tables):
    """Every path in the tables as a node tuple, lengths in key order."""
    return [tuple(row) for t in tables.values() for row in t.tolist()]


def brute_force_tables(graph, roots, max_length):
    """Every node sequence from each root, checked for adjacency and
    distinctness as count_paths_oracle does, sorted within a root."""
    adj_sets = [set(nbrs) for nbrs in graph.adjacency]
    out = {}
    for length in range(1, max_length + 1):
        found = [(v,) + tail for v in roots
                 for tail in product(range(graph.n), repeat=length)
                 if len(set((v,) + tail)) == length + 1
                 and all(b in adj_sets[a] for a, b in zip((v,) + tail, tail))]
        if found:
            out[length] = np.asarray(found, dtype=np.int64)
    return out


def test_chain_enumeration(path4):
    assert rows(enumerate_paths(path4, [0], 3)) == [(0, 1), (0, 1, 2), (0, 1, 2, 3)]


def test_star_center_dead_ends():
    star = AdjacencyGraph(4, [(0, 1), (0, 2), (0, 3)])
    found = enumerate_paths(star, [0], 2)
    assert lengths_histogram(found) == {1: 3}


def test_k4_counts_match_oracle(k4):
    # oracle-computed counts for K4 rooted at 0
    assert count_paths_oracle(k4, 0, 3) == {1: 3, 2: 6, 3: 6}
    assert lengths_histogram(enumerate_paths(k4, [0], 3)) == {1: 3, 2: 6, 3: 6}


def test_oracle_triangle_and_edge_cases():
    k3 = AdjacencyGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert count_paths_oracle(k3, 0, 2) == {1: 2, 2: 2}
    edge = AdjacencyGraph(2, [(0, 1)])
    assert count_paths_oracle(edge, 0, 5) == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}
    lonely = AdjacencyGraph(3, [(1, 2)])
    assert count_paths_oracle(lonely, 0, 3) == {1: 0, 2: 0, 3: 0}


def test_exact_length_only(k4):
    # the max_length table alone is the exact-length view synth_dihedral_sum reads
    found = enumerate_paths(k4, [0], 3)
    assert lengths_histogram({3: found[3]}) == {3: 6}
    assert {len(row) for row in found[3].tolist()} == {4}


def test_enumeration_cap(k4):
    with pytest.raises(PathExplosionError, match="sample_paths"):
        enumerate_paths(k4, [0], 3, cap=5)


def test_cap_error_names_the_lowest_root_over_the_cap():
    # center 2 with leaves 0, 1, 3, 6 and a two-node arm 4-5; paths up to
    # length 2 per root: 5 for each leaf, 6 for the center and node 4, 2 for 5
    graph = AdjacencyGraph(7, [(2, 0), (2, 1), (2, 3), (2, 4), (4, 5), (2, 6)])
    counts = {v: sum(count_paths_oracle(graph, v, 2).values()) for v in range(7)}
    assert counts == {0: 5, 1: 5, 2: 6, 3: 5, 4: 6, 5: 2, 6: 5}
    # cap 5: roots 2 and 4 cross at length 2. cap 4: the center crosses
    # already at length 1, leaf 0 only at length 2, and 0 is the lowest
    for cap, lowest in ((5, 2), (4, 0)):
        assert lowest == min(v for v in range(7) if counts[v] > cap)
        with pytest.raises(PathExplosionError, match=f"more than {cap} paths rooted at node {lowest};"):
            enumerate_paths(graph, range(7), 2, cap=cap)
    assert lengths_histogram(enumerate_paths(graph, range(7), 2, cap=6)) == {1: 12, 2: 22}
    # roots count in the order given
    with pytest.raises(PathExplosionError, match="rooted at node 6;"):
        enumerate_paths(graph, [6, 5], 2, cap=1)


def test_sampling_deterministic(k4):
    a = sample_paths(k4, [0], 3, budget=7, seed=123)
    b = sample_paths(k4, [0], 3, budget=7, seed=123)
    assert rows(a) == rows(b)
    assert len(rows(a)) <= 7


def test_exhaustive_budget_reproduces_enumeration(k4, path4):
    for graph in (k4, path4):
        full = enumerate_paths(graph, range(graph.n), 3)
        sampled = sample_paths(graph, range(graph.n), 3, budget=1000, seed=9)
        assert list(full) == list(sampled)
        for k in full:
            assert np.array_equal(full[k], sampled[k])


def test_all_roots_sample_equals_one_root_at_a_time():
    graph = random_graph(np.random.default_rng(5), 9, 0.5)
    together_rng = np.random.default_rng(2)
    together = sample_paths(graph, range(graph.n), 3, 4, together_rng)
    single_rng = np.random.default_rng(2)
    single = [sample_paths(graph, [v], 3, 4, single_rng) for v in range(graph.n)]
    assert together_rng.bit_generator.state == single_rng.bit_generator.state
    for k, table in together.items():
        expected = [t[k] for t in single if k in t]
        assert np.array_equal(table, np.concatenate(expected))


def test_sampled_paths_are_simple(k4):
    for seed in range(30):
        for p in rows(sample_paths(k4, [1], 3, budget=4, seed=seed)):
            assert len(set(p)) == len(p)


def test_first_hop_uniform_chi_square(k4):
    # budget=1 returns a single length-1 path; its endpoint should be
    # uniform over the three neighbors (3 sigma on a chi-square basis)
    draws = 10_000
    counts = {1: 0, 2: 0, 3: 0}
    for seed in range(draws):
        (p,) = rows(sample_paths(k4, [0], 1, budget=1, seed=seed))
        counts[p[1]] += 1
    expected = draws / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 2 dof: mean 2, sd 2; 3 sigma above the mean is 8
    assert chi2 < 8.0, counts


@given(st.integers(0, 10_000), st.integers(3, 10),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 4))
def test_enumeration_matches_oracle(seed, n, p, max_len):
    graph = random_graph(np.random.default_rng(seed), n, p)
    root = seed % n
    assert (lengths_histogram(enumerate_paths(graph, [root], max_len)) ==
            {k: c for k, c in count_paths_oracle(graph, root, max_len).items() if c})


# tolerance 0: the tables equal the brute-force node sequences exactly
@given(st.integers(0, 10_000), st.integers(1, 8),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 4))
def test_tables_equal_brute_force_sequences(seed, n, p, max_len):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, p)
    roots = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    got = enumerate_paths(graph, roots, max_len)
    want = brute_force_tables(graph, roots, max_len)
    assert list(got) == list(want)
    for k in want:
        assert got[k].dtype == np.int64 and np.array_equal(got[k], want[k])


@given(st.integers(0, 10_000), st.integers(2, 10))
def test_length_one_paths_are_the_neighbor_list(seed, n):
    graph = random_graph(np.random.default_rng(seed), n, 0.5)
    root = seed % n
    found = enumerate_paths(graph, [root], 1)
    assert tuple(p[1] for p in rows(found)) == graph.adjacency[root]


@given(st.integers(0, 10_000))
def test_no_repeated_nodes_in_any_emitted_path(seed):
    graph = random_graph(np.random.default_rng(seed), 8, 0.5)
    for v in range(graph.n):
        for p in rows(enumerate_paths(graph, [v], 4)):
            assert len(set(p)) == len(p)
            for a, b in zip(p, p[1:]):
                assert b in graph.adjacency[a]


def test_roots_out_of_range_rejected(k4):
    for bad in ([4], [-1], [0, 7]):
        with pytest.raises(ValueError, match="out of range"):
            enumerate_paths(k4, bad, 2)
        with pytest.raises(ValueError, match="out of range"):
            sample_paths(k4, bad, 2, 3, seed=0)
