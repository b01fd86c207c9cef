import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import AdjacencyGraph, random_graph
from pathmpnn.paths import (Path, PathExplosionError, count_paths_oracle,
                            enumerate_paths, sample_paths)


def lengths_histogram(paths):
    out = {}
    for p in paths:
        out[p.length] = out.get(p.length, 0) + 1
    return out


def test_chain_enumeration(path4):
    assert [p.nodes for p in enumerate_paths(path4, 0, 3)] == [
        (0, 1), (0, 1, 2), (0, 1, 2, 3)]


def test_star_center_dead_ends():
    star = AdjacencyGraph(4, [(0, 1), (0, 2), (0, 3)])
    found = enumerate_paths(star, 0, 2)
    assert lengths_histogram(found) == {1: 3}


def test_k4_counts_match_oracle(k4):
    # oracle-computed counts for K4 rooted at 0
    assert count_paths_oracle(k4, 0, 3) == {1: 3, 2: 6, 3: 6}
    assert lengths_histogram(enumerate_paths(k4, 0, 3)) == {1: 3, 2: 6, 3: 6}


def test_oracle_triangle_and_edge_cases():
    k3 = AdjacencyGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert count_paths_oracle(k3, 0, 2) == {1: 2, 2: 2}
    edge = AdjacencyGraph(2, [(0, 1)])
    assert count_paths_oracle(edge, 0, 5) == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}
    lonely = AdjacencyGraph(3, [(1, 2)])
    assert count_paths_oracle(lonely, 0, 3) == {1: 0, 2: 0, 3: 0}


def test_exact_length_only(k4):
    found = enumerate_paths(k4, 0, 3, exact_length_only=True)
    assert lengths_histogram(found) == {3: 6}


def test_path_invariants_enforced():
    with pytest.raises(ValueError):
        Path((0, 1, 0))
    with pytest.raises(ValueError):
        Path((0,))


def test_enumeration_cap(k4):
    with pytest.raises(PathExplosionError, match="sample_paths"):
        enumerate_paths(k4, 0, 3, cap=5)


def test_sampling_deterministic(k4):
    a = sample_paths(k4, 0, 3, budget=7, seed=123)
    b = sample_paths(k4, 0, 3, budget=7, seed=123)
    assert [p.nodes for p in a] == [p.nodes for p in b]
    assert len(a) <= 7


def test_exhaustive_budget_reproduces_enumeration(k4, path4):
    for graph in (k4, path4):
        full = [p.nodes for p in enumerate_paths(graph, 0, 3)]
        sampled = [p.nodes for p in sample_paths(graph, 0, 3, budget=1000, seed=9)]
        assert sampled == full


def test_sampled_paths_are_simple(k4):
    for seed in range(30):
        for p in sample_paths(k4, 1, 3, budget=4, seed=seed):
            assert len(set(p.nodes)) == len(p.nodes)


def test_first_hop_uniform_chi_square(k4):
    # budget=1 returns a single length-1 path; its endpoint should be
    # uniform over the three neighbors (3 sigma on a chi-square basis)
    draws = 10_000
    counts = {1: 0, 2: 0, 3: 0}
    for seed in range(draws):
        (p,) = sample_paths(k4, 0, 1, budget=1, seed=seed)
        counts[p.nodes[1]] += 1
    expected = draws / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 2 dof: mean 2, sd 2; 3 sigma above the mean is 8
    assert chi2 < 8.0, counts


@given(st.integers(0, 10_000), st.integers(3, 10),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 4))
def test_enumeration_matches_oracle(seed, n, p, max_len):
    graph = random_graph(np.random.default_rng(seed), n, p)
    root = seed % n
    assert (lengths_histogram(enumerate_paths(graph, root, max_len)) ==
            {k: c for k, c in count_paths_oracle(graph, root, max_len).items() if c})


@given(st.integers(0, 10_000), st.integers(2, 10))
def test_length_one_paths_are_the_neighbor_list(seed, n):
    graph = random_graph(np.random.default_rng(seed), n, 0.5)
    root = seed % n
    found = enumerate_paths(graph, root, 1)
    assert tuple(p.nodes[1] for p in found) == graph.adjacency[root]


@given(st.integers(0, 10_000))
def test_no_repeated_nodes_in_any_emitted_path(seed):
    graph = random_graph(np.random.default_rng(seed), 8, 0.5)
    for v in range(graph.n):
        for p in enumerate_paths(graph, v, 4):
            assert len(set(p.nodes)) == len(p.nodes)
            for a, b in zip(p.nodes, p.nodes[1:]):
                assert b in graph.adjacency[a]
