from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import AdjacencyGraph, random_graph
from oracles import count_paths_oracle
from pathmpnn.paths import PathExplosionError, enumerate_paths, extensions


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
    assert rows(enumerate_paths(path4.csr, [0], 3)) == [(0, 1), (0, 1, 2), (0, 1, 2, 3)]


def test_star_center_dead_ends():
    star = AdjacencyGraph(4, [(0, 1), (0, 2), (0, 3)])
    found = enumerate_paths(star.csr, [0], 2)
    assert lengths_histogram(found) == {1: 3}


def test_k4_counts_match_oracle(k4):
    # oracle-computed counts for K4 rooted at 0
    assert count_paths_oracle(k4, 0, 3) == {1: 3, 2: 6, 3: 6}
    assert lengths_histogram(enumerate_paths(k4.csr, [0], 3)) == {1: 3, 2: 6, 3: 6}


def test_oracle_triangle_and_edge_cases():
    k3 = AdjacencyGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert count_paths_oracle(k3, 0, 2) == {1: 2, 2: 2}
    edge = AdjacencyGraph(2, [(0, 1)])
    assert count_paths_oracle(edge, 0, 5) == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}
    lonely = AdjacencyGraph(3, [(1, 2)])
    assert count_paths_oracle(lonely, 0, 3) == {1: 0, 2: 0, 3: 0}


def test_exact_length_only(k4):
    # the max_length table alone is the exact-length view synth_dihedral_sum reads
    found = enumerate_paths(k4.csr, [0], 3)
    assert lengths_histogram({3: found[3]}) == {3: 6}
    assert {len(row) for row in found[3].tolist()} == {4}


def test_enumeration_cap(k4):
    with pytest.raises(PathExplosionError, match="use a shorter path length"):
        enumerate_paths(k4.csr, [0], 3, cap=5)


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
            enumerate_paths(graph.csr, range(7), 2, cap=cap)
    assert lengths_histogram(enumerate_paths(graph.csr, range(7), 2, cap=6)) == {1: 12, 2: 22}
    # roots count in the order given
    with pytest.raises(PathExplosionError, match="rooted at node 6;"):
        enumerate_paths(graph.csr, [6, 5], 2, cap=1)


@given(st.integers(0, 10_000), st.integers(3, 10),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 4))
def test_enumeration_matches_oracle(seed, n, p, max_len):
    graph = random_graph(np.random.default_rng(seed), n, p)
    root = seed % n
    assert (lengths_histogram(enumerate_paths(graph.csr, [root], max_len)) ==
            {k: c for k, c in count_paths_oracle(graph, root, max_len).items() if c})


# tolerance 0: the tables equal the brute-force node sequences exactly
@given(st.integers(0, 10_000), st.integers(1, 8),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 4))
def test_tables_equal_brute_force_sequences(seed, n, p, max_len):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, p)
    roots = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    got = enumerate_paths(graph.csr, roots, max_len)
    want = brute_force_tables(graph, roots, max_len)
    assert list(got) == list(want)
    for k in want:
        assert got[k].dtype == np.int64 and np.array_equal(got[k], want[k])


@given(st.integers(0, 10_000), st.integers(2, 10))
def test_length_one_paths_are_the_neighbor_list(seed, n):
    graph = random_graph(np.random.default_rng(seed), n, 0.5)
    root = seed % n
    found = enumerate_paths(graph.csr, [root], 1)
    assert tuple(p[1] for p in rows(found)) == graph.adjacency[root]


@given(st.integers(0, 10_000))
def test_no_repeated_nodes_in_any_emitted_path(seed):
    graph = random_graph(np.random.default_rng(seed), 8, 0.5)
    for v in range(graph.n):
        for p in rows(enumerate_paths(graph.csr, [v], 4)):
            assert len(set(p)) == len(p)
            for a, b in zip(p, p[1:]):
                assert b in graph.adjacency[a]


def test_roots_out_of_range_rejected(k4):
    for bad in ([4], [-1], [0, 7]):
        with pytest.raises(ValueError, match="out of range"):
            enumerate_paths(k4.csr, bad, 2)


def extensions_oracle(table, adjacency):
    """paths.extensions one row at a time: each neighbour of the row's last
    node, in adjacency order, that is not on the row."""
    found = [(r, w) for r, path in enumerate(table.tolist())
             for w in adjacency[path[-1]] if w not in path]
    return (np.array([r for r, _ in found], dtype=np.int64),
            np.array([w for _, w in found], dtype=np.int64))


def assert_extensions_equal_oracle(graph, table):
    got = extensions(table, graph.csr)
    for got_part, want_part in zip(got, extensions_oracle(table, graph.adjacency)):
        assert got_part.dtype == np.int64
        assert np.array_equal(got_part, want_part)


# 0 - 1 - 2 - 0 is a triangle, 2 - 3 a pendant edge, and node 4 has no neighbour
TRIANGLE_PENDANT_ISOLATED = AdjacencyGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.mark.parametrize("table", [
    [[4]],                      # a tip of degree 0
    [[0, 1, 2]],                # every neighbour of the tip is on the path
    [[2, 3]],                   # the pendant tip: its one neighbour is on the path
    [[3, 2, 1, 0]],             # width 4: the tip's neighbours 1 and 2 are on the path
    [[1, 0], [2, 0], [3, 2], [0, 1]],
    [[0, 1, 2], [1, 0, 2], [3, 2, 0], [2, 0, 1]],
], ids=["degree-0 tip", "all neighbours on the path", "pendant tip", "width 4",
        "width 2 rows", "width 3 rows"])
def test_extensions_edge_cases_equal_the_per_row_oracle(table):
    assert_extensions_equal_oracle(TRIANGLE_PENDANT_ISOLATED, np.array(table, dtype=np.int64))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_extensions_of_an_empty_table_are_empty_int64(width):
    assert_extensions_equal_oracle(TRIANGLE_PENDANT_ISOLATED, np.zeros((0, width), np.int64))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 7), p=st.floats(0.0, 1.0),
       width=st.integers(1, 4), rows=st.integers(0, 9))
def test_extensions_equal_the_per_row_oracle(seed, n, p, width, rows):
    # tolerance 0 and int64: any rows of nodes, repeats, isolated tips and
    # rows holding every neighbour of their tip included
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, p)
    assert_extensions_equal_oracle(graph, rng.integers(0, n, size=(rows, width)))
