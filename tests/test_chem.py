import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import AdjacencyGraph, random_graph
from oracles import rings_oracle
from pathmpnn.chem import (RING_SIZES, all_simple_cycles, detect_alcohol,
                           detect_groups, feature_width, ring_membership,
                           substructure_features, substructure_path_features)
from pathmpnn.molgraph import FeaturizerConfig, MoleculeRecord, build_graph
from pathmpnn.paths import enumerate_paths


def molecule(elements, edges, explicit_h=False):
    record = MoleculeRecord("m", tuple(elements),
                            tuple((a, b, "single") for a, b in edges))
    vocab = tuple(sorted(set(elements)))
    return build_graph(record, FeaturizerConfig(vocab, explicit_h))


BENZENE = molecule("CCCCCC", [(i, (i + 1) % 6) for i in range(6)])
CYCLOHEXANOL = molecule("CCCCCCO", [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
ETHANOL = molecule("CCO", [(0, 1), (1, 2)])
DIMETHYL_ETHER = molecule("COC", [(0, 1), (1, 2)])


def test_benzene_ring_flags():
    flags = ring_membership(BENZENE)
    col = RING_SIZES.index(6)
    assert np.all(flags[:, col] == 1.0)
    other = [c for c in range(len(RING_SIZES)) if c != col]
    assert np.all(flags[:, other] == 0.0)
    assert np.all(flags[:, -1] == 1.0)


def test_cyclohexanol_ring_flags():
    flags = ring_membership(CYCLOHEXANOL)
    col = RING_SIZES.index(6)
    assert np.all(flags[:6, col] == 1.0)
    assert np.all(flags[6] == 0.0)      # the O is not on the ring
    assert np.array_equal(flags, rings_oracle(CYCLOHEXANOL))


def test_acyclic_graph_has_no_flags():
    chain = molecule("CCCC", [(0, 1), (1, 2), (2, 3)])
    assert np.all(ring_membership(chain) == 0.0)


def test_fused_rings_get_both_sizes():
    # two triangles sharing an edge, plus the 4-cycle around them
    g = AdjacencyGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
    cycles = all_simple_cycles(g.adjacency)
    assert sorted(len(c) for c in cycles) == [3, 3, 4]
    flags = ring_membership(g)
    assert flags[0, RING_SIZES.index(3)] == 1.0
    assert flags[0, RING_SIZES.index(4)] == 1.0


def test_cycles_above_cap_ignored():
    g = AdjacencyGraph(9, [(i, (i + 1) % 9) for i in range(9)])
    assert np.all(ring_membership(g) == 0.0)


@given(st.integers(0, 10_000))
def test_ring_flags_match_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(3, 9)), 0.4)
    assert np.array_equal(ring_membership(g), rings_oracle(g))


@given(st.integers(0, 10_000))
def test_ring_flags_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    g = random_graph(rng, n, 0.4)
    perm = rng.permutation(n)
    edges = [(int(perm[u]), int(perm[v]))
             for u in range(n) for v in g.adjacency[u] if u < v]
    relabeled = AdjacencyGraph(n, edges)
    assert np.array_equal(ring_membership(relabeled)[perm], ring_membership(g))


def test_ethanol_alcohol_detected():
    match = detect_alcohol(ETHANOL)
    assert 2 in match.member_nodes
    assert frozenset((1, 2)) in match.bonds


def test_ether_not_detected():
    assert not detect_alcohol(DIMETHYL_ETHER).bonds


def test_explicit_hydrogen_mode():
    ethanol_h = molecule("CCOH", [(0, 1), (1, 2), (2, 3)], explicit_h=True)
    match = detect_alcohol(ethanol_h)
    assert 2 in match.member_nodes
    water_h = molecule("OHH", [(0, 1), (0, 2)], explicit_h=True)
    assert not detect_alcohol(water_h).bonds


def test_degree_one_oxygen_on_nitrogen_not_alcohol():
    n_oxide = molecule("CNO", [(0, 1), (1, 2)])
    assert not detect_alcohol(n_oxide).bonds


def test_disconnected_component_does_not_change_flags():
    combined = molecule("CCOCC", [(0, 1), (1, 2), (3, 4)])
    match = detect_alcohol(combined)
    assert 2 in match.member_nodes
    assert match.member_nodes == detect_alcohol(ETHANOL).member_nodes


def test_alcohol_path_flags():
    feats = substructure_path_features(ETHANOL, (0, 1, 2))
    assert feats.on_group_bond == 1.0 and feats.touches_group == 1.0
    feats_away = substructure_path_features(ETHANOL, (2, 1, 0))
    assert feats_away.on_group_bond == 1.0
    no_group = substructure_path_features(DIMETHYL_ETHER, (0, 1, 2))
    assert no_group.on_group_bond == 0.0 and no_group.touches_group == 0.0


def test_cyclohexanol_paths_to_hydroxyl_carry_flag():
    flagged = substructure_path_features(CYCLOHEXANOL, (1, 0, 6))
    assert flagged.on_group_bond == 1.0
    ring_only = substructure_path_features(CYCLOHEXANOL, (1, 2, 3))
    assert ring_only.on_group_bond == 0.0
    col = RING_SIZES.index(6)
    assert np.all(ring_only.ring_flags[:, col] == 1.0)


def test_feature_vector_width():
    for k in (1, 2, 3):
        path = tuple(range(k + 1))
        chain = molecule("C" * (k + 1), [(i, i + 1) for i in range(k)])
        vec = substructure_path_features(chain, path).to_vector()
        assert vec.shape == (feature_width(k),)
        assert set(np.unique(vec)) <= {0.0, 1.0}


@given(st.integers(0, 5_000))
def test_random_molecules_match_pattern_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    elements = [str(rng.choice(["C", "N", "O"])) for _ in range(n)]
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    g = molecule(elements, edges)
    match = detect_alcohol(g)
    expected = {
        v for v in range(n)
        if g.elements[v] == "O" and g.degree(v) == 1
        and g.elements[g.adjacency[v][0]] == "C"
    }
    assert {v for v in match.member_nodes if g.elements[v] == "O"} == expected


def test_500_random_molecules_match_cycle_oracle():
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(3, 10))
        elements = [str(rng.choice(["C", "N", "O"])) for _ in range(n)]
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(int(rng.integers(0, 3))):   # occasional ring closure
            a, b = sorted(rng.choice(n, size=2, replace=False))
            edges.add((int(a), int(b)))
        g = molecule(elements, sorted(edges))
        assert np.array_equal(ring_membership(g), rings_oracle(g))


# -- batched flags against the per-path oracle; tolerance 0 (exact) ------------

def assert_batched_flags_equal_oracle(g):
    tables = enumerate_paths(g, range(g.n), 3)
    assert tables or g.n < 2
    for k, paths in tables.items():
        feats = substructure_features(paths, ring_membership(g), detect_groups(g))
        oracle = np.stack([substructure_path_features(g, tuple(row)).to_vector()
                           for row in paths.tolist()])
        assert feats.shape == (len(paths), feature_width(k))
        assert np.array_equal(feats, oracle)


@pytest.mark.parametrize("g", [BENZENE, CYCLOHEXANOL, ETHANOL, DIMETHYL_ETHER,
                               molecule("CCOCC", [(0, 1), (1, 2), (3, 4)]),
                               molecule("CCCCO", [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3),
                                                  (3, 4)])],
                         ids=["benzene", "cyclohexanol", "ethanol", "ether",
                              "two-components", "fused-rings-alcohol"])
def test_batched_flags_equal_oracle_on_ring_and_alcohol_molecules(g):
    assert_batched_flags_equal_oracle(g)


@given(st.integers(0, 5_000))
def test_batched_flags_equal_oracle_on_random_molecules(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    elements = [str(rng.choice(["C", "N", "O"])) for _ in range(n)]
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 3))):   # occasional ring closure
        a, b = sorted(rng.choice(n, size=2, replace=False))
        edges.add((int(a), int(b)))
    assert_batched_flags_equal_oracle(molecule(elements, sorted(edges)))
