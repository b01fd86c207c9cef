import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from pathmpnn.molgraph import (BOND_ORDERS, FeaturizerConfig, MoleculeError,
                               MoleculeRecord, UnknownElementError,
                               build_graph, validate_record)

WATER = MoleculeRecord("water", ("O", "H", "H"),
                       ((0, 1, "single"), (0, 2, "single")))

CYCLOHEXANOL = MoleculeRecord(
    "cyclohexanol", ("C", "C", "C", "C", "C", "C", "O"),
    tuple((i, (i + 1) % 6, "single") for i in range(6)) + ((0, 6, "single"),))


def test_water_explicit_hydrogens():
    g = build_graph(WATER, FeaturizerConfig(("H", "O"), explicit_hydrogens=True))
    assert g.n == 3
    assert g.adjacency == [[1, 2], [0], [0]]


def test_water_heavy_atom_mode_drops_hydrogens():
    g = build_graph(WATER, FeaturizerConfig(("H", "O")))
    assert g.n == 1
    assert g.adjacency == [[]]


def test_cyclohexanol_heavy_graph():
    g = build_graph(CYCLOHEXANOL, FeaturizerConfig(("C", "O")))
    assert g.n == 7
    assert g.degree(6) == 1          # pendant O
    assert sorted(g.degree(v) for v in range(6)) == [2, 2, 2, 2, 2, 3]


def test_dangling_bond_rejected():
    bad = MoleculeRecord("bad", ("C", "C", "C"), ((0, 5, "single"),))
    with pytest.raises(MoleculeError, match="dangling bond index"):
        validate_record(bad)


def test_self_bond_and_duplicate_bond_rejected():
    with pytest.raises(MoleculeError, match="self bond"):
        validate_record(MoleculeRecord("x", ("C", "C"), ((0, 0, "single"),)))
    with pytest.raises(MoleculeError, match="duplicate bond"):
        validate_record(MoleculeRecord(
            "x", ("C", "C"), ((0, 1, "single"), (1, 0, "double"))))


def test_unknown_element_fails_loudly():
    record = MoleculeRecord("x", ("C", "Xx"), ((0, 1, "single"),))
    with pytest.raises(UnknownElementError, match="'Xx'"):
        build_graph(record, FeaturizerConfig(("C", "N", "O")))


def test_non_finite_coords_rejected():
    record = MoleculeRecord("x", ("C", "C"), ((0, 1, "single"),),
                            coords=np.array([[0.0, 0, 0], [np.inf, 0, 0]]))
    with pytest.raises(MoleculeError, match="non-finite"):
        validate_record(record)


def test_node_features_one_hot_plus_degree():
    g = build_graph(CYCLOHEXANOL, FeaturizerConfig(("C", "O")))
    assert g.node_features.shape == (7, 3)
    assert g.node_features[0].tolist() == [1.0, 0.0, 3.0]   # ring C with OH
    assert g.node_features[6].tolist() == [0.0, 1.0, 1.0]   # O


def test_edge_features_bond_order_and_length():
    coords = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    record = MoleculeRecord("x", ("C", "C"), ((0, 1, "triple"),), coords=coords)
    g = build_graph(record, FeaturizerConfig(("C",)))
    assert g.edge_index.tolist() == [[0, 1], [1, 0]]
    feat = g.edge_attr[0]
    assert feat.shape == (len(BOND_ORDERS) + 1,)
    assert feat[BOND_ORDERS.index("triple")] == 1.0
    assert feat[-1] == pytest.approx(2.0)


def test_edge_arrays_keep_their_width_without_bonds():
    # a first molecule with no heavy-atom bond (methane) sizes the model
    methane = MoleculeRecord("methane", ("C", "H", "H", "H", "H"),
                             tuple((0, i, "single") for i in range(1, 5)))
    for explicit_h, n_edges in ((False, 0), (True, 8)):
        g = build_graph(methane, FeaturizerConfig(("C", "H"), explicit_hydrogens=explicit_h))
        assert g.edge_index.shape == (n_edges, 2) and g.edge_index.dtype == np.int64
        assert g.edge_attr.shape == (n_edges, len(BOND_ORDERS))
        assert g.edge_dim == len(BOND_ORDERS)
        assert not (g.edge_index.flags.writeable or g.edge_attr.flags.writeable)


@st.composite
def molecule_records(draw):
    n = draw(st.integers(2, 8))
    elements = tuple(draw(st.sampled_from(["C", "N", "O"])) for _ in range(n))
    tree = tuple((draw(st.integers(0, i - 1)), i,
                  draw(st.sampled_from(BOND_ORDERS))) for i in range(1, n))
    with_coords = draw(st.booleans())
    coords = None
    if with_coords:
        coords = np.array([[draw(st.floats(-5, 5)), draw(st.floats(-5, 5)),
                            draw(st.floats(-5, 5))] for _ in range(n)])
    return MoleculeRecord("h", elements, tree, targets=(0.5,), coords=coords)


@given(molecule_records())
def test_symmetry_invariants(record):
    g = build_graph(record, FeaturizerConfig(("C", "N", "O")))
    rows = {e: i for i, e in enumerate(map(tuple, g.edge_index.tolist()))}
    for v in range(g.n):
        for w in g.adjacency[v]:
            assert v in g.adjacency[w]
            assert np.array_equal(g.edge_attr[rows[(v, w)]], g.edge_attr[rows[(w, v)]])
    assert g.edge_attr.shape == (len(rows), g.edge_dim)


# -- the edge arrays against the per-bond dict; tolerance 0 (exact) -----------

@given(molecule_records(), st.booleans(), st.booleans())
def test_edge_arrays_equal_per_bond_dict(record, hydrogens, explicit_h):
    """With hydrogens attached at random, heavy-atom mode drops their bonds
    and explicit mode keeps them; either way edge_index lists the directed
    edges in adjacency order and edge_attr holds each one's dict row."""
    if hydrogens:
        n = record.n_atoms
        record = MoleculeRecord(
            record.id, record.elements + ("H",) * n,
            record.bonds + tuple((i, n + i, "single") for i in range(n)),
            coords=None if record.coords is None
            else np.concatenate([record.coords, record.coords + 1.1]))
    config = FeaturizerConfig(("C", "H", "N", "O"), explicit_hydrogens=explicit_h)
    g = build_graph(record, config)
    want = oracles.edge_feature_dict(record, config)
    edges = [(v, w) for v in range(g.n) for w in g.adjacency[v]]
    assert g.edge_index.dtype == np.int64 and g.edge_index.shape == (len(edges), 2)
    assert list(map(tuple, g.edge_index.tolist())) == edges == sorted(want)
    assert g.edge_attr.dtype == np.float64
    assert g.edge_attr.shape == (len(edges), config.edge_dim(record.coords is not None))
    assert np.array_equal(g.edge_attr,
                          np.array([want[e] for e in edges]).reshape(g.edge_attr.shape))
