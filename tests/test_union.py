"""The batch builder against its reference form: build_union over the
records, and featurize of it, equal the reference join oracles.union_of of
the records' graphs built one by one, and featurize of that, tolerance 0
(exact), with every dtype; invalid records raise build_graph's own errors."""

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pathmpnn.model as model_module
import pathmpnn.molgraph as molgraph_module
from oracles import union_of
from pathmpnn.geometry import DegenerateGeometryError
from pathmpnn.model import FEATURE_MODES, ConfigError, ModelConfig, featurize
from pathmpnn.molgraph import (BOND_ORDERS, FeaturizerConfig, MoleculeError, MoleculeRecord,
                               build_graph, build_union)
from pathmpnn.paths import PathExplosionError, enumerate_paths
from pathmpnn.synth import generate_molecules
from pathmpnn.training import (TrainSettings, evaluate_regression, featurizer_from_records,
                               train_regression)

S60 = np.sqrt(3.0) / 2.0
CHAIN = ((0, 1, "single"), (1, 2, "single"), (2, 3, "single"))
CIS = MoleculeRecord("cis", ("C",) * 4, CHAIN, targets=(0.0,),
                     coords=np.array([[-0.5, S60, 0], [0, 0, 0], [1, 0, 0], [1.5, S60, 0]]))
TRANS = MoleculeRecord("trans", ("C",) * 4, CHAIN, targets=(1.0,),
                       coords=np.array([[-0.5, S60, 0], [0, 0, 0], [1, 0, 0], [1.5, -S60, 0]]))
FEAT = FeaturizerConfig(("C", "H", "N", "O"))


@contextmanager
def no_graphs():
    """Within the block, building a graph one record at a time fails the test."""
    fail = mock.Mock(side_effect=AssertionError("a graph was built"))
    with mock.patch.object(molgraph_module, "build_graph", fail):
        yield


def assert_batches_equal(got, want):
    for a, b in ((got.x, want.x), (got.ptr, want.ptr), (got.graph_ids, want.graph_ids)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(got.cache) == list(want.cache)
    for k, group in want.cache.items():
        for a, b in zip(got.cache[k], group):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), k


def assert_unions_equal(got, want):
    for name in ("ptr", "node_features", "edge_index", "edge_attr", "coords"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert (got.elements, got.adjacency, got.explicit_h, got.ids) == (
        want.elements, want.adjacency, want.explicit_h, want.ids)


@st.composite
def record_batches(draw, with_coords):
    """Molecules of 1 to 7 atoms over C, N, O and H with any bond set, not
    only trees, the bonds listed in either orientation; among them a
    hydrogen-only molecule, one without bonds and a single atom, at drawn
    places. Coordinates on every molecule or on none."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = [(("H", "H"), ((0, 1, "single"),)), (("C", "O"), ()), (("N",), ())]
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
        bonds = tuple((*((i, j) if draw(st.booleans()) else (j, i)),
                       draw(st.sampled_from(BOND_ORDERS))) for i, j in chosen)
        elements = tuple(draw(st.sampled_from("CNOH")) for _ in range(n))
        shapes.insert(draw(st.integers(0, len(shapes))), (elements, bonds))
    return [MoleculeRecord(f"m{i}", elements, bonds, targets=(float(i),),
                           coords=rng.normal(size=(len(elements), 3)) * 1.5 if with_coords
                           else None)
            for i, (elements, bonds) in enumerate(shapes)]


@given(data=st.data(), mode=st.sampled_from(FEATURE_MODES), path_length=st.integers(1, 3),
       explicit_h=st.booleans())
def test_featurize_records_equals_featurize_of_the_built_graphs(data, mode, path_length,
                                                                explicit_h):
    records = data.draw(record_batches(with_coords=mode == "geometry" or data.draw(
        st.booleans())))
    vocab = ("C", "H", "N", "O") if explicit_h or data.draw(st.booleans()) else ("C", "N", "O")
    featurizer = FeaturizerConfig(vocab, explicit_hydrogens=explicit_h)
    config = ModelConfig(hidden_dim=4, path_length=path_length, feature_mode=mode)
    graphs = [build_graph(r, featurizer) for r in records]
    with no_graphs():
        union = build_union(records, featurizer)
        got = featurize(union, config)
    assert_unions_equal(union, union_of(graphs))
    for i, (record, graph) in enumerate(zip(records, graphs)):
        assert_unions_equal(build_union([record], featurizer), graph)
        assert_unions_equal(union.molecule(i), graph)
    assert union.explicit_h == [("H" in g.elements) for g in graphs for _ in range(g.n)]
    starts = np.cumsum([0] + [g.n for g in graphs])
    assert union.adjacency == [[w + start for w in nbrs]
                               for g, start in zip(graphs, starts) for nbrs in g.adjacency]
    assert_batches_equal(got, featurize(union_of(graphs), config))


def test_a_bond_index_that_is_no_integer_takes_the_graphs_path():
    # both builders refuse a float index, even one equal to an atom's
    records = [CIS, replace(TRANS, bonds=((0, 1.0, "single"), (1, 2.5, "double"))),
               replace(CIS, id="cis2")]
    message = ("molecule trans: bond (0, 1.0, 'single') is not (i, j, order) "
               "with integer atom indices")
    for build in (partial(build_graph, records[1], FEAT), partial(build_union, records, FEAT)):
        with pytest.raises(MoleculeError) as got:
            build()
        assert str(got.value) == message


def bad(**fields):
    return replace(TRANS, id="bad", **fields)


# one record per check of validate_record and build_graph, placed after valid ones
INVALID = {
    "dangling bond": bad(bonds=((0, 1, "single"), (2, 4, "single"))),
    "negative index": bad(bonds=((-1, 2, "single"),)),
    "self bond": bad(bonds=((0, 1, "single"), (2, 2, "single"))),
    "duplicate bond": bad(bonds=((0, 1, "single"), (1, 2, "single"), (1, 0, "double"))),
    "unknown bond order": bad(bonds=((0, 1, "single"), (1, 2, "quadruple"))),
    "coords shape": bad(coords=np.zeros((4, 2))),
    "coords count": bad(coords=np.zeros((3, 3))),
    "non-finite coords": bad(coords=np.where(np.eye(4, 3) > 0, np.nan, TRANS.coords)),
    "unknown element": bad(elements=("C", "C", "S", "C")),
    "short bond": bad(bonds=((0, 1, "single"), (1, 2))),
}


@pytest.mark.parametrize("position", [1, 3])
@pytest.mark.parametrize("case", sorted(INVALID))
def test_an_invalid_record_raises_build_graphs_error(case, position):
    records = [replace(CIS, id=f"ok{i}") for i in range(4)]
    records.insert(position, INVALID[case])
    with pytest.raises(MoleculeError) as want:
        [build_graph(r, FEAT) for r in records]
    for build in (partial(build_union, records, FEAT),
                  lambda: featurize(build_union(records, FEAT), ModelConfig(path_length=2))):
        with pytest.raises(MoleculeError) as got:
            build()
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_a_hydrogen_outside_the_vocabulary_raises_in_explicit_mode_only():
    water = MoleculeRecord("water", ("O", "H", "H"), ((0, 1, "single"), (0, 2, "single")),
                           targets=(0.0,))
    records = [replace(water, id="w0", elements=("O", "O", "O")), water]
    heavy = FeaturizerConfig(("O",))
    assert build_union(records, heavy).n == 4
    explicit = replace(heavy, explicit_hydrogens=True)
    with pytest.raises(MoleculeError) as want:
        [build_graph(r, explicit) for r in records]
    with pytest.raises(MoleculeError) as got:
        build_union(records, explicit)
    assert str(got.value) == str(want.value) == (
        "molecule water: unknown element symbol 'H' (vocabulary: O)")


def test_featurize_records_with_and_without_coordinates_raises_featurizes_error():
    dry = MoleculeRecord("dry", ("C", "C"), ((0, 1, "single"),), targets=(0.0,))
    with pytest.raises(ConfigError, match="^molecule dry: edge feature width 4, but "
                                          "molecule cis has 5$"):
        featurize(build_union([CIS, TRANS, dry], FEAT), ModelConfig(feature_mode="base"))
    # a union has coordinates on every molecule or on none: on none, in
    # geometry mode, featurize names the first
    with pytest.raises(ConfigError, match="^molecule dry: geometry feature mode needs "
                                          "coordinates on the graph$"):
        featurize(build_union([dry, replace(TRANS, coords=None)], FEAT),
                  ModelConfig(feature_mode="geometry"))


@pytest.mark.parametrize("first", [CIS, replace(CIS, coords=None)], ids=["with", "without"])
def test_build_union_of_records_with_and_without_coordinates_fails_as_of_does(first):
    # whichever comes first, no union drops a molecule's coordinates, and
    # the builder raises the reference join's error naming the molecule
    records = [first, replace(TRANS, coords=None if first.coords is not None else TRANS.coords)]
    graphs = [build_graph(r, FEAT) for r in records]
    widths = (5, 4) if first.coords is not None else (4, 5)
    message = f"molecule trans: edge feature width {widths[1]}, but molecule cis has {widths[0]}"
    for build in (partial(union_of, graphs), partial(build_union, records, FEAT)):
        with pytest.raises(ConfigError) as got:
            build()
        assert str(got.value) == message


def test_featurize_records_names_a_later_molecule_with_coincident_atoms():
    coincident = replace(CIS, id="coincident", coords=np.array(
        [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]], dtype=np.float64))
    config = ModelConfig(feature_mode="geometry", path_length=3)
    with pytest.raises(DegenerateGeometryError,
                       match=r"^molecule coincident: zero-length bond vector "
                             r"in angle \(0, 1, 2\) on path \(0, 1, 2\)$"):
        featurize(build_union([CIS, TRANS, coincident], FEAT), config)


def test_featurize_records_names_a_later_molecule_past_the_path_cap(monkeypatch):
    monkeypatch.setattr(model_module, "enumerate_paths", partial(enumerate_paths, cap=2))
    pair = MoleculeRecord("pair", ("C", "C"), ((0, 1, "single"),), targets=(0.0,))
    star = MoleculeRecord("star", ("C",) * 4, ((0, 1, "single"), (0, 2, "single"),
                                                (0, 3, "single")), targets=(0.0,))
    with pytest.raises(PathExplosionError,
                       match="^molecule star: more than 2 paths rooted at node 0"):
        featurize(build_union([pair, star, pair], FEAT), ModelConfig(path_length=2))


@pytest.mark.parametrize("task,mode,path_length", [("dihedral-sum", "geometry", 3),
                                                   ("solubility", "substructure", 2)])
def test_training_and_evaluation_build_no_graph(task, mode, path_length):
    records = generate_molecules(task, 30, seed=5)
    featurizer = featurizer_from_records(records)
    config = ModelConfig(hidden_dim=4, path_length=path_length, feature_mode=mode)
    with no_graphs():
        result = train_regression(records, config, TrainSettings(epochs=2), featurizer)
        metrics = evaluate_regression(records, result.params, config, featurizer,
                                      result.target_mean, result.target_std)
    assert metrics["n"] == 30 and np.isfinite(metrics["rmse"])
