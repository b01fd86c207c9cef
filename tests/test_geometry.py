import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathmpnn.geometry import (DegenerateGeometryError, GeometryFeatures,
                               bond_angle, bond_length, dihedral,
                               feature_width, geometry_features,
                               geometry_path_features)
from pathmpnn.molgraph import FeaturizerConfig, MoleculeRecord, build_graph
from pathmpnn.paths import enumerate_paths


def chain_graph(coords):
    n = len(coords)
    return tree_graph(coords, [(i, i + 1) for i in range(n - 1)])


def tree_graph(coords, edges):
    record = MoleculeRecord("tree", ("C",) * len(coords),
                            tuple((a, b, "single") for a, b in edges),
                            coords=np.asarray(coords, dtype=np.float64))
    return build_graph(record, FeaturizerConfig(("C",)))


def tables_by_length(g):
    """Every path of g up to length 3, one node table per length."""
    return enumerate_paths(g, range(g.n), 3)


def oracle_rows(g, paths):
    return np.stack([geometry_path_features(g, tuple(row)).to_vector()
                     for row in paths.tolist()])


S60 = np.sqrt(3.0) / 2.0
CIS = [[-0.5, S60, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, S60, 0.0]]
TRANS = [[-0.5, S60, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, -S60, 0.0]]


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_right_angle():
    coords = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.0, 1, 0]])
    assert bond_angle(coords, 0, 1, 2) == pytest.approx(np.pi / 2)


def test_collinear_angle_is_pi():
    coords = np.array([[-1.0, 0, 0], [0.0, 0, 0], [2.0, 0, 0]])
    assert bond_angle(coords, 0, 1, 2) == pytest.approx(np.pi)


def test_tetrahedral_angle():
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
                        [0, 0, 0]], dtype=np.float64)
    expected = np.arccos(-1.0 / 3.0)
    for i in range(4):
        for j in range(i + 1, 4):
            assert bond_angle(corners, i, 4, j) == pytest.approx(expected, abs=1e-6)


def test_degenerate_angle_names_atoms():
    coords = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(DegenerateGeometryError, match=r"\(0, 1, 2\)"):
        bond_angle(coords, 0, 1, 2)


def test_planar_cis_is_zero_trans_is_pi():
    assert dihedral(np.array(CIS), 0, 1, 2, 3) == pytest.approx(0.0, abs=1e-12)
    assert dihedral(np.array(TRANS), 0, 1, 2, 3) == pytest.approx(np.pi)


def test_dihedral_range_is_half_open():
    phi = dihedral(np.array(TRANS), 0, 1, 2, 3)
    assert -np.pi < phi <= np.pi


def test_reflection_negates_dihedral_100_quadruples():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        coords = rng.normal(size=(4, 3)) * 2.0
        try:
            phi = dihedral(coords, 0, 1, 2, 3)
        except DegenerateGeometryError:
            continue
        mirrored = coords.copy()
        mirrored[:, 2] = -mirrored[:, 2]
        phi_m = dihedral(mirrored, 0, 1, 2, 3)
        assert np.sin(phi_m) == pytest.approx(-np.sin(phi), abs=1e-9)
        assert abs(phi_m) == pytest.approx(abs(phi), abs=1e-9)
        checked += 1


def test_dihedral_reversal_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        coords = rng.normal(size=(4, 3)) * 2.0
        try:
            a = dihedral(coords, 0, 1, 2, 3)
        except DegenerateGeometryError:
            continue
        assert dihedral(coords, 3, 2, 1, 0) == pytest.approx(a, abs=1e-9)


def test_collinear_dihedral_raises():
    coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 1, 0]])
    with pytest.raises(DegenerateGeometryError, match="collinear"):
        dihedral(coords, 0, 1, 2, 3)


def test_path_features_trans_chain():
    g = chain_graph(TRANS)
    (p3,) = map(tuple, enumerate_paths(g, [0], 3)[3].tolist())
    feats = geometry_path_features(g, p3)
    assert feats.dihedral_cos == pytest.approx(-1.0)
    assert feats.dihedral_sin == pytest.approx(0.0, abs=1e-12)
    assert not feats.dihedral_degenerate
    assert len(feats.bond_lengths) == 3
    assert len(feats.angle_cosines) == 2
    assert feats.to_vector().shape == (feature_width(3),)


def test_path_features_shorter_lengths():
    g = chain_graph(TRANS)
    f1 = geometry_path_features(g, (0, 1))
    assert f1.dihedral_cos is None and f1.angle_cosines == ()
    assert f1.to_vector().shape == (feature_width(1),)
    f2 = geometry_path_features(g, (0, 1, 2))
    assert f2.dihedral_cos is None and len(f2.angle_cosines) == 1
    assert f2.to_vector().shape == (feature_width(2),)


def test_degenerate_dihedral_fallback_flag():
    g = chain_graph([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0.0, 0]])
    feats = geometry_path_features(g, (0, 1, 2, 3))
    assert feats.dihedral_degenerate
    assert feats.dihedral_cos == 1.0 and feats.dihedral_sin == 0.0


def test_rigid_motion_invariance_100_trials():
    rng = np.random.default_rng(7)
    base = np.array([[0.0, 0, 0], [1.4, 0.2, 0.1], [2.1, 1.3, -0.4],
                     [3.3, 1.1, 0.6]])
    g = chain_graph(base)
    (p3,) = map(tuple, enumerate_paths(g, [0], 3)[3].tolist())
    reference = geometry_path_features(g, p3).to_vector()
    for _ in range(100):
        rot = random_rotation(rng)
        moved = base @ rot.T + rng.normal(size=3)
        feats = geometry_path_features(chain_graph(moved), p3).to_vector()
        assert np.abs(feats - reference).max() < 1e-6


def test_dihedral_sin_is_the_only_chirality_sensitive_entry():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(4, 3)) * 2.0
    g = chain_graph(base)
    (p3,) = map(tuple, enumerate_paths(g, [0], 3)[3].tolist())
    feats = geometry_path_features(g, p3)
    mirrored = base.copy()
    mirrored[:, 0] = -mirrored[:, 0]
    feats_m = geometry_path_features(chain_graph(mirrored), p3)
    assert feats_m.bond_lengths == pytest.approx(feats.bond_lengths)
    assert feats_m.angle_cosines == pytest.approx(feats.angle_cosines)
    assert feats_m.dihedral_cos == pytest.approx(feats.dihedral_cos)
    assert feats_m.dihedral_sin == pytest.approx(-feats.dihedral_sin)


def test_dihedral_cos_sin_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        coords = rng.normal(size=(4, 3)) * 2.0
        try:
            phi = dihedral(coords, 0, 1, 2, 3)
        except DegenerateGeometryError:
            continue
        assert np.cos(phi) ** 2 + np.sin(phi) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_geometry_needs_coordinates():
    record = MoleculeRecord("dry", ("C", "C"), ((0, 1, "single"),))
    g = build_graph(record, FeaturizerConfig(("C",)))
    with pytest.raises(ValueError, match="coordinates"):
        geometry_path_features(g, (0, 1))


# -- batched features against the per-path oracle; tolerance 0 (exact) --------

@given(st.integers(0, 10_000))
def test_batched_features_equal_oracle_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    g = tree_graph(rng.normal(size=(n, 3)) * 1.5, edges)
    for k, paths in tables_by_length(g).items():
        feats = geometry_features(g.coords, paths)
        assert feats.shape == (len(paths), feature_width(k))
        assert np.array_equal(feats, oracle_rows(g, paths))


@pytest.mark.parametrize("coords", [CIS, TRANS, [[x, -y, z] for x, y, z in TRANS],
                                    [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]],
                                    [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 1, 0]]])
def test_batched_features_equal_oracle_on_planar_and_collinear_chains(coords):
    g = chain_graph(coords)
    for paths in tables_by_length(g).values():
        assert np.array_equal(geometry_features(g.coords, paths), oracle_rows(g, paths))


def test_batched_collinear_chain_gets_fallback_row_beside_a_regular_one():
    # atoms 0-1-2 collinear: (0,1,2,3) is degenerate, (1,2,3,4) is not
    g = chain_graph([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [2.5, 1.0, 0],
                     [3.5, 1.0, 0.6]])
    paths = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    feats = geometry_features(g.coords, paths)
    assert np.array_equal(feats[0, 5:], [1.0, 0.0, 1.0])
    assert feats[1, 7] == 0.0
    assert np.array_equal(feats, oracle_rows(g, paths))


def test_batched_coincident_atoms_raise_naming_the_first_path():
    g = chain_graph([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [2.0, 1, 0]])
    paths = np.array([[3, 2, 1, 0], [0, 1, 2, 3]])
    with pytest.raises(DegenerateGeometryError,
                       match=r"angle \(3, 2, 1\) on path \(3, 2, 1, 0\)"):
        geometry_features(g.coords, paths)
    with pytest.raises(DegenerateGeometryError):
        geometry_path_features(g, (3, 2, 1, 0))
    # bond lengths need no angle: length-1 rows stay defined (0 for the pair)
    assert np.array_equal(geometry_features(g.coords, np.array([[1, 2]])), [[0.0]])



def test_batched_features_reject_lengths_outside_one_to_three():
    with pytest.raises(ValueError, match="lengths 1..3"):
        geometry_features(np.array(TRANS), np.array([[0, 1, 2, 3, 0]]))
