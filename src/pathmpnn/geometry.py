"""Internal-coordinate features along paths: bond lengths, bond angles,
signed dihedral angles.

geometry_features computes them for a whole table of same-length paths at
once; the scalar bond_angle, dihedral and geometry_path_features compute
them one path at a time and are its test oracles.

Angles are emitted as cosines (and for the dihedral the sine as well) so the
features stay bounded and free of the branch cut at +-pi. The dihedral sine
is the one quantity here that changes sign under reflection, which is what
lets a downstream model tell mirror images apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_EPS = 1e-8  # angstrom; below this a bond vector is degenerate


class DegenerateGeometryError(ValueError):
    """Zero-length bond vector or undefined plane."""


def bond_length(coords, i: int, j: int) -> float:
    return float(np.linalg.norm(np.asarray(coords[j], dtype=np.float64)
                                - np.asarray(coords[i], dtype=np.float64)))


def bond_angle(coords, v: int, w: int, y: int) -> float:
    """Angle at vertex w between bonds w-v and w-y, in [0, pi]."""
    coords = np.asarray(coords, dtype=np.float64)
    a = coords[v] - coords[w]
    b = coords[y] - coords[w]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < NORM_EPS or nb < NORM_EPS:
        raise DegenerateGeometryError(
            f"zero-length bond vector in angle ({v}, {w}, {y})"
        )
    cos = float(np.dot(a, b) / (na * nb))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def dihedral(coords, v: int, w: int, y: int, x: int) -> float:
    """Signed dihedral about the w-y axis, in (-pi, pi].

    Right-handed about w->y: a planar cis arrangement (v and x on the same
    side) gives 0, planar trans gives pi. Collinear triples leave a plane
    undefined and raise; callers substitute the declared fallback.
    """
    coords = np.asarray(coords, dtype=np.float64)
    b1 = coords[w] - coords[v]
    b2 = coords[y] - coords[w]
    b3 = coords[x] - coords[y]
    for vec, pair in ((b1, (v, w)), (b2, (w, y)), (b3, (y, x))):
        if np.linalg.norm(vec) < NORM_EPS:
            raise DegenerateGeometryError(f"zero-length bond vector {pair}")
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    if np.linalg.norm(n1) < NORM_EPS or np.linalg.norm(n2) < NORM_EPS:
        raise DegenerateGeometryError(
            f"collinear atoms leave dihedral ({v}, {w}, {y}, {x}) undefined"
        )
    b2_hat = b2 / np.linalg.norm(b2)
    angle = float(np.arctan2(np.dot(np.cross(n1, n2), b2_hat), np.dot(n1, n2)))
    if angle <= -np.pi:
        angle = np.pi
    return angle


@dataclass(frozen=True)
class GeometryFeatures:
    """Feature block for one path. Field presence depends on path length:
    one bond length per edge, one angle cosine per interior node, dihedral
    terms only for length-3 paths."""

    bond_lengths: tuple[float, ...]
    angle_cosines: tuple[float, ...] = ()
    dihedral_cos: float | None = None
    dihedral_sin: float | None = None
    dihedral_degenerate: bool = False

    def to_vector(self) -> np.ndarray:
        parts = list(self.bond_lengths) + list(self.angle_cosines)
        if self.dihedral_cos is not None:
            parts += [self.dihedral_cos, self.dihedral_sin,
                      1.0 if self.dihedral_degenerate else 0.0]
        return np.asarray(parts, dtype=np.float64)


def feature_width(path_length: int) -> int:
    """Vector width produced by geometry_path_features for a given length."""
    widths = {1: 1, 2: 3, 3: 8}
    if path_length not in widths:
        raise ValueError(f"unsupported path length {path_length}")
    return widths[path_length]


def geometry_path_features(graph, nodes) -> GeometryFeatures:
    """Assemble lengths/angles/dihedral for the path `nodes` of length 1..3.

    A degenerate (collinear) dihedral falls back to cos=1, sin=0 with the
    degenerate indicator set; degenerate bond angles propagate as errors.
    """
    if graph.coords is None:
        raise ValueError("geometry features need atomic coordinates")
    k = len(nodes) - 1
    if k > 3:
        raise ValueError(f"geometry features defined for lengths 1..3, got {k}")
    coords = graph.coords
    lengths = tuple(bond_length(coords, a, b) for a, b in zip(nodes, nodes[1:]))
    angles = tuple(
        float(np.cos(bond_angle(coords, nodes[i], nodes[i + 1], nodes[i + 2])))
        for i in range(k - 1)
    )
    if k < 3:
        return GeometryFeatures(bond_lengths=lengths, angle_cosines=angles)
    try:
        phi = dihedral(coords, *nodes)
        return GeometryFeatures(
            bond_lengths=lengths,
            angle_cosines=angles,
            dihedral_cos=float(np.cos(phi)),
            dihedral_sin=float(np.sin(phi)),
        )
    except DegenerateGeometryError:
        return GeometryFeatures(
            bond_lengths=lengths,
            angle_cosines=angles,
            dihedral_cos=1.0,
            dihedral_sin=0.0,
            dihedral_degenerate=True,
        )


def _dot(a, b):
    """Dot products over the last axis, equal to np.dot's bit for bit: a
    stacked matmul runs the same BLAS dot on each pair of rows, where einsum
    and sum(axis=-1) round differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a):
    """np.linalg.norm over the last axis, computed as it does: sqrt(a . a)."""
    return np.sqrt(_dot(a, a))


def _cross(a, b):
    """np.cross of 3-vectors over the last axis: its arithmetic, not its axis handling."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def geometry_features(coords, paths: np.ndarray) -> np.ndarray:
    """geometry_path_features for every row of a (P, k+1) node table of
    paths of one length k in 1..3: the stacked per-path vectors, bit for
    bit, as a (P, feature_width(k)) array. A zero-length bond in an angle
    raises, naming the first such path in row order."""
    k = paths.shape[1] - 1
    if not 1 <= k <= 3:
        raise ValueError(f"geometry features defined for lengths 1..3, got {k}")
    coords = np.asarray(coords, dtype=np.float64)
    bonds = coords[paths[:, 1:]] - coords[paths[:, :-1]]     # (P, k, 3)
    lengths = _norm(bonds)
    parts = [lengths]
    if k >= 2:
        # angle at w between w->v and w->y; |w->v| is the bond length exactly
        a, b = coords[paths[:, :-2]] - coords[paths[:, 1:-1]], bonds[:, 1:]
        na, nb = lengths[:, :-1], lengths[:, 1:]
        bad = (na < NORM_EPS) | (nb < NORM_EPS)
        if bad.any():
            row, i = np.argwhere(bad)[0]
            path = tuple(paths[row].tolist())
            raise DegenerateGeometryError(
                f"zero-length bond vector in angle {path[i:i + 3]} on path {path}")
        parts.append(np.cos(np.arccos(np.clip(_dot(a, b) / (na * nb), -1.0, 1.0))))
    if k == 3:
        normals = _cross(bonds[:, :2], bonds[:, 1:])        # b1 x b2, b2 x b3
        n1, n2 = normals[:, 0], normals[:, 1]
        b2_hat = bonds[:, 1] / lengths[:, 1:2]
        phi = np.arctan2(_dot(_cross(n1, n2), b2_hat), _dot(n1, n2))
        phi[phi <= -np.pi] = np.pi
        torsion = np.stack([np.cos(phi), np.sin(phi), np.zeros(len(phi))], axis=1)
        torsion[(_norm(normals) < NORM_EPS).any(axis=1)] = (1.0, 0.0, 1.0)   # collinear
        parts.append(torsion)
    return np.concatenate(parts, axis=1)
