"""Molecule records and their in-memory graphs.

A MoleculeRecord is the parsed form of one input molecule (elements, bonds,
optional 3D coordinates, target values). build_graph turns it into an
immutable Graph with dense node features and symmetric edge features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOND_ORDERS = ("single", "double", "triple", "aromatic")


class MoleculeError(ValueError):
    """Invalid molecule record (dangling bond, duplicate bond, bad coords)."""


class UnknownElementError(MoleculeError):
    """Element symbol not in the dataset vocabulary."""


@dataclass(frozen=True)
class MoleculeRecord:
    id: str
    elements: tuple[str, ...]
    bonds: tuple[tuple[int, int, str], ...]
    targets: tuple[float, ...] = ()
    coords: np.ndarray | None = None  # (n_atoms, 3), angstrom

    def __post_init__(self):
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=np.float64)
            object.__setattr__(self, "coords", c)

    @property
    def n_atoms(self) -> int:
        return len(self.elements)


def validate_record(record: MoleculeRecord) -> None:
    n = record.n_atoms
    seen = set()
    for i, j, order in record.bonds:
        if not (0 <= i < n and 0 <= j < n):
            raise MoleculeError(
                f"molecule {record.id}: dangling bond index ({i}, {j}) with {n} atoms"
            )
        if i == j:
            raise MoleculeError(f"molecule {record.id}: self bond on atom {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise MoleculeError(f"molecule {record.id}: duplicate bond {key}")
        seen.add(key)
        if order not in BOND_ORDERS:
            raise MoleculeError(f"molecule {record.id}: unknown bond order {order!r}")
    if record.coords is not None:
        c = np.asarray(record.coords, dtype=np.float64)
        if c.shape != (n, 3):
            raise MoleculeError(
                f"molecule {record.id}: coords shape {c.shape}, expected ({n}, 3)"
            )
        if not np.all(np.isfinite(c)):
            raise MoleculeError(f"molecule {record.id}: non-finite coordinates")


@dataclass(frozen=True)
class FeaturizerConfig:
    """Node/edge featurization settings. The element vocabulary comes from the
    dataset, never from a hardcoded list."""

    element_vocab: tuple[str, ...]
    explicit_hydrogens: bool = False

    def __post_init__(self):
        if len(set(self.element_vocab)) != len(self.element_vocab):
            raise MoleculeError("element vocabulary contains duplicates")

    @property
    def node_dim(self) -> int:
        return len(self.element_vocab) + 1  # one-hot + degree

    def edge_dim(self, with_coords: bool) -> int:
        return len(BOND_ORDERS) + (1 if with_coords else 0)


def vocab_from_records(records) -> tuple[str, ...]:
    """The element vocabulary of a dataset whose header pins none: the
    sorted set of symbols in its records."""
    return tuple(sorted({el for r in records for el in r.elements}))


# eq=False: field-wise == on numpy arrays is ambiguous; identity hash keeps
# graphs usable as cache keys.
@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]
    node_features: np.ndarray                      # (n, f)
    edge_features: dict                            # (v, w) -> (e,) array, both orientations
    elements: tuple[str, ...] | None = None
    coords: np.ndarray | None = None               # (n, 3)
    targets: tuple[float, ...] = ()
    id: str = ""

    @property
    def node_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def edge_dim(self) -> int:
        if not self.edge_features:
            return 0
        return next(iter(self.edge_features.values())).shape[0]

    def edges(self):
        """Unordered edge pairs (v < w)."""
        return [(v, w) for v in range(self.n) for w in self.adjacency[v] if v < w]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def build_graph(record: MoleculeRecord, config: FeaturizerConfig) -> Graph:
    """Build the featurized graph for one molecule.

    Heavy-atom mode (the default) drops hydrogens and bonds to them;
    explicit-hydrogen mode keeps everything. Unknown element symbols are
    rejected rather than bucketed.
    """
    validate_record(record)

    if config.explicit_hydrogens:
        keep = list(range(record.n_atoms))
    else:
        keep = [i for i, el in enumerate(record.elements) if el != "H"]
    remap = {old: new for new, old in enumerate(keep)}
    n = len(keep)

    elements = tuple(record.elements[i] for i in keep)
    vocab_index = {el: i for i, el in enumerate(config.element_vocab)}
    for el in elements:
        if el not in vocab_index:
            raise UnknownElementError(
                f"molecule {record.id}: unknown element symbol {el!r} "
                f"(vocabulary: {', '.join(config.element_vocab)})"
            )

    coords = None
    if record.coords is not None:
        coords = np.asarray(record.coords, dtype=np.float64)[keep].copy()

    adj: list[set[int]] = [set() for _ in range(n)]
    kept_bonds = []
    for i, j, order in record.bonds:
        if i in remap and j in remap:
            vi, vj = remap[i], remap[j]
            adj[vi].add(vj)
            adj[vj].add(vi)
            kept_bonds.append((vi, vj, order))

    has_coords = coords is not None
    edge_dim = config.edge_dim(has_coords)
    edge_features: dict[tuple[int, int], np.ndarray] = {}
    order_index = {o: i for i, o in enumerate(BOND_ORDERS)}
    for vi, vj, order in kept_bonds:
        feat = np.zeros(edge_dim, dtype=np.float64)
        feat[order_index[order]] = 1.0
        if has_coords:
            feat[-1] = float(np.linalg.norm(coords[vi] - coords[vj]))
        feat.setflags(write=False)
        edge_features[(vi, vj)] = feat
        edge_features[(vj, vi)] = feat

    node_features = np.zeros((n, config.node_dim), dtype=np.float64)
    for v, el in enumerate(elements):
        node_features[v, vocab_index[el]] = 1.0
        node_features[v, -1] = float(len(adj[v]))
    node_features.setflags(write=False)
    if coords is not None:
        coords.setflags(write=False)

    return Graph(
        n=n,
        adjacency=tuple(tuple(sorted(s)) for s in adj),
        node_features=node_features,
        edge_features=edge_features,
        elements=elements,
        coords=coords,
        targets=tuple(float(t) for t in record.targets),
        id=record.id,
    )
