"""Molecule records and their in-memory graphs.

A MoleculeRecord is the parsed form of one input molecule (elements, bonds,
optional 3D coordinates, target values). build_graph turns it into an
immutable Graph with dense node features and edge_index/edge_attr arrays
that hold each bond once per orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _norm

BOND_ORDERS = ("single", "double", "triple", "aromatic")
_ORDER_INDEX = {o: i for i, o in enumerate(BOND_ORDERS)}
_ONE_HOT = np.eye(len(BOND_ORDERS), len(BOND_ORDERS) + 1)   # bond order rows, room for a length


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
    """One molecule's featurized graph, every array read-only. As in PyTorch
    Geometric's Data, edge_index holds each bond once per orientation, sorted
    by (v, w): the order of adjacency, node by node, neighbours ascending.
    edge_attr holds each edge's bond order one-hot, then the bond length when
    there are coordinates; it keeps its width e when there are no bonds."""
    n: int
    adjacency: tuple[tuple[int, ...], ...]
    node_features: np.ndarray                      # (n, f)
    edge_index: np.ndarray                         # (E, 2) int64, sorted (v, w)
    edge_attr: np.ndarray                          # (E, e) float64, one row per edge
    elements: tuple[str, ...] | None = None
    coords: np.ndarray | None = None               # (n, 3)
    targets: tuple[float, ...] = ()
    id: str = ""

    @property
    def node_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def edge_dim(self) -> int:
        return self.edge_attr.shape[1]

    def edges(self):
        """Unordered edge pairs (v < w)."""
        return [(v, w) for v, w in self.edge_index.tolist() if v < w]

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

    # edge_of[v][w] is directed edge (v, w)'s table row: v, w, then its bond's
    # order index and atoms as listed, so both orientations get one length
    edge_of: list[dict[int, tuple]] = [{} for _ in range(n)]
    for i, j, order in record.bonds:
        if i in remap and j in remap:
            vi, vj = remap[i], remap[j]
            edge_of[vi][vj] = (vi, vj, _ORDER_INDEX[order], vi, vj)
            edge_of[vj][vi] = (vj, vi, _ORDER_INDEX[order], vi, vj)
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in edge_of)
    table = np.array([x for v, nbrs in enumerate(adjacency) for w in nbrs for x in edge_of[v][w]],
                     dtype=np.int64).reshape(-1, 5)
    edge_index = table[:, :2].copy()
    edge_attr = _ONE_HOT[table[:, 2], :config.edge_dim(coords is not None)]
    if coords is not None:
        edge_attr[:, -1] = _norm(coords[table[:, 3]] - coords[table[:, 4]])

    node_features = np.zeros((n, config.node_dim), dtype=np.float64)
    for v, el in enumerate(elements):
        node_features[v, vocab_index[el]] = 1.0
        node_features[v, -1] = float(len(adjacency[v]))
    for a in (node_features, edge_index, edge_attr, coords):
        if a is not None:
            a.setflags(write=False)

    return Graph(
        n=n,
        adjacency=adjacency,
        node_features=node_features,
        edge_index=edge_index,
        edge_attr=edge_attr,
        elements=elements,
        coords=coords,
        targets=tuple(float(t) for t in record.targets),
        id=record.id,
    )
