"""Molecule records and their in-memory graphs.

A MoleculeRecord is the parsed form of one input molecule (elements, bonds,
optional 3D coordinates, target values). build_graph turns it into an
immutable Graph with dense node features and symmetric edge features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# eq=False: graphs are compared with graphs_equal, identity hash keeps them
# usable as cache keys.
@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]
    node_features: np.ndarray                      # (n, f)
    edge_features: dict                            # (v, w) -> (e,) array, both orientations
    elements: tuple[str, ...] | None = None
    coords: np.ndarray | None = None               # (n, 3)
    labels: np.ndarray | None = None               # (n,) class ids
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


def graphs_equal(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.adjacency != b.adjacency or a.elements != b.elements:
        return False
    if not np.array_equal(a.node_features, b.node_features):
        return False
    if sorted(a.edge_features) != sorted(b.edge_features):
        return False
    for key, val in a.edge_features.items():
        if not np.array_equal(val, b.edge_features[key]):
            return False
    if (a.coords is None) != (b.coords is None):
        return False
    if a.coords is not None and not np.array_equal(a.coords, b.coords):
        return False
    if (a.labels is None) != (b.labels is None):
        return False
    if a.labels is not None and not np.array_equal(a.labels, b.labels):
        return False
    return a.targets == b.targets


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


def graph_to_dict(graph: Graph) -> dict:
    """JSON-serializable form of a graph. Floats survive the round trip
    bit-exactly (repr-based JSON encoding)."""
    edges = {}
    for (v, w), feat in graph.edge_features.items():
        if v < w:
            edges[f"{v},{w}"] = [float(x) for x in feat]
    out = {
        "id": graph.id,
        "n": graph.n,
        "adjacency": [list(row) for row in graph.adjacency],
        "node_features": [[float(x) for x in row] for row in graph.node_features],
        "edge_features": edges,
        "targets": list(graph.targets),
    }
    if graph.elements is not None:
        out["elements"] = list(graph.elements)
    if graph.coords is not None:
        out["coords"] = [[float(x) for x in row] for row in graph.coords]
    if graph.labels is not None:
        out["labels"] = [int(x) for x in graph.labels]
    return out


def graph_from_dict(data: dict) -> Graph:
    edge_features = {}
    for key, val in data["edge_features"].items():
        v, w = (int(x) for x in key.split(","))
        feat = np.asarray(val, dtype=np.float64)
        feat.setflags(write=False)
        edge_features[(v, w)] = feat
        edge_features[(w, v)] = feat
    node_features = np.asarray(data["node_features"], dtype=np.float64)
    node_features.setflags(write=False)
    coords = None
    if "coords" in data:
        coords = np.asarray(data["coords"], dtype=np.float64)
        coords.setflags(write=False)
    labels = None
    if "labels" in data:
        labels = np.asarray(data["labels"], dtype=np.int64)
    return Graph(
        n=int(data["n"]),
        adjacency=tuple(tuple(row) for row in data["adjacency"]),
        node_features=node_features,
        edge_features=edge_features,
        elements=tuple(data["elements"]) if "elements" in data else None,
        coords=coords,
        labels=labels,
        targets=tuple(data.get("targets", ())),
        id=data.get("id", ""),
    )
