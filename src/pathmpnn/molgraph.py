"""Molecule records and their in-memory graphs.

A MoleculeRecord is the parsed form of one input molecule (elements, bonds,
optional 3D coordinates, target values). A GraphUnion holds one or more
molecules as one set of arrays: dense node features and edge_index/edge_attr
arrays that hold each bond once per orientation. build_graph builds the
union of one record, build_union the union of many in array passes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

import numpy as np

from .geometry import _norm

BOND_ORDERS = ("single", "double", "triple", "aromatic")
_ORDER_INDEX = {o: i for i, o in enumerate(BOND_ORDERS)}
_ONE_HOT = np.eye(len(BOND_ORDERS), len(BOND_ORDERS) + 1)   # bond order rows, room for a length


class ConfigError(ValueError):
    """Settings or a batch of molecules that do not fit together."""


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
    for bond in record.bonds:
        try:
            i, j, order = bond
            i, j = operator.index(i), operator.index(j)
        except (TypeError, ValueError):
            raise MoleculeError(f"molecule {record.id}: bond {bond!r} is not (i, j, order) "
                                f"with integer atom indices") from None
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
class GraphUnion:
    """Molecules as one set of arrays, as PyTorch Geometric's Batch holds
    them; one molecule is a union of one. Molecule i, named ids[i], owns
    nodes ptr[i]:ptr[i+1]. As in PyTorch Geometric's Data, edge_index holds
    each bond once per orientation, in union node indices, sorted by (v, w):
    node by node, neighbours ascending. edge_attr holds each edge's bond
    order one-hot, then the bond length when there are coordinates; it keeps
    its width e when there are no bonds. Every array is made read-only, so
    the cached csr and adjacency stay those of edge_index."""
    ptr: np.ndarray
    node_features: np.ndarray          # (n, f)
    edge_index: np.ndarray             # (E, 2) int64, sorted (v, w)
    edge_attr: np.ndarray              # (E, e) float64, one row per edge
    elements: tuple[str, ...]
    coords: np.ndarray | None          # (n, 3), when every molecule has coordinates
    ids: tuple[str, ...]

    def __post_init__(self):
        for a in (self.ptr, self.node_features, self.edge_index, self.edge_attr, self.coords):
            if a is not None:
                a.setflags(write=False)   # replace the graph, do not edit it

    @property
    def n(self) -> int:
        return int(self.ptr[-1])

    @property
    def node_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def edge_dim(self) -> int:
        return self.edge_attr.shape[1]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): node v's neighbours are indices[indptr[v]:indptr[v+1]]."""
        degree = np.bincount(self.edge_index[:, 0], minlength=self.n)
        indptr = np.concatenate([[0], degree.cumsum()])
        indptr.setflags(write=False)
        return indptr, self.edge_index[:, 1]

    @cached_property
    def adjacency(self) -> list[list[int]]:
        indptr, indices = (a.tolist() for a in self.csr)
        return [indices[a:b] for a, b in zip(indptr, indptr[1:])]

    def molecule(self, i: int) -> GraphUnion:
        """Molecule i alone, in its own node indices."""
        a, b = self.ptr[i:i + 2]
        lo, hi = self.csr[0][[a, b]]
        return GraphUnion(np.array([0, b - a]), self.node_features[a:b],
                          self.edge_index[lo:hi] - a, self.edge_attr[lo:hi], self.elements[a:b],
                          None if self.coords is None else self.coords[a:b], self.ids[i:i + 1])


def build_graph(record: MoleculeRecord, config: FeaturizerConfig) -> GraphUnion:
    """One molecule's featurized graph: a GraphUnion of one. build_union
    gives the same arrays for many records at once; for one record this
    Python loop is the faster.

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

    coords = None if record.coords is None else record.coords[keep]

    # edge_of[v][w] is directed edge (v, w)'s table row: v, w, then its bond's
    # order index and atoms as listed, so both orientations get one length
    edge_of: list[dict[int, tuple]] = [{} for _ in range(n)]
    for i, j, order in record.bonds:
        if i in remap and j in remap:
            vi, vj = remap[i], remap[j]
            edge_of[vi][vj] = (vi, vj, _ORDER_INDEX[order], vi, vj)
            edge_of[vj][vi] = (vj, vi, _ORDER_INDEX[order], vi, vj)
    table = np.array([x for v, nbrs in enumerate(edge_of) for w in sorted(nbrs) for x in nbrs[w]],
                     dtype=np.int64).reshape(-1, 5)
    edge_index = table[:, :2].copy()
    edge_attr = _ONE_HOT[table[:, 2], :config.edge_dim(coords is not None)]
    if coords is not None:
        edge_attr[:, -1] = _norm(coords[table[:, 3]] - coords[table[:, 4]])

    node_features = np.zeros((n, config.node_dim), dtype=np.float64)
    for v, el in enumerate(elements):
        node_features[v, vocab_index[el]] = 1.0
        node_features[v, -1] = float(len(edge_of[v]))
    return GraphUnion(np.array([0, n]), node_features, edge_index, edge_attr, elements, coords,
                      (record.id,))


def build_union(records, config: FeaturizerConfig) -> GraphUnion:
    """The records' graphs as one union, array for array what joining each
    record's build_graph gives, from array passes over all records at once.
    Validation runs as masks; if one flags a record, the records are built
    one by one, so that the first bad record raises build_graph's error."""
    atoms = list(chain.from_iterable(r.elements for r in records))
    bonds = list(chain.from_iterable(r.bonds for r in records))
    try:   # a bond that is no (i, j, order) fails to unpack
        table = np.array([(i, j, _ORDER_INDEX.get(o, -1)) for i, j, o in bonds]
                         or np.empty((0, 3), dtype=np.int64))
    except (TypeError, ValueError):
        table = None
    if table is None or table.dtype.kind not in "iu":   # or an atom index is no integer
        _raise_first_error(records, config)
    ends, order = table[:, :2].astype(np.int64).T, table[:, 2]
    n_atoms = np.array([len(r.elements) for r in records], dtype=np.int64)
    n_bonds = np.array([len(r.bonds) for r in records], dtype=np.int64)
    atom_of, bond_of = (np.arange(len(records)).repeat(c) for c in (n_atoms, n_bonds))
    index = {el: c for c, el in enumerate(config.element_vocab)}
    if not config.explicit_hydrogens:
        index["H"] = -2                                   # dropped, in the vocabulary or not
    code = np.array([index.get(el, -1) for el in atoms], dtype=np.int64)

    lo, hi = ends.min(axis=0), ends.max(axis=0)
    start = n_atoms.cumsum() - n_atoms                    # each record's first atom
    distinct = np.unique((start[bond_of] + lo) * len(atoms) + hi, return_index=True)[1]
    bad = np.bincount(bond_of[distinct], minlength=len(records)) < n_bonds   # duplicates
    bad[bond_of[(lo < 0) | (hi >= n_atoms[bond_of]) | (lo == hi) | (order < 0)]] = True
    keep = code != -2
    bad[atom_of[keep & (code < 0)]] = True
    coords, with_coords = None, bool(records) and records[0].coords is not None
    bad |= [np.shape(r.coords) != (len(r.elements), 3) if with_coords else r.coords is not None
            for r in records]
    if with_coords and not bad.any():
        coords = np.concatenate([r.coords for r in records])
        bad[atom_of[~np.isfinite(coords).all(axis=1)]] = True
    if bad.any():
        _raise_first_error(records, config)

    ends = start[bond_of] + ends                          # bond ends as listed, in atoms
    kept = keep[ends].all(axis=0)
    u, w = (keep.cumsum() - 1)[ends[:, kept]]             # and in union nodes
    ptr = np.concatenate([[0], np.bincount(atom_of[keep], minlength=len(records)).cumsum()])
    n = int(ptr[-1])
    pairs = np.concatenate([[u, w], [w, u]], axis=1)      # each bond in both orientations
    by_edge = np.argsort(pairs[0] * n + pairs[1])
    bond = np.tile(np.arange(len(u)), 2)[by_edge]
    edge_attr = _ONE_HOT[order[kept][bond], :config.edge_dim(coords is not None)]
    if coords is not None:
        coords = coords[keep]
        edge_attr[:, -1] = _norm(coords[u] - coords[w])[bond]   # one length per bond
    x = np.zeros((n, config.node_dim))
    x[np.arange(n), code[keep]] = 1.0
    x[:, -1] = np.bincount(pairs[0], minlength=n)
    return GraphUnion(ptr, x, pairs[:, by_edge].T.copy(), edge_attr,
                      tuple(compress(atoms, keep)), coords, tuple(r.id for r in records))


def _raise_first_error(records, config: FeaturizerConfig):
    """Raise build_graph's error for the first record it refuses; if it
    refuses none, some records have coordinates and some do not, and their
    edge widths differ."""
    for record in records:
        build_graph(record, config)
    first = records[0]
    odd = next(r for r in records if (r.coords is None) != (first.coords is None))
    raise ConfigError(f"molecule {odd.id}: edge feature width "
                      f"{config.edge_dim(odd.coords is not None)}, but molecule {first.id} "
                      f"has {config.edge_dim(first.coords is not None)}")
