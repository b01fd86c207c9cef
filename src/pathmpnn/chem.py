"""Substructure flags attached to paths: ring membership by ring size and
functional-group indicators.

Ring flags are size-resolved over sizes 3..8 plus an any-ring bit. The one
functional group is the alcohol (hydroxyl oxygen).

substructure_features flags a whole table of same-length paths at once;
substructure_path_features flags one path and is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RING_SIZES = (3, 4, 5, 6, 7, 8)
RING_FLAG_DIM = len(RING_SIZES) + 1  # size flags + any-ring
GROUP_FLAG_DIM = 2                   # on a group bond, touches a group


def all_simple_cycles(adjacency, max_size: int = 8) -> list[tuple[int, ...]]:
    """Every simple cycle with 3..max_size nodes, once per cycle.

    Canonical form: the cycle starts at its smallest node and its second
    node is smaller than its last, which kills the reversed duplicate.
    """
    n = len(adjacency)
    cycles: list[tuple[int, ...]] = []
    stack: list[int] = []

    def search(start: int):
        tip = stack[-1]
        for w in adjacency[tip]:
            if w < start:
                continue
            if w == start:
                if len(stack) >= 3 and stack[1] < stack[-1]:
                    cycles.append(tuple(stack))
                continue
            if w in on_stack or len(stack) == max_size or len(adjacency[w]) < 2:
                continue                 # a node of degree 1 is on no cycle
            stack.append(w)
            on_stack.add(w)
            search(start)
            on_stack.discard(w)
            stack.pop()

    for start in (v for v in range(n) if len(adjacency[v]) > 1):
        stack = [start]
        on_stack = {start}
        search(start)
    return cycles


def ring_membership(graph) -> np.ndarray:
    """(n, 8) table of {0,1} flags: columns are ring sizes 3..8, then any-ring.

    A node gets the size-s flag when it sits on at least one simple cycle of
    exactly s nodes.
    """
    flags = np.zeros((graph.n, RING_FLAG_DIM), dtype=np.float64)
    for cycle in all_simple_cycles(graph.adjacency, max_size=RING_SIZES[-1]):
        size = len(cycle)
        if size in RING_SIZES:
            col = RING_SIZES.index(size)
            for v in cycle:
                flags[v, col] = 1.0
                flags[v, -1] = 1.0
    return flags


@dataclass(frozen=True)
class GroupMatch:
    """One functional group's footprint: member atoms and the bonds whose
    traversal marks a path as passing through the group."""

    name: str
    member_nodes: frozenset
    bonds: frozenset  # of frozenset({a, b})


def detect_alcohol(graph) -> GroupMatch:
    """Hydroxyl oxygens.

    Heavy-atom convention: an O of degree 1 bonded to a C is taken as R-OH.
    With explicit hydrogens (the O's molecule lists an H, graph.explicit_h
    per node) the O must bond exactly one H and one C.
    """
    members: set[int] = set()
    bonds: set[frozenset] = set()
    for v, el in enumerate(graph.elements):
        if el != "O":
            continue
        nbrs = graph.adjacency[v]
        nbr_els = [graph.elements[w] for w in nbrs]
        if graph.explicit_h[v]:
            if sorted(nbr_els) != ["C", "H"]:
                continue
        else:
            if len(nbrs) != 1 or nbr_els[0] != "C":
                continue
        members.add(v)
        for w in nbrs:
            members.add(w)
            bonds.add(frozenset((v, w)))
    return GroupMatch("alcohol", frozenset(members), frozenset(bonds))


def detect_groups(graph) -> list[GroupMatch]:
    """The functional groups whose footprints the substructure flags read."""
    return [detect_alcohol(graph)]


@dataclass(frozen=True)
class SubstructureFeatures:
    ring_flags: np.ndarray  # (k, RING_FLAG_DIM) for the k non-root path nodes
    on_group_bond: float    # path traverses a group bond
    touches_group: float    # some path node belongs to a group

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.ring_flags.reshape(-1), [self.on_group_bond, self.touches_group]]
        )


def feature_width(path_length: int) -> int:
    return RING_FLAG_DIM * path_length + GROUP_FLAG_DIM


def substructure_path_features(graph, nodes, ring_table=None, groups=None) -> SubstructureFeatures:
    """Flags for the path `nodes`: per non-root-node ring flags plus group bits.

    ring_table/groups accept precomputed results so per-graph work happens
    once; otherwise they are computed here.
    """
    if ring_table is None:
        ring_table = ring_membership(graph)
    if groups is None:
        groups = detect_groups(graph)
    on_bond = 0.0
    touches = 0.0
    for g in groups:
        if any(frozenset(pair) in g.bonds for pair in zip(nodes, nodes[1:])):
            on_bond = 1.0
        if any(v in g.member_nodes for v in nodes):
            touches = 1.0
    return SubstructureFeatures(
        ring_flags=ring_table[list(nodes[1:])],
        on_group_bond=on_bond,
        touches_group=touches,
    )


def substructure_features(paths: np.ndarray, ring_table, groups) -> np.ndarray:
    """substructure_path_features for every row of a (P, k+1) node table of
    paths of one length k, from the graph's ring_membership and
    detect_groups: the stacked per-path vectors as a (P, feature_width(k))
    array. Group bonds are found by their keys a*n+b, not an (n, n) table."""
    n, k = len(ring_table), paths.shape[1] - 1
    pairs = [tuple(pair) for g in groups for pair in g.bonds]
    bond_keys = np.array(sorted([a * n + b for a, b in pairs] + [b * n + a for a, b in pairs])
                         + [n * n], dtype=np.int64)   # n*n: above every key
    member = np.zeros(n, dtype=bool)
    for g in groups:
        member[list(g.member_nodes)] = True
    steps = paths[:, :-1] * n + paths[:, 1:]
    out = np.empty((len(paths), feature_width(k)))
    out[:, :-2] = ring_table.take(paths[:, 1:], axis=0).reshape(len(paths), -1)
    on_bond = bond_keys.take(bond_keys.searchsorted(steps)) == steps
    touches = member.take(paths)
    # any(axis=1) over narrow rows, as |= column by column into column 0: several times faster
    for j in range(1, k):
        on_bond[:, 0] |= on_bond[:, j]
    for j in range(1, k + 1):
        touches[:, 0] |= touches[:, j]
    out[:, -2], out[:, -1] = on_bond[:, 0], touches[:, 0]
    return out
