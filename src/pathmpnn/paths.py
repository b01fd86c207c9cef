"""Simple-path enumeration and sampling.

A path is rooted at a node v and visits distinct nodes along edges. The
enumerator returns every simple path of length 1..max_length in lexicographic
order; the sampler draws a random subset when full enumeration is too
expensive. Both work on anything exposing .n and .adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

DEFAULT_PATH_CAP = 100_000


class PathExplosionError(RuntimeError):
    """Enumeration exceeded the path cap; use sample_paths instead."""


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a path has at least one edge")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"repeated node in path {self.nodes}")

    @property
    def root(self) -> int:
        return self.nodes[0]

    @property
    def length(self) -> int:
        return len(self.nodes) - 1


def enumerate_paths(graph, v: int, max_length: int, *, exact_length_only: bool = False,
                    cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All simple paths rooted at v with length 1..max_length.

    Paths come out in lexicographic order of their node sequences (sorted
    adjacency, prefix before extension), so featurization is reproducible.
    With exact_length_only, only paths of length exactly max_length survive.
    """
    if not (0 <= v < graph.n):
        raise ValueError(f"root {v} out of range for graph with {graph.n} nodes")
    if max_length < 1:
        raise ValueError("max_length must be >= 1")

    out: list[Path] = []
    stack = [v]
    on_path = {v}

    emitted = 0

    def extend():
        nonlocal emitted
        tip = stack[-1]
        for w in graph.adjacency[tip]:
            if w in on_path:
                continue
            stack.append(w)
            on_path.add(w)
            emitted += 1
            if emitted > cap:
                raise PathExplosionError(
                    f"more than {cap} paths rooted at node {v}; "
                    "use sample_paths with a budget"
                )
            if not exact_length_only or len(stack) - 1 == max_length:
                out.append(Path(tuple(stack)))
            if len(stack) - 1 < max_length:
                extend()
            on_path.discard(w)
            stack.pop()

    extend()
    return out


def count_paths_oracle(graph, v: int, max_length: int) -> dict[int, int]:
    """Exhaustive path counter used to cross-check enumerate_paths.

    Checks every node sequence of each length for adjacency and
    distinctness; no search tree shared with the enumerator. Intended for
    small graphs (n <= 12).
    """
    adj_sets = [set(nbrs) for nbrs in graph.adjacency]
    counts: dict[int, int] = {}
    nodes = range(graph.n)
    for length in range(1, max_length + 1):
        c = 0
        for tail in product(nodes, repeat=length):
            seq = (v,) + tail
            if len(set(seq)) != length + 1:
                continue
            if all(b in adj_sets[a] for a, b in zip(seq, seq[1:])):
                c += 1
        counts[length] = c
    return counts


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_paths(graph, v: int, max_length: int, budget: int, seed) -> list[Path]:
    """Sample simple paths rooted at v, deterministic given the seed.

    Randomized depth-first enumeration, truncated after `budget` emitted
    paths. Each extension picks uniformly among admissible neighbors, so a
    budget covering the whole path set reproduces enumerate_paths exactly
    (up to order; output is sorted).
    """
    if not (0 <= v < graph.n):
        raise ValueError(f"root {v} out of range for graph with {graph.n} nodes")
    rng = _as_rng(seed)

    if budget < 1:
        raise ValueError("budget must be >= 1")
    out: list[Path] = []
    stack = [v]
    on_path = {v}

    def extend() -> bool:
        tip = stack[-1]
        admissible = [w for w in graph.adjacency[tip] if w not in on_path]
        order = rng.permutation(len(admissible)) if len(admissible) > 1 else range(len(admissible))
        for idx in order:
            w = admissible[idx]
            stack.append(w)
            on_path.add(w)
            out.append(Path(tuple(stack)))
            done = len(out) >= budget
            if not done and len(stack) - 1 < max_length:
                done = extend()
            on_path.discard(w)
            stack.pop()
            if done:
                return True
        return False

    extend()
    return sorted(out, key=lambda p: p.nodes)


def path_tables(paths: list[Path]) -> dict[int, np.ndarray]:
    """One (P, k+1) int64 node table per path length k, rows in the order
    the paths come in, lengths in order of first appearance."""
    rows: dict[int, list[tuple[int, ...]]] = {}
    for p in paths:
        rows.setdefault(p.length, []).append(p.nodes)
    return {k: np.asarray(r, dtype=np.int64) for k, r in rows.items()}
