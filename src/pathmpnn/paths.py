"""Simple-path enumeration and sampling on anything exposing .n and
.adjacency (sorted neighbor tuples). Paths come as node tables: {length k:
(P, k+1) int64 array}, lengths ascending and only those with paths, rows
root-major (roots in the order given) and lexicographic within a root.
"""

from __future__ import annotations

from itertools import chain, product

import numpy as np

DEFAULT_PATH_CAP = 100_000


class PathExplosionError(RuntimeError):
    """Enumeration exceeded the path cap; use sample_paths instead."""


def csr_adjacency(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of an adjacency list: the neighbors of v are
    indices[indptr[v]:indptr[v+1]], in adjacency order."""
    indptr = np.concatenate([[0], np.cumsum([len(nbrs) for nbrs in adjacency], dtype=np.int64)])
    indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64,
                          count=int(indptr[-1]))
    return indptr, indices


def extensions(table: np.ndarray, csr) -> tuple[np.ndarray, np.ndarray]:
    """Every one-edge extension of the paths in a (P, m) node table, as
    (row, next_node): row-major, neighbors of each row's last node in
    adjacency order, nodes already on the row's path left out. Extending a
    lexicographic table row by row gives a lexicographic table."""
    indptr, indices = csr
    tips = table[:, -1]
    count = indptr[tips + 1] - indptr[tips]
    row = np.repeat(np.arange(len(table)), count)
    # position of each candidate in the flat neighbor array
    flat = np.arange(len(row)) + np.repeat(indptr[tips] - (np.cumsum(count) - count), count)
    nxt = indices[flat]
    fresh = (table[row] != nxt[:, None]).all(axis=1)
    return row[fresh], nxt[fresh]


def _check_roots(graph, roots) -> np.ndarray:
    roots = np.asarray(roots, dtype=np.int64)
    bad = roots[(roots < 0) | (roots >= graph.n)]
    if bad.size:
        raise ValueError(f"root {bad[0]} out of range for graph with {graph.n} nodes")
    return roots


def enumerate_paths(graph, roots, max_length: int, *, exact_length_only: bool = False,
                    cap: int = DEFAULT_PATH_CAP) -> dict[int, np.ndarray]:
    """All simple paths of length 1..max_length from the roots, each
    length's table extended from the previous one; with exact_length_only
    only the max_length table. More than `cap` paths from one root raise
    PathExplosionError naming the first such root in `roots`; once one
    crosses, only the roots before it are extended (they may cross later)."""
    roots = _check_roots(graph, roots)
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    csr = csr_adjacency(graph.adjacency)
    table = roots[:, None]
    owner = np.arange(len(roots))          # position in roots of each row's root
    emitted = np.zeros(len(roots), dtype=np.int64)
    first_over = len(roots)
    tables = {}
    for k in range(1, max_length + 1):
        row, nxt = extensions(table, csr)
        emitted += np.bincount(owner[row], minlength=len(roots))
        over = np.flatnonzero(emitted > cap)
        if over.size:
            first_over = over[0]
            keep = owner[row] < first_over
            row, nxt = row[keep], nxt[keep]
        table = np.concatenate([table[row], nxt[:, None]], axis=1)
        owner = owner[row]
        if not len(table):
            break
        if not exact_length_only or k == max_length:
            tables[k] = table
    if first_over < len(roots):
        raise PathExplosionError(
            f"more than {cap} paths rooted at node {roots[first_over]}; "
            "use sample_paths with a budget")
    return tables


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


def sample_paths(graph, roots, max_length: int, budget: int, seed) -> dict[int, np.ndarray]:
    """Sampled simple paths from each root in turn, one rng for all:
    randomized depth-first enumeration, truncated after `budget` paths per
    root. Each extension picks uniformly among admissible neighbors, so a
    budget covering a root's whole path set reproduces enumerate_paths."""
    roots = _check_roots(graph, roots)
    rng = np.random.default_rng(seed)   # a Generator passes through as is
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rows: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, max_length + 1)}
    for v in roots.tolist():
        out: list[tuple[int, ...]] = []
        stack = [v]

        def extend() -> bool:
            free = [w for w in graph.adjacency[stack[-1]] if w not in stack]
            order = rng.permutation(len(free)) if len(free) > 1 else range(len(free))
            for idx in order:
                stack.append(free[idx])
                out.append(tuple(stack))
                done = len(out) >= budget or (len(stack) - 1 < max_length and extend())
                stack.pop()
                if done:
                    return True
            return False

        extend()
        for path in sorted(out):
            rows[len(path) - 1].append(path)
    return {k: np.asarray(r, dtype=np.int64) for k, r in rows.items() if r}
