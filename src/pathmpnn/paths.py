"""Simple-path enumeration on anything exposing .n and
.adjacency (sorted neighbor tuples). Paths come as node tables: {length k:
(P, k+1) int64 array}, lengths ascending and only those with paths, rows
root-major (roots in the order given) and lexicographic within a root.
"""

from __future__ import annotations

from itertools import accumulate, chain, product

import numpy as np

DEFAULT_PATH_CAP = 100_000


class PathExplosionError(RuntimeError):
    """Enumeration exceeded the path cap."""


def csr_adjacency(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of an adjacency list: the neighbors of v are
    indices[indptr[v]:indptr[v+1]], in adjacency order."""
    indptr = np.array([0, *accumulate(map(len, adjacency))], dtype=np.int64)
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
    start = indptr.take(tips)
    count = indptr.take(tips + 1) - start
    row = np.arange(len(table)).repeat(count)
    # position of each candidate in the flat neighbor array
    flat = np.arange(len(row)) + (start - (count.cumsum() - count)).repeat(count)
    nxt = indices.take(flat)
    # (table[row] != nxt[:, None]).all(axis=1), a column at a time: several
    # times faster on narrow tables
    on_path = table.take(row, axis=0)
    fresh = on_path[:, 0] != nxt
    for j in range(1, table.shape[1]):
        fresh &= on_path[:, j] != nxt
    return row.compress(fresh), nxt.compress(fresh)


def enumerate_paths(graph, roots, max_length: int, *, cap: int = DEFAULT_PATH_CAP,
                    csr=None) -> dict[int, np.ndarray]:
    """All simple paths of length 1..max_length from the roots, each length's
    table extended from the previous one, over the graph's csr_adjacency (or
    `csr`, if given; the graph is then not read). More than `cap` paths from
    one root raise PathExplosionError naming the first such root in `roots`;
    once one crosses, only the roots before it are extended (they may cross later)."""
    if csr is None:
        csr = csr_adjacency(graph.adjacency)
    n = len(csr[0]) - 1
    roots = np.asarray(roots, dtype=np.int64)
    bad = roots.compress((roots < 0) | (roots >= n))
    if bad.size:
        raise ValueError(f"root {bad[0]} out of range for graph with {n} nodes")
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    table = roots[:, None]
    owner = np.arange(len(roots))          # position in roots of each row's root
    emitted = np.zeros(len(roots), dtype=np.int64)
    first_over = len(roots)
    tables = {}
    for k in range(1, max_length + 1):
        row, nxt = extensions(table, csr)
        row_owner = owner.take(row)
        emitted += np.bincount(row_owner, minlength=len(roots))
        over = (emitted > cap).nonzero()[0]
        if over.size:
            first_over = over[0]
            keep = row_owner < first_over
            row, nxt, row_owner = row.compress(keep), nxt.compress(keep), row_owner.compress(keep)
        table = np.concatenate([table.take(row, axis=0), nxt[:, None]], axis=1)
        owner = row_owner
        if not len(table):
            break
        tables[k] = table
    if first_over < len(roots):
        raise PathExplosionError(
            f"more than {cap} paths rooted at node {roots[first_over]}; "
            "use a shorter path length")
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
