"""Simple-path enumeration over a graph's CSR adjacency (indptr, indices),
neighbours ascending. Paths come as node tables: {length k: (P, k+1) int64
array}, lengths ascending and only those with paths, rows root-major (roots
in the order given) and lexicographic within a root.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PATH_CAP = 100_000


class PathExplosionError(RuntimeError):
    """Enumeration exceeded the path cap."""


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


def enumerate_paths(csr, roots, max_length: int, *,
                    cap: int = DEFAULT_PATH_CAP) -> dict[int, np.ndarray]:
    """All simple paths of length 1..max_length from the roots over a graph's
    csr, each length's table extended from the previous one. More than `cap`
    paths from one root raise PathExplosionError naming the first such root
    in `roots`; once one crosses, only the roots before it are extended (they
    may cross later)."""
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

