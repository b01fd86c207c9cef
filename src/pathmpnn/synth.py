"""Synthetic dataset generators.

These tasks are built so that a particular path feature carries the signal:
alcohol-count is readable off the substructure flags, dihedral-sum off the
geometry block. They exist to verify the mechanism at desk scale, where the
full public benchmarks are out of reach. The citation generator produces a
homophilous network with class-dependent word features in the classic
content/cites shape.
"""

from __future__ import annotations

import numpy as np

from .citation import CitationGraph
from .geometry import geometry_features
from .molgraph import ConfigError, FeaturizerConfig, MoleculeRecord, build_graph
from .paths import enumerate_paths

TASKS = ("alcohol-count", "dihedral-sum", "solubility")


def _random_tree(rng, n_atoms: int, max_degree: int = 4):
    """Random tree edges with a degree cap."""
    degree = np.zeros(n_atoms, dtype=np.int64)
    bonds = []
    for i in range(1, n_atoms):
        candidates = [j for j in range(i) if degree[j] < max_degree]
        parent = int(rng.choice(candidates))
        bonds.append((parent, i, "single"))
        degree[parent] += 1
        degree[i] += 1
    return bonds, degree


def synth_alcohol_count(n_molecules: int, seed: int = 0) -> list[MoleculeRecord]:
    """Heavy-atom molecules over C/N/O; target is the number of hydroxyl
    oxygens (degree-1 O bonded to C). Degree-1 O on N and ether O are
    present as confounders."""
    rng = np.random.default_rng(seed)
    records = []
    for idx in range(n_molecules):
        n_atoms = int(rng.integers(6, 13))
        elements = tuple(rng.choice(["C", "N", "O"], size=n_atoms,
                                    p=[0.60, 0.15, 0.25]))
        bonds, degree = _random_tree(rng, n_atoms)
        adjacency = [[] for _ in range(n_atoms)]
        for a, b, _ in bonds:
            adjacency[a].append(b)
            adjacency[b].append(a)
        count = sum(
            1 for v in range(n_atoms)
            if elements[v] == "O" and degree[v] == 1
            and elements[adjacency[v][0]] == "C"
        )
        records.append(MoleculeRecord(
            id=f"alc{idx}", elements=elements, bonds=tuple(bonds),
            targets=(float(count),)))
    return records


def _random_coords(rng, bonds, n_atoms: int) -> np.ndarray:
    """Grow coordinates along the tree: each atom sits a bond length from
    its parent in a random direction, rejected while too close to an
    existing atom."""
    coords = np.zeros((n_atoms, 3))
    parent = {}
    for a, b, _ in bonds:
        parent[max(a, b)] = min(a, b)
    for i in range(1, n_atoms):
        base = coords[parent[i]]
        for _ in range(200):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            pos = base + direction * (1.45 + rng.normal(0, 0.08))
            if np.linalg.norm(coords[:i] - pos, axis=1).min() > 0.9:
                coords[i] = pos
                break
        else:
            coords[i] = pos
    return coords


def synth_dihedral_sum(n_molecules: int, seed: int = 0) -> list[MoleculeRecord]:
    """3D molecules whose target is the sum of dihedral cosines over all
    four-atom chains (each unordered chain counted once)."""
    rng = np.random.default_rng(seed)
    featurizer = FeaturizerConfig(("C", "N"))
    records = []
    for idx in range(n_molecules):
        n_atoms = int(rng.integers(6, 11))
        elements = tuple(rng.choice(["C", "N"], size=n_atoms, p=[0.8, 0.2]))
        bonds, _ = _random_tree(rng, n_atoms, max_degree=3)
        coords = _random_coords(rng, bonds, n_atoms)
        record = MoleculeRecord(id=f"dih{idx}", elements=elements,
                                bonds=tuple(bonds), coords=coords)
        graph = build_graph(record, featurizer)
        chains = enumerate_paths(graph, range(graph.n), 3)
        total = 0.0
        if 3 in chains:   # column 5 of a length-3 geometry row is the dihedral cosine
            for cos in geometry_features(graph.coords, chains[3])[:, 5].tolist():
                total += cos
        records.append(MoleculeRecord(
            id=record.id, elements=elements, bonds=tuple(bonds),
            coords=coords, targets=(total / 2.0,)))
    return records


def synth_solubility(n_molecules: int, seed: int = 0) -> list[MoleculeRecord]:
    """Solubility-flavored single-target regression: the target is a linear
    blend of size, hydroxyl count and ring membership plus noise, roughly on
    the log-solubility scale."""
    from .chem import ring_membership

    rng = np.random.default_rng(seed)
    records = []
    for idx in range(n_molecules):
        n_atoms = int(rng.integers(8, 17))
        elements = tuple(rng.choice(["C", "N", "O"], size=n_atoms,
                                    p=[0.70, 0.10, 0.20]))
        bonds, degree = _random_tree(rng, n_atoms)
        adjacency = [set() for _ in range(n_atoms)]
        for a, b, _ in bonds:
            adjacency[a].add(b)
            adjacency[b].add(a)
        # close up to two rings of size 3..6
        bonds = list(bonds)
        for _ in range(int(rng.integers(0, 3))):
            v = int(rng.integers(n_atoms))
            if degree[v] >= 4:
                continue
            # walk 2..5 steps away from v along the tree
            steps = int(rng.integers(2, 6))
            node, prev = v, -1
            for _ in range(steps):
                nxt = [w for w in adjacency[node] if w != prev]
                if not nxt:
                    break
                prev, node = node, int(rng.choice(nxt))
            if node != v and degree[node] < 4 and node not in adjacency[v]:
                bonds.append((min(v, node), max(v, node), "single"))
                adjacency[v].add(node)
                adjacency[node].add(v)
                degree[v] += 1
                degree[node] += 1
        record = MoleculeRecord(id=f"sol{idx}", elements=elements,
                                bonds=tuple(bonds))
        graph = build_graph(record, FeaturizerConfig(("C", "N", "O")))
        n_hydroxyl = sum(
            1 for v in range(graph.n)
            if graph.elements[v] == "O" and graph.degree(v) == 1
            and graph.elements[graph.adjacency[v][0]] == "C")
        ring_atoms = float(ring_membership(graph)[:, -1].sum())
        target = (1.2 - 0.28 * n_atoms + 1.1 * n_hydroxyl
                  - 0.15 * ring_atoms + rng.normal(0, 0.15))
        records.append(MoleculeRecord(
            id=record.id, elements=elements, bonds=tuple(bonds),
            targets=(float(target),)))
    return records


def generate_molecules(task: str, n_molecules: int, seed: int = 0):
    generators = {
        "alcohol-count": synth_alcohol_count,
        "dihedral-sum": synth_dihedral_sum,
        "solubility": synth_solubility,
    }
    if task not in generators:
        raise ValueError(f"unknown task {task!r}; choose from {TASKS}")
    return generators[task](n_molecules, seed)


def synth_citation(n_nodes: int = 800, n_classes: int = 7,
                   n_features: int = 1433, seed: int = 0,
                   train_per_class: int = 20, val_size: int = 300,
                   test_size: int = 1000) -> CitationGraph:
    """Homophilous citation-style network: class-dependent topic words,
    mostly intra-class links, classic train/val/test masks. Each class draws
    at least 10 distinct topic words, so n_features must be at least 10."""
    if n_features < 10:
        raise ConfigError(f"n_features must be at least 10 (each class draws 10 distinct "
                          f"topic words), got {n_features}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(n_classes, size=n_nodes)
    # overlapping class topics and short noisy documents keep the features
    # weakly informative; a strongly homophilous link structure makes the
    # higher-order neighborhood carry real signal
    topics_per_class = max(10, n_features // n_classes)
    topic_words = {
        c: rng.choice(n_features, size=topics_per_class, replace=False)
        for c in range(n_classes)
    }
    features = np.zeros((n_nodes, n_features))
    for v in range(n_nodes):
        own = rng.choice(topic_words[labels[v]], size=4)
        noise = rng.choice(n_features, size=7)
        features[v, own] = 1.0
        features[v, noise] = 1.0

    by_class = {c: np.flatnonzero(labels == c) for c in range(n_classes)}
    edges = set()
    for v in range(n_nodes):
        k = 1 + rng.poisson(1.0)
        for _ in range(k):
            if rng.random() < 0.85:
                w = int(rng.choice(by_class[labels[v]]))
            else:
                w = int(rng.integers(n_nodes))
            if w != v:
                edges.add((min(v, w), max(v, w)))

    train = np.concatenate([
        by_class[c][:train_per_class] for c in range(n_classes)])
    rest = np.setdiff1d(np.arange(n_nodes, dtype=np.int64), train)
    val = rest[:min(val_size, len(rest) // 2)]
    test = rest[len(val):][-test_size:]
    return CitationGraph(
        n=n_nodes, edges=tuple(sorted(edges)), features=features,
        labels=labels.astype(np.int64), train_idx=train, val_idx=val,
        test_idx=test, n_classes=n_classes,
        ids=tuple(f"doc{v}" for v in range(n_nodes)))
