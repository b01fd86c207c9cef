import pytest
from hypothesis import HealthCheck, settings

from pathmpnn.gradchecks import probe_molecule
from pathmpnn.molgraph import build_graph

settings.register_profile(
    "suite", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def probe_graph():
    """Five heavy atoms with a branch and generic 3D coordinates."""
    return build_graph(*probe_molecule())


class AdjacencyGraph:
    """Bare graph for the path engine: just n and adjacency."""

    def __init__(self, n, edges):
        self.n = n
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency = tuple(tuple(sorted(s)) for s in adj)


@pytest.fixture
def path4():
    return AdjacencyGraph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def k4():
    return AdjacencyGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return AdjacencyGraph(n, edges)
