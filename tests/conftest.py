import pytest
from hypothesis import HealthCheck, settings

import pathmpnn.tensor as T
from oracles import adjacency_oracle, csr_of
from pathmpnn.gradchecks import probe_molecule
from pathmpnn.molgraph import build_graph

settings.register_profile(
    "suite", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def tape_recording_stays_on():
    """Fail a test that leaves tape recording switched off: every later
    training step would record nothing and silently update nothing."""
    yield
    if not T.GRAD_ENABLED:
        T.GRAD_ENABLED = True
        pytest.fail("the test left tape recording switched off (tensor.GRAD_ENABLED)")


@pytest.fixture
def probe_graph():
    """Five heavy atoms with a branch and generic 3D coordinates."""
    return build_graph(*probe_molecule())


class AdjacencyGraph:
    """Bare graph for the path engine: n, its neighbour tuples and their CSR."""

    def __init__(self, n, edges):
        self.n = n
        self.adjacency = adjacency_oracle(n, edges)
        self.csr = csr_of(self.adjacency)


@pytest.fixture
def path4():
    return AdjacencyGraph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def k4():
    return AdjacencyGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return AdjacencyGraph(n, edges)
