import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from resbdy import build_finite
from resbdy.walk import _slot_tables

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")


@pytest.fixture
def triangle():
    return build_finite([(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@pytest.fixture
def path3():
    # o - a - b with unit conductances
    return build_finite([(0, 1, 1), (1, 2, 1)])


@pytest.fixture
def path5():
    # five vertices, four unit edges, origin at one end
    return build_finite([(i, i + 1, 1) for i in range(4)])


@pytest.fixture
def star4():
    # center 0 with three leaves
    return build_finite([(0, i, 1) for i in (1, 2, 3)])


@pytest.fixture
def grid44():
    edges = []
    def vid(i, j):
        return 4 * i + j
    for i in range(4):
        for j in range(4):
            if i + 1 < 4:
                edges.append((vid(i, j), vid(i + 1, j), 1))
            if j + 1 < 4:
                edges.append((vid(i, j), vid(i, j + 1), 1))
    return build_finite(edges)


def csr_laplacian(net):
    """The graph Laplacian of a whole network as a sparse matrix, physics
    sign: (L v)(x) = sum_y c_xy (v(x) - v(y)). A reference formed apart
    from the library's edge-current sums."""
    return sp.diags(net.c_of) - net.adjacency


def step_probabilities(view, x):
    """x's neighbours in the window and the walk's probability of stepping
    to each, in slot order, read off the walk's slot tables: slot j is taken
    with P_j - P_(j-1), the last with 1 - P_(deg-2)."""
    nbr, cum, deg = _slot_tables(view)
    at = int(view.index(x))
    d = deg[at]
    steps = np.diff(np.concatenate([[0.0], cum[:d - 1, at], [1.0]]))
    return view.vertices[nbr[:d, at]], steps


def random_edge_list(rng, n):
    """Random connected weighted graph on n vertices (tree plus extras)."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.2, 3.0))))
    for _ in range(n // 2):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.append((int(min(a, b)), int(max(a, b)),
                          float(rng.uniform(0.2, 3.0))))
    return edges


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
