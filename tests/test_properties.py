"""Cross-module property tests on randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resbdy import (IntegerLatticeGenerator, LadderGenerator, build_finite,
                    energy, energy_kernel, potential_from_values,
                    gauss_green_verify, solve_dipole_level)
from resbdy.energy import SubgraphView
from resbdy.wiener import mu_negative_fraction, sample_ensemble
from tests.conftest import random_edge_list


@given(st.integers(min_value=4, max_value=18), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25)
def test_wired_never_exceeds_free_random_windows(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    # carve a window around the origin that keeps a nonempty boundary
    radius = max(1, int(net.level.max()) - 1)
    view = net.ball_view(radius)
    targets = [v for v in view.interior if v != net.origin]
    if not targets:
        return
    x = int(targets[0])
    free = solve_dipole_level(view, x, bc="free")
    wired = solve_dipole_level(view, x, bc="wired")
    assert wired.value(x) <= free.value(x) + 1e-10


@given(st.integers(min_value=4, max_value=16), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25)
def test_reproducing_identity_random_networks(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    window = net.full_view()
    x = int(rng.integers(1, net.n))
    vx = solve_dipole_level(window, x, bc="free")
    u = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
    lhs = energy(vx, u)
    rhs = u.value(x) - u.value(net.origin)
    assert abs(lhs - rhs) <= 1e-9 * (1 + energy(u, u) ** 0.5)


@given(st.integers(min_value=5, max_value=16), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25)
def test_gauss_green_split_identity_random(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    u = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
    v = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
    rep = gauss_green_verify(u, v, range(1, int(net.level.max()) + 1))
    assert rep.split_identity_dev <= 1e-9 * (1 + abs(rep.target))


def test_generator_index_stability():
    lad = LadderGenerator(5, 0.9)
    small, big = lad.ball(3), lad.ball(9)
    for n in range(3):
        assert small.level[lad.x(n)] == big.level[lad.x(n)] == n
        assert small.level[lad.y(n)] == big.level[lad.y(n)] == n
    from resbdy import BinaryTreeGenerator
    tree = BinaryTreeGenerator()
    t1, t2 = tree.ball(3), tree.ball(6)
    assert np.array_equal(t1.level, t2.level[: t1.n])


def test_lattice_2d_kernel_smoke():
    gen = IntegerLatticeGenerator(2)
    pot, rep = energy_kernel(gen, 1, levels=14, tol=1e-4)
    # Z^2 is recurrent but the kernel itself converges; R(0, e_1) < 1
    assert 0.4 < pot.value(1) < 0.6
    assert np.isfinite(pot.at(pot.window.vertices)).all()


def test_mu_negative_fraction_gaussian_oracle():
    # 1 + h~ < 0 happens with probability Phi(-1/sigma) for ||h|| = sigma
    from math import erf, sqrt
    ens = sample_ensemble(1, 400_000, seed=123)
    sigma = 1.0
    frac = mu_negative_fraction(np.array([sigma]), ens)
    target = 0.5 * (1 + erf(-1.0 / (sigma * sqrt(2))))
    assert frac == pytest.approx(target, abs=4 * np.sqrt(target * (1 - target) / 400_000))


def test_subgraph_view_boundary_matches_definition(grid44):
    inside = {0, 1, 2, 4, 5, 6}
    expected_bd = set()
    for v in inside:
        nbrs = grid44.adjacency[v].indices
        if any(int(w) not in inside for w in nbrs):
            expected_bd.add(v)
    # sorted input, and unsorted input with a repeat
    for verts in ([0, 1, 2, 4, 5, 6], [6, 0, 5, 1, 6, 2, 4]):
        H = SubgraphView(grid44, verts)
        assert H.vertices.tolist() == sorted(inside)
        assert set(H.bd.tolist()) == expected_bd
        assert set(H.interior.tolist()) == inside - expected_bd
        assert H.edge_mask.tolist() == [a in inside and b in inside for a, b in
                                         zip(grid44.ei.tolist(), grid44.ej.tolist())]
