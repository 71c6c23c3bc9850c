from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resbdy import (IntegerLatticeGenerator, Potential, build_finite, energy,
                    potential_from_values, window_laplacian)
from resbdy.energy import (SubgraphView, edge_ends, flow_laplacian,
                           window_edges)
from resbdy.errors import DomainMismatch, InvalidParameters
from resbdy.solver import solve_dipole_level
from tests.conftest import csr_laplacian, random_edge_list


def _exact_laplacian(window, w):
    """The window Laplacian of the exact values w, from the currents
    c (w_a - w_b) formed from them: the reference the carried currents
    must reproduce."""
    c, a, b = window_edges(window, Fraction)
    return flow_laplacian(a, b, c * (w[a] - w[b]), len(w))


def _dirac(net, x, window=None):
    """The Dirac mass at x as a float64 Potential."""
    return potential_from_values(net, (np.arange(net.n) == x).astype(float),
                                 window=window)


def _laplacian_at(u, x):
    """u's window Laplacian at vertex x, as float64."""
    return float(window_laplacian(u)[u.window.index(x)])


def _restrict(v, H):
    """v on a window H inside its own: its values there and, when it
    carries them, its currents on the edges of H. The window Laplacian of
    the restriction is dn v on bd H."""
    w = v.w[v.window.index(H.vertices)]
    i = None if v.i is None else v.i[v.window.edge_index[H.edge_mask]]
    return Potential(H, w, i=i)


def test_energy_of_dirac_is_total_conductance(triangle, star4):
    for net in (triangle, star4):
        for x in range(net.n):
            d = _dirac(net, x)
            assert energy(d, d) == pytest.approx(net.c_of[x], rel=1e-12)


def test_energy_of_constant_vanishes(triangle):
    u = potential_from_values(triangle, [3.0, 3.0, 3.0])
    assert energy(u, u) == 0.0


def test_energy_path_ramp(path3):
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    assert energy(u, u) == pytest.approx(2.0, rel=1e-14)


def test_laplacian_constant_zero(triangle):
    u = potential_from_values(triangle, [5.0, 5.0, 5.0])
    assert window_laplacian(u).tolist() == [0.0, 0.0, 0.0]


def test_laplacian_path_midpoint(path3):
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    assert _laplacian_at(u, 1) == pytest.approx(0.0, abs=1e-15)


def test_laplacian_of_dirac_at_origin(triangle):
    d = _dirac(triangle, 0)
    assert _laplacian_at(d, 0) == pytest.approx(triangle.c_of[0], rel=1e-14)


def test_dirac_pairing_matches_laplacian_on_examples(path3):
    # energy(delta_x, u) = (Lap u)(x) by summation by parts
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    assert energy(_dirac(path3, 1), u) == pytest.approx(0.0, abs=1e-15)
    c = potential_from_values(path3, [7.0, 7.0, 7.0])
    assert energy(_dirac(path3, 1), c) == 0.0


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=2 ** 31))
def test_dirac_pairing_is_laplacian(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    u = potential_from_values(net, rng.standard_normal(net.n))
    laps = window_laplacian(u)
    for x in range(net.n):
        lap = laps[x]
        pair = energy(_dirac(net, x), u)
        assert abs(pair - lap) <= 1e-12 * max(1.0, abs(lap))


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2 ** 31))
def test_energy_bilinear_symmetric_cauchy_schwarz(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    u = potential_from_values(net, rng.standard_normal(net.n))
    v = potential_from_values(net, rng.standard_normal(net.n))
    w = potential_from_values(net, rng.standard_normal(net.n))
    a, b = rng.standard_normal(2)
    comb = potential_from_values(net, a * u.w + b * v.w)
    assert energy(comb, w) == pytest.approx(a * energy(u, w) + b * energy(v, w),
                                            rel=1e-9, abs=1e-9)
    assert energy(u, v) == pytest.approx(energy(v, u), rel=1e-12, abs=1e-14)
    assert energy(u, u) >= 0
    assert energy(u, v) ** 2 <= energy(u, u) * energy(v, v) * (1 + 1e-10) + 1e-12


def test_normal_derivative_whole_network_has_no_boundary(path3):
    # no vertex is on bd H, so the window Laplacian is Lap u everywhere
    H = path3.full_view()
    assert len(H.bd) == 0
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    want = csr_laplacian(path3) @ u.w
    assert window_laplacian(u).tolist() == want.tolist() == [-1.0, 0.0, 1.0]


def test_normal_derivative_path_subgraph(path3):
    H = SubgraphView(path3, [0, 1])
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    assert _laplacian_at(_restrict(u, H), 1) == pytest.approx(1.0)
    c = potential_from_values(path3, [4.0, 4.0, 4.0])
    assert _laplacian_at(_restrict(c, H), 1) == 0.0


def test_normal_derivative_interior_equals_laplacian(grid44):
    H = SubgraphView(grid44, list(range(16)))
    rng = np.random.default_rng(1)
    u = potential_from_values(grid44, rng.standard_normal(16))
    # interior vertex of a strict subgraph: drop one corner to create boundary
    H2 = SubgraphView(grid44, list(range(15)))
    lap = window_laplacian(_restrict(u, H2))
    for x in H2.interior:
        row = grid44.adjacency[int(x)]
        inner = sum(
            c * (u.at(x) - u.at(y))
            for y, c in zip(row.indices, row.data))
        assert inner == pytest.approx(lap[H2.index(x)], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("values", [{0: 0.0, 1: 1.0, 2: 2.0}, [0.0, 1.0],
                                    [0.0, 1.0, 2.0, 3.0], [[0.0, 1.0, 2.0]]],
                         ids=["dict", "short", "long", "2-d"])
def test_potential_values_need_one_float_per_vertex(path3, values):
    with pytest.raises(InvalidParameters):
        potential_from_values(path3, values)


def test_domain_mismatch(triangle, path3):
    u = potential_from_values(triangle, [0, 1, 0.5])
    v = potential_from_values(path3, [0, 1, 2])
    with pytest.raises(DomainMismatch):
        energy(u, v)


def test_potentials_on_two_windows_are_a_domain_mismatch(path3):
    u = potential_from_values(path3, [0, 1, 2], window=SubgraphView(path3, [0, 1]))
    v = potential_from_values(path3, [0, 1, 2], window=SubgraphView(path3, [1, 2]))
    with pytest.raises(DomainMismatch):
        energy(u, v)


def test_value_outside_the_window_raises():
    net = build_finite([(i, i + 1, 1) for i in range(3)])
    u = potential_from_values(net, [0.0, 1.0, 2.0, 3.0])
    assert u.value(3) == 3.0
    for x in (-1, 7):
        with pytest.raises(DomainMismatch):
            u.value(x)
    with pytest.raises(DomainMismatch):
        u.at([1, 2, 4])


def test_normal_derivative_raises_on_a_read_outside_the_window():
    # v lives on the ball of radius 3; bd of the radius-4 ball needs v(4)
    net = build_finite([(i, i + 1, 1) for i in range(9)])
    v = solve_dipole_level(net.ball_view(3), 2)
    with pytest.raises(DomainMismatch):
        _restrict(v, net.ball_view(4))


@pytest.mark.parametrize("at", [3, -1])
def test_laplacian_of_a_vertex_off_the_network_is_a_domain_mismatch(path3, at):
    # -1 must not wrap round to the last position
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    with pytest.raises(DomainMismatch):
        _laplacian_at(u, at)


@pytest.mark.parametrize("at", [3, -1])
def test_normal_derivative_at_a_vertex_off_the_network_is_a_domain_mismatch(path3, at):
    H = SubgraphView(path3, [0, 1])
    u = potential_from_values(path3, [0.0, 1.0, 2.0])
    with pytest.raises(DomainMismatch):
        _laplacian_at(_restrict(u, H), at)


def test_missing_neighbor_on_frontier():
    # the frontier vertex's outside neighbour is not materialized, so it is
    # on bd H of every window, where the window Laplacian is dn u
    from resbdy import GeometricHalfLineGenerator
    net = GeometricHalfLineGenerator(2).ball(3)
    u = potential_from_values(net, [0.0, 1.0, 1.0, 1.0])
    assert u.window.bd.tolist() == [3]
    assert not u.window.is_interior(3)


def test_laplacian_with_a_neighbor_outside_the_window_is_missing(path3):
    # vertex 1 is in the window {0, 1}, its neighbour 2 is not: 1 is on the
    # window's boundary, where the window Laplacian is dn u(1) = 1, not the
    # network's Lap u(1) = 0
    u = potential_from_values(path3, [0, 1, 2], window=SubgraphView(path3, [0, 1]))
    assert u.window.bd.tolist() == [1]
    assert _laplacian_at(u, 1) == 1.0
    assert (csr_laplacian(path3) @ [0.0, 1.0, 2.0])[1] == 0.0


def _ladder_dipole(R, **kw):
    """The free dipole delta_x1 - delta_o on ladder(5, 1) at radius R, the
    ball of radius 20 in the same ambient, and x_20."""
    from resbdy import LadderGenerator
    gen = LadderGenerator(5, 1.0)
    ambient = gen.ball(R + 1)
    v = solve_dipole_level(ambient.ball_view(R), gen.x(1), **kw)
    return v, ambient.ball_view(20), gen.x(20)


def _laplacians_and_normal_derivatives(v, H, x20):
    """Lap v at x_20, x_1 and o, and dn v at each vertex of bd H."""
    dn = window_laplacian(_restrict(v, H))[H.index(H.bd)]
    return [*(_laplacian_at(v, x) for x in (x20, 2, 0)), *map(float, dn)]


@pytest.mark.parametrize("R", [40, 500])
def test_laplacian_and_normal_derivative_read_the_currents(R, monkeypatch):
    # conductances up to 5^R, past the float range at R=500: c (v(x) - v(y))
    # formed in float64 gave -7.6e-3 at x_20 for R=40 and NaN at R=500
    from resbdy import _hifi
    v, H, x20 = _ladder_dipole(R)
    assert v.i is not None
    sums = _laplacians_and_normal_derivatives(v, H, x20)
    assert abs(sums[0]) <= 1e-45
    assert sums[1:3] == [1.0, -1.0]
    assert np.isfinite(sums).all()
    # each value is the one the whole computation gives at twice the digits
    monkeypatch.setattr(_hifi, "EDGE_SUM_DPS", 2 * _hifi.EDGE_SUM_DPS)
    v2, _, _ = _ladder_dipole(R)
    ref = _laplacians_and_normal_derivatives(v2, H, x20)
    assert np.all(np.abs(np.subtract(sums, ref)) <= 1e-40 * np.abs(ref) + 1e-45)


def test_normal_derivative_of_an_exact_potential_is_exact():
    # the Fraction lane carries exact currents: dn v at bd H equals the
    # exact Laplacian of v restricted to H
    v, H, _ = _ladder_dipole(40, lane="fraction")
    at = v.window.index(H.vertices)
    lap = _exact_laplacian(H, v.w[at])
    dn = window_laplacian(_restrict(v, H))
    for b in H.bd.tolist():
        assert float(dn[H.index(b)]) == float(lap[H.index(b)])


def test_dirac_pairing_of_an_mp_potential_reads_its_currents():
    # delta_x is float64 and u is mp: the pairing runs in float64 over u's
    # carried currents, where reading u's values as float64 gave -7.6e-3 at
    # x_20 against a Laplacian of 1.7e-52
    from resbdy import LadderGenerator
    gen = LadderGenerator(5, 1)
    window = gen.ball(41).ball_view(40)
    u = solve_dipole_level(window, gen.x(1), lane="mp")
    for at in (gen.x(1), gen.x(20), window.net.origin):
        pairing = energy(_dirac(window.net, at, window=window), u)
        assert abs(pairing - _laplacian_at(u, at)) <= 1e-12


def _edge_ends_by_map(window):
    """edge_ends through a position map over the whole network."""
    net = window.net
    edges = np.flatnonzero(window.edge_mask)
    pos = np.empty(net.n, dtype=np.int64)
    pos[window.vertices] = np.arange(len(window.vertices))
    return edges, pos[net.ei[edges]], pos[net.ej[edges]]


def test_edge_ends_equal_the_position_map_on_every_window():
    net = IntegerLatticeGenerator(2).ball(6)
    prefix = [net.ball_view(5), net.full_view(), SubgraphView(net, [0, 1, 2])]
    other = [SubgraphView(net, [0, 2, 3, 5, 9, 10, 11, 20]),
             SubgraphView(net, [1, 2, 3, 4]), SubgraphView(net, [])]
    for view in prefix:
        assert np.array_equal(view.vertices, np.arange(len(view.vertices)))
    for view in prefix + other:
        got, want = edge_ends(view), _edge_ends_by_map(view)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
