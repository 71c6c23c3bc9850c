import warnings

import numpy as np
import pytest

from resbdy import (GeometricHalfLineGenerator, IntegerLatticeGenerator,
                    LadderGenerator, SubgraphView, WalkConfig, build_finite,
                    hitting_probability_mc, hitting_reference)
from resbdy.errors import InvalidParameters, IsolatedVertex
from resbdy.walk import _slot_tables, _step, _step_weights
from tests.conftest import csr_laplacian, step_probabilities


def test_transition_probabilities_unit_path(path3):
    nbrs, p = step_probabilities(path3.full_view(), 1)
    assert sorted(nbrs.tolist()) == [0, 2]
    assert np.allclose(p, [0.5, 0.5])


def test_transition_probabilities_halfline():
    net = GeometricHalfLineGenerator(2).ball(4)
    nbrs, p = step_probabilities(net.full_view(), 2)
    got = dict(zip(nbrs.tolist(), p.tolist()))
    assert got[1] == pytest.approx(1.0 / 3.0)
    assert got[3] == pytest.approx(2.0 / 3.0)


def test_transition_probabilities_leaf(path3):
    nbrs, p = step_probabilities(path3.full_view(), 0)
    assert nbrs.tolist() == [1] and p.tolist() == [1.0]


def test_transition_probabilities_sum_to_one():
    net = LadderGenerator(5, 0.9).ball(5)
    for x in range(net.n):
        _, p = step_probabilities(net.full_view(), x)
        assert p.sum() == pytest.approx(1.0, rel=1e-12)


def test_trivial_hits(path3):
    view = path3.full_view()
    cfg = WalkConfig(trials=100, seed=1)
    assert hitting_probability_mc(view, 2, 2, 0, cfg).estimate == 1.0
    assert hitting_probability_mc(view, 0, 2, 0, cfg).estimate == 0.0


def test_gamblers_ruin_path(path3):
    view = path3.full_view()
    cfg = WalkConfig(trials=100_000, seed=7)
    est = hitting_probability_mc(view, 1, 2, 0, cfg)
    ref = hitting_reference(view, 1, 2, 0)
    assert ref == pytest.approx(0.5, rel=1e-12)
    assert abs(est.estimate - ref) <= 4 * est.stderr
    assert est.unabsorbed == 0


def test_reference_matches_kernel_ratio(triangle):
    view = triangle.full_view()
    ref = hitting_reference(view, 2, 1, 0)
    # v_x(y)/R(o,x) with x=1, y=2: dense oracle
    L = csr_laplacian(triangle).toarray()
    b = np.array([-1.0, 1.0, 0.0])
    sol = np.linalg.solve(L[1:, 1:], b[1:])
    v = np.concatenate([[0.0], sol])
    assert ref == pytest.approx(v[2] / v[1], rel=1e-12)


def test_mc_matches_reference_on_triangle(triangle):
    view = triangle.full_view()
    cfg = WalkConfig(trials=100_000, seed=11)
    est = hitting_probability_mc(view, 2, 1, 0, cfg)
    ref = hitting_reference(view, 2, 1, 0)
    assert abs(est.estimate - ref) <= 4 * max(est.stderr, 1e-12)


def test_deterministic_under_seed(path5):
    view = path5.full_view()
    cfg = WalkConfig(trials=5_000, seed=13)
    a = hitting_probability_mc(view, 2, 4, 0, cfg)
    b = hitting_probability_mc(view, 2, 4, 0, cfg)
    assert a.estimate == b.estimate



@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_a_seed_outside_philox_keys_is_invalid(seed):
    with pytest.raises(InvalidParameters):
        WalkConfig(seed=seed)

def test_monotone_along_path(path5):
    view = path5.full_view()
    vals = []
    for start in (1, 2, 3):
        cfg = WalkConfig(trials=40_000, seed=17)
        vals.append(hitting_probability_mc(view, start, 4, 0, cfg).estimate)
    assert vals[0] < vals[1] < vals[2]
    for v in vals:
        assert 0.0 <= v <= 1.0


def test_max_steps_reports_unabsorbed(path5):
    view = path5.full_view()
    cfg = WalkConfig(trials=2_000, seed=3, max_steps=1)
    est = hitting_probability_mc(view, 2, 4, 0, cfg)
    assert est.unabsorbed > 0
    assert est.biased
    assert "excluded" in est.to_dict()["bias_note"]


@pytest.mark.parametrize("absorber", [None, 2])
def test_target_equal_to_absorber_is_rejected(path3, absorber):
    # the absorber defaults to the origin
    view = path3.full_view()
    target = 0 if absorber is None else absorber
    with pytest.raises(InvalidParameters):
        hitting_probability_mc(view, 1, target, absorber,
                               WalkConfig(trials=10, seed=1))
    with pytest.raises(InvalidParameters):
        hitting_reference(view, 1, target, absorber)


@pytest.mark.parametrize("role", ["start", "target", "absorber"])
@pytest.mark.parametrize("vertex", [-1, 3])
def test_a_vertex_off_the_network_is_rejected(path3, role, vertex):
    # -1 must not wrap round to the last vertex, and n must not index past it
    args = {"start": 1, "target": 2, "absorber": 0, role: vertex}
    with pytest.raises(InvalidParameters):
        hitting_probability_mc(path3.full_view(), config=WalkConfig(trials=10),
                               **args)


# -- the slot step ------------------------------------------------------------


def _searchsorted_step(view, cur, u):
    """Reference step by vertex id: a search in each vertex's own cumulative
    table, built edge by edge as np.cumsum(c) / c[-1]."""
    net = view.net
    nxt = np.empty_like(cur)
    for v in np.unique(cur):
        edges = np.flatnonzero(view.edge_mask & ((net.ei == v) | (net.ej == v)))
        c = np.cumsum(net.ec[edges])
        at = cur == v
        slot = np.searchsorted(c[:-1] / c[-1], u[at], side="right")
        nxt[at] = (net.ei[edges] + net.ej[edges] - v)[slot]
    return nxt


@pytest.mark.parametrize("window", ["Z^2", "ladder", "half-line"])
def test_slot_step_matches_a_searchsorted_reference(window):
    if window == "Z^2":
        view = IntegerLatticeGenerator(2).ball(5).full_view()
    elif window == "ladder":
        view = LadderGenerator(5, 0.9).ball(8).ball_view(6)
    else:
        view = GeometricHalfLineGenerator(2).ball(12).full_view()
    nbr, cum, deg = _slot_tables(view)
    rng = np.random.default_rng(5)
    pos = rng.choice(np.flatnonzero(deg > 0), size=20_000)
    u = rng.random(len(pos))
    # the ends of [0, 1), and draws that tie a slot's P_j, which counts
    u[:2] = 0.0, np.nextafter(1.0, 0.0)
    tie = cum[0][pos[2:2000]]
    u[2:2000] = np.where(tie < 1, tie, u[2:2000])
    got = view.vertices[_step(nbr, cum, pos, u)]
    assert np.array_equal(got, _searchsorted_step(view, view.vertices[pos], u))


def test_a_draw_just_below_one_takes_the_last_slot_of_its_own_vertex():
    # vertex 1 of the path 0-1-2-3: the key 1 + u of a search over a table
    # offset by vertex ids rounds to 2 and would step to a neighbour of 2
    net = build_finite([(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    view = net.full_view()
    u = np.nextafter(1.0, 0.0)
    assert 1.0 + u == 2.0
    nbr, cum, _ = _slot_tables(view)
    cur = view.index([1, 2])
    assert view.vertices[_step(nbr, cum, cur, np.full(2, u))].tolist() == [2, 3]


def test_z2_radius_8_walk_is_pinned():
    ball = IntegerLatticeGenerator(2).ball(8)
    start, target = ball.names.index("(4, 0)"), ball.names.index("(0, 8)")
    est = hitting_probability_mc(ball.full_view(), start, target, None,
                                 WalkConfig(trials=100_000, seed=20240817 + 6))
    assert est.estimate == 0.15376
    assert est.stderr == 0.001140692168816811
    assert est.unabsorbed == 0


@pytest.mark.parametrize("edges, window, start", [
    ([(0, 1, 1), (2, 4, 1), (3, 4, 1), (1, 3, 1)], [0, 1, 2, 3], 2),
    ([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 1, 3], 3),
])
def test_a_start_with_no_edge_in_the_window_is_isolated(edges, window, start):
    view = SubgraphView(build_finite(edges), window)
    with pytest.raises(IsolatedVertex):
        hitting_probability_mc(view, start, 1, 0, WalkConfig(trials=100, seed=1))


def test_walks_on_a_window_whose_float_mirror_overflows():
    gen = LadderGenerator(5, 1)
    net = gen.ball(460)
    assert np.isinf(net.ec).sum() == 38
    view = net.full_view()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = hitting_probability_mc(view, gen.x(445), gen.x(450), None,
                                     WalkConfig(trials=2000, seed=1))
        # the step weights at x_445: its exact conductances over the largest
        x = gen.x(445)
        edges = np.flatnonzero((net.ei == x) | (net.ej == x))
        w = _step_weights(net, np.zeros(len(edges), dtype=np.int64), edges)
    nbrs, p = net.ei[edges] + net.ej[edges] - x, w / w.sum()
    ref = hitting_reference(view, gen.x(445), gen.x(450))
    assert est.unabsorbed == 0
    assert abs(est.estimate - ref) <= 4 * max(est.stderr, 1e-12)
    # back 5^445, forward 5^446, rung 1, over c(x_445)
    got = dict(zip(nbrs.tolist(), p.tolist()))
    assert got[gen.x(444)] == pytest.approx(1 / 6, rel=1e-15)
    assert got[gen.x(446)] == pytest.approx(5 / 6, rel=1e-15)
    assert 0 < got[gen.y(445)] < 1e-300


@pytest.mark.parametrize("max_steps", [0, -3])
def test_max_steps_below_one_is_invalid(max_steps):
    with pytest.raises(InvalidParameters):
        WalkConfig(max_steps=max_steps)
