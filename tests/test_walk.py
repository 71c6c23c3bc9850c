import numpy as np
import pytest

from resbdy import (GeometricHalfLineGenerator, LadderGenerator, WalkConfig,
                    build_finite, hitting_probability_mc, hitting_reference,
                    transition_probabilities)
from resbdy.errors import InvalidParameters, IsolatedVertex


def test_transition_probabilities_unit_path(path3):
    nbrs, p = transition_probabilities(path3, 1)
    assert sorted(nbrs.tolist()) == [0, 2]
    assert np.allclose(p, [0.5, 0.5])


def test_transition_probabilities_halfline():
    net = GeometricHalfLineGenerator(2).ball(4)
    nbrs, p = transition_probabilities(net, 2)
    got = dict(zip(nbrs.tolist(), p.tolist()))
    assert got[1] == pytest.approx(1.0 / 3.0)
    assert got[3] == pytest.approx(2.0 / 3.0)


def test_transition_probabilities_leaf(path3):
    nbrs, p = transition_probabilities(path3, 0)
    assert nbrs.tolist() == [1] and p.tolist() == [1.0]


def test_transition_probabilities_sum_to_one():
    net = LadderGenerator(5, 0.9).ball(5)
    for x in range(net.n):
        _, p = transition_probabilities(net, x)
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
    L = triangle.laplacian().toarray()
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


def test_monotone_along_path(path5):
    view = path5.full_view()
    vals = []
    for start in (1, 2, 3):
        cfg = WalkConfig(trials=40_000, seed=17)
        vals.append(hitting_probability_mc(view, start, 4, 0, cfg).estimate)
    assert vals[0] < vals[1] < vals[2]
    for v in vals:
        assert 0.0 <= v <= 1.0


def test_wired_boundary_absorbs():
    gen = LadderGenerator(3, 0.5)
    exh_net = gen.ball(4)
    view = exh_net.ball_view(3)
    cfg_free = WalkConfig(trials=30_000, seed=23, boundary_mode="free")
    cfg_wired = WalkConfig(trials=30_000, seed=23, boundary_mode="wired")
    free = hitting_probability_mc(view, gen.x(1), gen.x(2), 0, cfg_free)
    wired = hitting_probability_mc(view, gen.x(1), gen.x(2), 0, cfg_wired)
    # absorbing the boundary on the o side can only lower the hit probability
    assert wired.estimate <= free.estimate + 4 * (free.stderr + wired.stderr)


def test_max_steps_reports_unabsorbed(path5):
    view = path5.full_view()
    cfg = WalkConfig(trials=2_000, seed=3, max_steps=1)
    est = hitting_probability_mc(view, 2, 4, 0, cfg)
    assert est.unabsorbed > 0
    assert est.biased
    assert "excluded" in est.to_dict()["bias_note"]


def test_unmaterialized_vertex_raises():
    net = build_finite([(0, 1, 1)])
    with pytest.raises(IsolatedVertex):
        transition_probabilities(net, 2)


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
