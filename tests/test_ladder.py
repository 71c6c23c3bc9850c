from fractions import Fraction

import numpy as np
import pytest

from resbdy import (LadderGenerator, du_bound_satisfied, du_upper_bounds,
                    harmonic_residuals, ladder_energy, ladder_harmonic,
                    ladder_vs_halfline_transitions, royden_split)
from resbdy.errors import InvalidParameters
from tests.conftest import csr_laplacian, step_probabilities


def test_seed_values():
    lh = ladder_harmonic(5, 0.9, 10)
    assert lh.u[0] == 0.0
    assert lh.u[1] == 1.0 / 5.0  # forced by the vertex-0 balance
    # direct evaluation of the recursion at n = 1:
    # u(2) = 0.2 + 0.04 + (2/5)(0.18)(0.2) + (1/5)(0.18)
    assert lh.u[2] == pytest.approx(0.2904, rel=1e-14)


def test_vertex0_balance_is_zero():
    lh = ladder_harmonic(5, 0.9, 10)
    res = harmonic_residuals(lh)
    # alpha (u0 - u1) + sigma(0) = -1 + 1
    assert res[0] == pytest.approx(0.0, abs=1e-15)


def test_residuals_near_machine_precision_deep():
    lh = ladder_harmonic(5, 0.9, 200)
    res = harmonic_residuals(lh)
    assert np.abs(res).max() <= 1e-10


def test_increments_positive_and_monotone():
    lh = ladder_harmonic(5, 0.9, 200)
    assert np.all(lh.du > 0)
    assert np.all(np.diff(lh.u) >= 0)


def test_value_based_cross_check_on_short_prefix():
    # float64 resolves the carried increments against stored values only for
    # small n (alpha^n amplifies value roundoff); check the network Laplacian
    # there as an independent route
    lh = ladder_harmonic(5, 0.9, 12)
    net = LadderGenerator(5, 0.9).ball(11)
    vals = np.array([lh.value(v) for v in range(net.n)])
    resid = csr_laplacian(net) @ vals
    inner = [2 * n for n in range(9)] + [2 * n + 1 for n in range(9)]
    assert np.abs(resid[inner]).max() <= 1e-9


def test_y_rail_antisymmetry():
    lh = ladder_harmonic(5, 0.9, 6)
    assert lh.value(0) == 0.0
    assert lh.value(1) == -1.0          # y_0
    assert lh.value(2) == pytest.approx(0.2)
    assert lh.value(3) == pytest.approx(-1.2)
    assert np.allclose(lh.sigma, 2 * lh.u + 1)


def test_energy_partial_sums_converge_when_condition_holds():
    lh = ladder_harmonic(5, 0.9, 400)
    en = ladder_energy(lh, tol=1e-8)
    assert 5.0 > 4 * 0.9 ** 2  # the sufficient condition
    assert en.report.converged
    assert en.total > 0
    # one-rail display stays below the grand total
    assert en.rail_partial[-1] < en.total


def test_energy_inconclusive_when_convergence_is_slow():
    lh = ladder_harmonic(1.1, 0.999, 120)
    en = ladder_energy(lh, tol=1e-8)
    assert not en.report.converged


def test_exact_recursion_matches_float():
    # the recursion in rational arithmetic, from the float64 alpha and beta
    a, b = Fraction(5), Fraction(0.9)
    u, du = [Fraction(0), 1 / a], [1 / a]
    for n in range(1, 40):
        du.append(du[n - 1] / a + (b / a) ** n * (2 * u[n] + 1) / a)
        u.append(u[n] + du[n])
    lh = ladder_harmonic(5, 0.9, 40)
    for n in (1, 5, 17, 40):
        assert float(u[n]) == pytest.approx(float(lh.u[n]), rel=1e-12)


def test_du_bound_holds():
    lh = ladder_harmonic(5, 0.9, 200)
    ok, first_bad = du_bound_satisfied(lh)
    assert ok and first_bad == -1
    bounds = du_upper_bounds(lh)
    assert np.all(lh.du <= bounds * (1 + 1e-12) + 1e-300)


def test_du_bound_at_beta_one_half_is_the_limit_of_its_neighbours():
    # at 2 beta = 1 the geometric sum sum_{k<n} (2 beta)^k is n
    lh = ladder_harmonic(5, 0.5, 60)
    assert du_bound_satisfied(lh) == (True, -1)
    bounds = du_upper_bounds(lh)
    for beta in (0.5 - 1e-9, 0.5 + 1e-9):
        near = du_upper_bounds(ladder_harmonic(5, beta, 60))
        assert np.allclose(bounds, near, rtol=1e-6, atol=0)


def test_du_bound_requires_condition():
    lh = ladder_harmonic(1.2, 0.9, 20)
    with pytest.raises(InvalidParameters):
        du_bound_satisfied(lh)


def test_transitions_halfline_values():
    t = ladder_vs_halfline_transitions(2, 0.5, 1)
    assert t["halfline"]["back"] == pytest.approx(1.0 / 3.0)
    assert t["halfline"]["forward"] == pytest.approx(2.0 / 3.0)


def test_transitions_rows_sum_to_one_and_approach_halfline():
    for n in (1, 3, 10, 40):
        t = ladder_vs_halfline_transitions(5, 0.9, n)
        lad = t["ladder"]
        assert lad["back"] + lad["forward"] + lad["rung"] == pytest.approx(1.0)
    far = ladder_vs_halfline_transitions(5, 0.9, 60)["ladder"]
    assert far["back"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert far["forward"] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert far["rung"] <= 1e-12


def test_transitions_match_network_walk_probabilities():
    gen = LadderGenerator(5, 0.9)
    net = gen.ball(6)
    t = ladder_vs_halfline_transitions(5, 0.9, 3)["ladder"]
    nbrs, probs = step_probabilities(net.full_view(), gen.x(3))
    got = {int(v): float(p) for v, p in zip(nbrs, probs)}
    assert got[gen.x(2)] == pytest.approx(t["back"], rel=1e-12)
    assert got[gen.x(4)] == pytest.approx(t["forward"], rel=1e-12)
    assert got[gen.y(3)] == pytest.approx(t["rung"], rel=1e-12)


def test_recursion_parameter_validation():
    with pytest.raises(InvalidParameters):
        ladder_harmonic(0.9, 0.5, 10)
    with pytest.raises(InvalidParameters):
        ladder_harmonic(5, 1.0, 10)
    with pytest.raises(InvalidParameters):
        ladder_harmonic(5, 0.9, 1)
    # inf passes alpha > 1; the recursion would run on inf and NaN
    with pytest.raises(InvalidParameters):
        ladder_harmonic(float("inf"), 0.5, 10)
    with pytest.raises(InvalidParameters):
        ladder_vs_halfline_transitions(float("inf"), 0.5, 1)


def test_recursion_direction_matches_royden_harm_part():
    # Harm is one-dimensional here, so the split's harmonic kernel must be a
    # scaled and shifted copy of the recursion's function
    gen = LadderGenerator(5, 0.9)
    split = royden_split(gen, 2, levels=32, tol=1e-8)
    lh = ladder_harmonic(5, 0.9, 40)
    verts = split.h.window.vertices
    keep = verts[split.h.net.level[verts] <= 30]
    hv = split.h.at(keep)
    uv = np.array([lh.value(int(v)) for v in keep])
    A = np.stack([uv, np.ones_like(uv)], axis=1)
    coef, *_ = np.linalg.lstsq(A, hv, rcond=None)
    fit = A @ coef
    scale = np.abs(hv).max()
    assert np.abs(fit - hv).max() <= 1e-3 * max(scale, 1e-12)
