import numpy as np
import pytest

from resbdy import (BinaryTreeGenerator, GeometricHalfLineGenerator,
                    IntegerLatticeGenerator, LadderGenerator, build_finite,
                    default_exhaustion, effective_resistance, energy,
                    boundary_sum_harmonic, energy_kernel,
                    exhaustion_independence, monopole, potential_from_values,
                    royden_split, solve_dipole_level)
from resbdy import _hifi, solver
from resbdy.errors import InvalidParameters
from resbdy.solver import ConvergenceReport


def brute_force_dipole(net, x, o=0):
    """Independent oracle: dense pinned solve with numpy.linalg."""
    L = net.laplacian().toarray()
    keep = [v for v in range(net.n) if v != o]
    b = np.zeros(net.n)
    b[x], b[o] = 1.0, b[o] - 1.0
    sol = np.linalg.solve(L[np.ix_(keep, keep)], b[keep])
    full = np.zeros(net.n)
    full[keep] = sol
    return full


def test_free_dipole_path_is_ramp(path3):
    v = solve_dipole_level(path3.full_view(), 2, bc="free")
    assert np.allclose(v.w, [0.0, 1.0, 2.0], atol=1e-12)


def test_free_dipole_triangle_oracle(triangle):
    v = solve_dipole_level(triangle.full_view(), 1, bc="free")
    oracle = brute_force_dipole(triangle, 1)
    assert np.allclose(v.w, oracle, atol=1e-12)
    assert v.value(1) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_wired_equals_free_without_exterior(triangle):
    free = solve_dipole_level(triangle.full_view(), 1, bc="free")
    wired = solve_dipole_level(triangle.full_view(), 1, bc="wired")
    assert np.allclose(free.w, wired.w, atol=1e-12)


def test_lanes_agree(path5):
    view = path5.full_view()
    for bc in ("free",):
        a = solve_dipole_level(view, 3, bc=bc, lane="float64")
        b = solve_dipole_level(view, 3, bc=bc, lane="mp")
        c = solve_dipole_level(view, 3, bc=bc, lane="fraction")
        assert np.allclose(a.at(view.vertices), b.at(view.vertices), atol=1e-12)
        assert np.allclose(b.at(view.vertices), c.at(view.vertices), atol=1e-12)


def test_lanes_agree_on_geometric_window():
    gen = LadderGenerator(5, 0.9)
    view = gen.ball(8).full_view()
    a = solve_dipole_level(view, 2, bc="free", lane="float64")
    b = solve_dipole_level(view, 2, bc="free", lane="mp")
    assert np.allclose(a.at(view.vertices), b.at(view.vertices), atol=1e-8)


def test_energy_kernel_finite_saturates(triangle):
    pot, rep = energy_kernel(triangle, 1)
    assert rep.converged and rep.stopping_rule == "saturated"
    assert pot.value(1) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_energy_kernel_halfline_flat_tail():
    gen = GeometricHalfLineGenerator(2)
    pot, rep = energy_kernel(gen, 1, levels=30)
    assert rep.converged
    vals = pot.at(pot.window.vertices)
    # all current crosses the first edge; the tail is constant
    assert vals[0] == 0.0
    assert np.allclose(vals[1:], 0.5, atol=1e-10)
    assert pot.value(1) == pytest.approx(0.5, rel=1e-10)


def test_energy_kernel_ladder_bounded_by_resistance():
    gen = LadderGenerator(5, 0.9)
    pot, rep = energy_kernel(gen, 2, levels=40, tol=1e-6)
    rf = pot.value(2)
    from resbdy import sup_norm
    assert sup_norm(pot) <= rf + 1e-9
    assert rep.extra["max_principle_ok"]


def test_effective_resistance_triangle(triangle):
    r, rep = effective_resistance(triangle, 1, 2)
    assert rep.converged
    assert r == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_effective_resistance_path_series():
    for n_edges in (2, 3, 5):
        net = build_finite([(i, i + 1, 1) for i in range(n_edges)])
        r, rep = effective_resistance(net, n_edges)
        assert r == pytest.approx(float(n_edges), rel=1e-12)


def test_effective_resistance_same_vertex(triangle):
    r, rep = effective_resistance(triangle, 1, 1)
    assert r == 0.0 and rep.converged


def test_wired_resistance_never_exceeds_free():
    gen = LadderGenerator(3, 0.8)
    exh = default_exhaustion(gen, 10)
    for radius, view in exh:
        if radius < 2:
            continue
        vf = solve_dipole_level(view, 2, bc="free")
        vw = solve_dipole_level(view, 2, bc="wired")
        assert vw.value(2) <= vf.value(2) + 1e-12


def test_reproducing_property_per_level():
    gen = LadderGenerator(5, 0.9)
    exh = default_exhaustion(gen, 8)
    rng = np.random.default_rng(7)
    for radius, view in exh:
        if radius < 2:
            continue
        v = solve_dipole_level(view, 2, bc="free")
        for _ in range(5):
            # probe supported inside the window interior
            vals = np.zeros(exh.ambient.n)
            vals[view.interior] = rng.standard_normal(len(view.interior))
            u = potential_from_values(exh.ambient, vals, window=view, pinned=True)
            lhs = energy(v, u)
            rhs = u.value(2) - u.value(0)
            norm = energy(u, u) ** 0.5
            assert abs(lhs - rhs) <= 1e-9 * (1 + norm)


def test_monopole_tree_transient():
    res = monopole(BinaryTreeGenerator(), levels=17, tol=1e-4, schedule="linear")
    assert res.transient is True
    # wired resistance of the unit tree to depth k is 1 - 2^-k
    assert res.report.values[-1] == pytest.approx(1.0, abs=1e-3)


def test_monopole_z1_diverges():
    res = monopole(IntegerLatticeGenerator(1), levels=12, tol=1e-8,
                   divergence_threshold=50.0)
    assert res.transient is False
    # energies grow like radius / 2
    assert res.report.values[-1] == pytest.approx(res.report.radii[-1] / 2, rel=0.05)


def test_monopole_halfline_transient():
    res = monopole(GeometricHalfLineGenerator(2), levels=40, schedule="linear")
    assert res.transient is True
    assert res.report.values[-1] == pytest.approx(1.0, rel=1e-6)


def test_monopole_finite_network_has_none(triangle):
    res = monopole(triangle, levels=6, schedule="linear")
    assert res.transient is False


def test_convergence_report_rules():
    rep = ConvergenceReport(quantity="t", tol=1e-8)
    for k, v in enumerate([1.0, 1.5, 1.6, 1.6, 1.6, 1.6]):
        rep.record(k + 1, k + 1, v)
    assert rep.assess()
    assert rep.converged and rep.limit == 1.6
    rep2 = ConvergenceReport(quantity="d", tol=1e-8)
    for k, v in enumerate([1.0, 2.0, 40.0, 900.0]):
        rep2.record(k + 1, k + 1, v)
    assert rep2.assess(divergence_threshold=100.0)
    assert rep2.diverged and rep2.limit is None
    rep3 = ConvergenceReport(quantity="i", tol=1e-12)
    rep3.record(1, 1, 1.0)
    rep3.record(2, 2, 1.1)
    assert not rep3.assess()
    assert rep3.inconclusive


def test_exhaustion_independence_halfline():
    out = exhaustion_independence(GeometricHalfLineGenerator(2), 1, tol=1e-8)
    assert out["agree_within_10_tol"]


def test_rhs_outside_window_rejected(triangle):
    with pytest.raises(InvalidParameters):
        solve_dipole_level(triangle.ball_view(0), 2, bc="free")


def test_wired_needs_interior_charges():
    gen = GeometricHalfLineGenerator(2)
    net = gen.ball(3)
    with pytest.raises(InvalidParameters):
        solve_dipole_level(net.full_view(), 3, bc="wired")  # x on the frontier


def test_resistance_against_pseudoinverse_oracle(grid44):
    # independent oracle: R(x, y) = (e_x - e_y)^T L^+ (e_x - e_y)
    Lp = np.linalg.pinv(grid44.laplacian().toarray())
    rng = np.random.default_rng(12)
    for _ in range(6):
        x, y = rng.choice(16, size=2, replace=False)
        e = np.zeros(16)
        e[x], e[y] = 1.0, -1.0
        oracle = float(e @ Lp @ e)
        r, rep = effective_resistance(grid44, int(x), int(y))
        assert rep.converged
        assert r == pytest.approx(oracle, rel=1e-10)


def test_float64_lane_refuses_overflowed_window():
    import warnings

    from resbdy.errors import SolverFailure
    view = LadderGenerator(5, 0.9).ball(500).full_view()
    with pytest.raises(SolverFailure), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deliberate misuse of the float lane
        solve_dipole_level(view, 2, bc="free", lane="float64")


def test_auto_lane_takes_a_window_past_the_float_range_to_mp():
    # alpha^55 / beta^55 = 1e330 overflows float64; the range comes from the
    # exact conductances instead
    view = LadderGenerator(1000, 0.001).ball(56).ball_view(55)
    assert solver.pick_lane(view.net, view) == "mp"
    v = solve_dipole_level(view, 2)
    # the mp lane's field, with the currents the mp solve carries
    mpf = _hifi.MPField(_hifi.EDGE_SUM_DPS).number
    assert isinstance(v.w[0], mpf) and isinstance(v.i[0], mpf)
    value = v.value(2)
    assert np.isfinite(value)
    assert abs(energy(v, v) - value) <= 1e-12 * abs(value)


def test_energy_value_dual_route_recorded(triangle):
    _, rep = effective_resistance(triangle, 1, 2)
    assert rep.extra["max_energy_value_dev"] <= 1e-12


def test_energy_value_dual_route_keeps_a_nan(triangle, monkeypatch):
    monkeypatch.setattr(solver, "energy", lambda u, v: float("nan"))
    _, rep = effective_resistance(triangle, 1, 2)
    assert np.isnan(rep.extra["max_energy_value_dev"])


@pytest.mark.parametrize("x", [100, -3])
def test_vertex_outside_every_level_is_rejected(x):
    gen = IntegerLatticeGenerator(1)
    for bc in ("free", "wired"):
        with pytest.raises(InvalidParameters, match="never entered"):
            effective_resistance(gen, x, bc=bc, levels=3)
        with pytest.raises(InvalidParameters, match=f"vertex {x} never entered"):
            effective_resistance(gen, x, x, bc=bc, levels=3)
        with pytest.raises(InvalidParameters, match="never entered"):
            energy_kernel(gen, x, bc=bc, levels=3)
    for schedule in ("doubling", "linear"):
        with pytest.raises(InvalidParameters, match="never entered"):
            monopole(gen, x=x, levels=3, schedule=schedule)
    with pytest.raises(InvalidParameters, match="never entered"):
        boundary_sum_harmonic(gen, lambda v: 1.0, x, levels=3)
    with pytest.raises(InvalidParameters, match="never entered"):
        royden_split(gen, x, levels=3)


def test_vertex_only_on_the_last_boundary_is_rejected_by_wired_limits():
    # vertex 5 is +3 on Z^1: it enters the radius-3 window on its boundary,
    # so the free limits run and the wired ones never start
    gen = IntegerLatticeGenerator(1)
    assert energy_kernel(gen, 5, levels=3)[1].radii == [3]
    with pytest.raises(InvalidParameters, match="vertex 5 never entered"):
        energy_kernel(gen, 5, bc="wired", levels=3)
    with pytest.raises(InvalidParameters, match="vertex 5 never entered"):
        royden_split(gen, 5, levels=3)
    with pytest.raises(InvalidParameters, match="vertex 5 never entered"):
        boundary_sum_harmonic(gen, lambda v: 1.0, 5, levels=3)


def _counting_solves(monkeypatch):
    calls = []
    solve = solver.solve_dipole_level

    def counting_solve(*args, **kw):
        calls.append(args)
        return solve(*args, **kw)

    monkeypatch.setattr(solver, "solve_dipole_level", counting_solve)
    return calls


def test_identical_vertices_make_no_solve(monkeypatch):
    calls = _counting_solves(monkeypatch)
    for bc in ("free", "wired"):
        r, rep = effective_resistance(IntegerLatticeGenerator(1), 2, 2, bc=bc,
                                      levels=3)
        assert r == 0.0 and rep.values == [0.0] and rep.radii == []
        assert rep.converged and rep.stopping_rule == "identical-vertices"
    assert calls == []


def test_monopole_on_a_whole_finite_network_diverges_without_a_solve(
        triangle, monkeypatch):
    calls = _counting_solves(monkeypatch)
    res = monopole(triangle, x=1, levels=4, schedule="linear")
    assert res.transient is False and res.potential is None
    assert res.report.diverged and res.report.radii == []
    assert res.report.stopping_rule == "finite-network-no-monopole"
    assert calls == []


def test_unknown_monopole_schedule_is_rejected():
    with pytest.raises(InvalidParameters, match="unknown schedule"):
        monopole(IntegerLatticeGenerator(1), levels=4, schedule="doubled")


def test_finite_kernel_keeps_vertex_ids_below_saturation(grid44):
    # vertex 12 is the corner (3, 0), three levels from the origin
    pot, rep = energy_kernel(grid44, 12, levels=3)
    ref = solve_dipole_level(grid44.ball_view(3), 12, bc="free")
    assert pot.net is grid44 and rep.radii[-1] == 3
    assert pot.value(12) == ref.value(12)


def test_unknown_lane_is_rejected(triangle):
    with pytest.raises(InvalidParameters, match="unknown lane"):
        solve_dipole_level(triangle.full_view(), 1, lane="hi")


def test_default_y_is_the_origin_of_a_finite_network():
    # the origin sits at the far end of the path 0-1-2-3
    net = build_finite([(i, i + 1, 1) for i in range(3)], origin=3)
    r, _ = effective_resistance(net, 0)
    assert r == pytest.approx(3.0, rel=1e-12)
    assert effective_resistance(net, 0, 3)[0] == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize("bc", ["free", "wired"])
def test_identical_vertices_must_enter_the_exhaustion(bc):
    gen = IntegerLatticeGenerator(1)
    with pytest.raises(InvalidParameters, match="never entered"):
        effective_resistance(gen, 100, 100, bc=bc, levels=3)
    r, rep = effective_resistance(gen, 2, 2, bc=bc, levels=3)
    assert r == 0.0 and rep.converged


def test_z1_wired_monopole_energy_is_right_to_rounding():
    # the wired monopole energy of the Z^1 ball of radius R is R/2
    z1 = IntegerLatticeGenerator(1)
    for k in range(10, 15):
        r = 2 ** k
        view = z1.ball(r + 1).ball_view(r)
        o = view.net.origin
        pot = solve_dipole_level(view, o, bc="wired", rhs={o: 1}, lane="float64")
        assert abs(energy(pot, pot) - r / 2) <= 1e-14 * (r / 2), r


@pytest.mark.parametrize("gen, levels, exact", [
    (GeometricHalfLineGenerator(2), 33, 0.5),
    (BinaryTreeGenerator(), 14, 1.0),
])
def test_float64_free_resistance_never_rises(gen, levels, exact):
    # Rayleigh monotonicity: free R_k(1, 0) never rises with k; across a tree
    # edge it is 1/c(0, 1) at every level. tol=0 runs every level.
    _, rep = effective_resistance(gen, 1, levels=levels, tol=0.0, lane="float64")
    assert rep.radii[-1] == levels
    assert np.all(np.diff(rep.values) <= 0)
    assert np.allclose(rep.values, exact, rtol=4 * np.finfo(float).eps, atol=0)


def _remainder_sizes(monkeypatch):
    """Record the number of unknowns of each SuperLU remainder solve."""
    sizes = []
    remainder = solver._solve_remainder

    def spy(g, *args):
        sizes.append(len(g))
        return remainder(g, *args)

    monkeypatch.setattr(solver, "_solve_remainder", spy)
    return sizes


@pytest.mark.parametrize("bc", ["wired", "free"])
@pytest.mark.parametrize("gen, radius, reaches_remainder", [
    (IntegerLatticeGenerator(2), 8, True),
    (BinaryTreeGenerator(), 8, False),
    (IntegerLatticeGenerator(1), 300, False),
])
def test_float64_rounds_and_remainder_match_the_fraction_lane(
        gen, radius, reaches_remainder, bc, monkeypatch):
    view = gen.ball(radius + 1).ball_view(radius)
    o = view.net.origin
    x = o if bc == "wired" else int(view.vertices[-1])
    rhs = {x: 1} if bc == "wired" else {x: 1, o: -1}
    sizes = _remainder_sizes(monkeypatch)
    fast = solve_dipole_level(view, x, bc=bc, rhs=rhs, lane="float64")
    assert bool(sizes) == reaches_remainder
    exact = solve_dipole_level(view, x, bc=bc, rhs=rhs, lane="fraction").w
    exact = exact.astype(float)
    assert np.max(np.abs(fast.w - exact)) <= 1e-10 * np.max(np.abs(exact))
