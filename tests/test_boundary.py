from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from resbdy import (GeometricHalfLineGenerator, IntegerLatticeGenerator,
                    LadderGenerator, PathToInfinity, Potential,
                    boundary_integral_check, boundary_point_eval,
                    boundary_sum_harmonic, build_finite,
                    energy, energy_kernel, finite_gauss_green_deviation,
                    gauss_green_verify, path_equivalence,
                    potential_from_values, royden_split, sample_ensemble,
                    solve_dipole_level)
from resbdy.boundary import HARM_TOL
from resbdy.energy import potential_difference, window_laplacian
from resbdy.errors import DomainMismatch, InvalidParameters, NotHarmonic
from resbdy.ladder import ladder_harmonic
from tests.conftest import random_edge_list


def test_finite_gauss_green_full_sum(triangle, path5, grid44, rng):
    for net in (triangle, path5, grid44):
        for _ in range(20):
            u = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
            v = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
            assert finite_gauss_green_deviation(u, v) <= 1e-10


def test_per_level_split_identity(grid44, rng):
    u = potential_from_values(grid44, rng.standard_normal(16), pinned=True)
    v = potential_from_values(grid44, rng.standard_normal(16), pinned=True)
    rep = gauss_green_verify(u, v)
    assert rep.split_identity_dev <= 1e-10
    # the deepest level covers the whole network: boundary part empty
    assert rep.boundary[-1] == 0.0
    assert rep.totals[-1] == pytest.approx(energy(u, v), abs=1e-10)


def test_default_levels_are_the_balls_inside_a_driver_window():
    # a driver's potential lives on ball_view(6) of ball(7): the default
    # schedule stops at the last ball inside that window
    v, _ = energy_kernel(LadderGenerator(5, 0.9), 2, levels=6)
    rep = gauss_green_verify(v, v)
    assert rep.radii == [1, 2, 3, 4, 5, 6]
    assert rep.split_identity_dev <= 1e-12 * abs(rep.target)


def test_dipole_interior_term_is_value_difference():
    gen = LadderGenerator(3, 0.8)
    ball = gen.ball(9)
    v = solve_dipole_level(ball.full_view(), 2, bc="free")
    rng = np.random.default_rng(5)
    u = potential_from_values(ball, rng.standard_normal(ball.n), pinned=True)
    rep = gauss_green_verify(u, v, range(1, 9))
    # once x and o are interior, sum_int u Lap(v) = u(x) - u(o) holds except
    # for boundary effects of the window where v was solved
    expected = u.value(2) - u.value(0)
    for r, interior in zip(rep.radii, rep.interior):
        if r >= 2 and r <= 6:
            assert interior == pytest.approx(expected, abs=1e-9)


def test_mp_interior_sum_is_the_energy_once_x_and_o_are_interior():
    # sum_int u Lap(v) over G_k with u = v: E(v) = v(x) once x and o are
    # interior; summed in the mp field it holds at every level
    gen = LadderGenerator(5, 0.9)
    v = solve_dipole_level(gen.ball(17).full_view(), 2, bc="free", lane="mp")
    rep = gauss_green_verify(v, v, range(1, 17))
    assert rep.split_identity_dev <= 1e-40
    for r, interior in zip(rep.radii, rep.interior):
        if r >= 2:
            assert interior == pytest.approx(rep.target, rel=0, abs=1e-12)


def test_finite_form_needs_the_whole_network(path5):
    u = potential_from_values(path5, np.arange(5.0), window=path5.ball_view(3))
    with pytest.raises(DomainMismatch):
        finite_gauss_green_deviation(u, u)


def test_z1_boundary_term_shrinks():
    gen = IntegerLatticeGenerator(1)
    v = solve_dipole_level(gen.ball(21).full_view(), 1, bc="free")
    rep = gauss_green_verify(v, v, range(1, 21))
    # recurrent network: deviations fall off as the levels grow
    assert abs(rep.deviations[-1]) <= abs(rep.deviations[2]) + 1e-12
    assert abs(rep.deviations[-1]) <= 1e-9


def test_boundary_sum_ladder_approaches_value_difference():
    gen = LadderGenerator(5, 0.9)
    lh = ladder_harmonic(5, 0.9, 20)
    rep = boundary_sum_harmonic(gen, lh.value, gen.x(1), levels=12)
    assert rep.target == pytest.approx(1.0 / 5.0, rel=1e-12)
    assert rep.final_deviation <= 1e-3


def test_boundary_sum_of_harm_kernel_approaches_its_energy():
    gen = LadderGenerator(5, 0.9)
    split = royden_split(gen, 2, levels=26, tol=1e-6)
    rep = boundary_sum_harmonic(gen, split.h.value, 2, levels=12)
    # reproducing of h on Harm: <h_x, h_x> = h_x(x) - h_x(o)
    assert split.energy_h == pytest.approx(split.h.value(2), abs=1e-6)
    assert rep.target == pytest.approx(split.energy_h, abs=1e-6)
    assert rep.final_deviation <= 2e-3


def test_boundary_sum_makes_only_wired_solves(monkeypatch):
    # on bd G_k, dn(h_x) = -dn(f_x): no level needs its free solve
    from resbdy import boundary, solver
    solve, seen = solver.solve_dipole_level, []

    def recording(view, x, bc="free", **kw):
        seen.append(bc)
        return solve(view, x, bc=bc, **kw)

    for module in (solver, boundary):
        monkeypatch.setattr(module, "solve_dipole_level", recording)
    gen = LadderGenerator(5, 0.9)
    rep = boundary_sum_harmonic(gen, ladder_harmonic(5, 0.9, 8).value,
                                gen.x(1), levels=6)
    # x_1 is interior from radius 2 on
    assert rep.radii == [2, 3, 4, 5, 6]
    assert seen == ["wired"] * 5


def test_mp_boundary_sum_is_the_sum_against_h():
    # each level's sum equals sum_{bd G_k} u dn(h_x), h_x = v_x - f_x the
    # free solve less the wired one, summed in the mp field
    gen, x = LadderGenerator(5, 0.9), LadderGenerator.x(1)
    u = ladder_harmonic(5, 0.9, 14).value
    rep = boundary_sum_harmonic(gen, u, x, levels=12, lane="mp")
    assert rep.radii == list(range(2, 13))
    for r, s in zip(rep.radii, rep.sums):
        view = gen.ball(r + 1).ball_view(r)
        h = potential_difference(
            solve_dipole_level(view, x, bc="free", lane="mp"),
            solve_dipole_level(view, x, bc="wired", lane="mp"))
        bd = view.bd_mask[view.vertices]
        u_bd = np.array([u(int(b)) for b in view.vertices[bd]])
        ref = float(np.sum(u_bd * window_laplacian(h)[bd]))
        assert abs(s - ref) <= 1e-45 * abs(ref)


def test_float64_boundary_sum_reaches_the_value_difference():
    # the CLI's boundary-sum on ladder(5, 0.9) at 12 levels in float64;
    # 8.8e-9 when the free solve's roundoff entered each level's sum
    gen = LadderGenerator(5, 0.9)
    rep = boundary_sum_harmonic(gen, ladder_harmonic(5, 0.9, 14).value,
                                gen.x(1), levels=12, lane="float64")
    assert rep.target == pytest.approx(1 / 5, rel=1e-12)
    assert rep.final_deviation <= 5e-9


@pytest.mark.parametrize("residual, harmonic", [
    (np.nextafter(HARM_TOL, 0), True), (HARM_TOL, True),
    (np.nextafter(HARM_TOL, 1), False)], ids=["below", "at", "above"])
def test_harmonicity_checks_switch_at_one_residual(triangle, residual, harmonic):
    split = replace(royden_split(triangle, 1), harm_residual_max=residual)
    assert split.harmonicity.passed is harmonic
    ens = sample_ensemble(2, 100, seed=1)
    with nullcontext() if harmonic else pytest.raises(NotHarmonic):
        boundary_integral_check(np.zeros(2), 0.0, np.zeros(2), ens,
                                harm_residual=residual)


def test_path_validation():
    gen = LadderGenerator(5, 0.9)
    net = gen.ball(32)

    def adjacent(path):
        ids = path.prefix(30)
        return all(b in net.adjacency[a].indices for a, b in zip(ids, ids[1:]))

    assert adjacent(gen.x_rail_path()) and adjacent(gen.y_rail_path())
    assert not adjacent(PathToInfinity(lambda n: 2 * (n % 3), name="loop"))


def test_path_equivalence_reflexive():
    gen = LadderGenerator(5, 0.9)
    split = royden_split(gen, 2, levels=30, tol=1e-6)
    p = gen.x_rail_path()
    ev = path_equivalence(p, p, [("h_x1", split.h)], horizon=25)
    assert ev.verdict == "equivalent-evidence"


def test_path_equivalence_separates_rails():
    gen = LadderGenerator(5, 0.9)
    split = royden_split(gen, 2, levels=45, tol=1e-8)
    ev = path_equivalence(gen.x_rail_path(), gen.y_rail_path(),
                          [("h_x1", split.h)], horizon=40)
    assert ev.verdict == "separated"
    assert ev.certifying_probe == "h_x1"
    # symmetry of the evidence
    ev2 = path_equivalence(gen.y_rail_path(), gen.x_rail_path(),
                           [("h_x1", split.h)], horizon=40)
    assert ev2.verdict == "separated"


def test_path_equivalence_beta_one_rails():
    gen = LadderGenerator(5, 1.0)
    split = royden_split(gen, 2, levels=200, tol=1e-8)
    ev = path_equivalence(gen.x_rail_path(), gen.y_rail_path(),
                          [("h_x1", split.h)], horizon=30, path_tol=1e-3)
    assert ev.verdict == "equivalent-evidence"


def test_boundary_point_eval_halfline_trivial():
    # Harm = 0 on the half-line: every path evaluation settles at 0
    gen = GeometricHalfLineGenerator(2)
    split = royden_split(gen, 1, levels=30, final_radius=28)
    ray = PathToInfinity(lambda n: n, name="ray")
    ev = boundary_point_eval(ray, split.h, horizon=25)
    assert ev.stabilized
    assert ev.value == pytest.approx(0.0, abs=1e-8)


def test_path_reads_outside_the_window_raise():
    # the prefix's ends lie in the window, but 4 and 5 do not
    net = build_finite([(i, i + 1, 1) for i in range(9)])
    v = solve_dipole_level(net.ball_view(3), 2)
    prefix = [0, 1, 2, 3, 4, 5, 4, 3]
    path = PathToInfinity(lambda n: prefix[n], name="detour")
    with pytest.raises(DomainMismatch):
        boundary_point_eval(path, v, horizon=7)
    with pytest.raises(DomainMismatch):
        path_equivalence(path, path, [("v", v)], horizon=7)


def test_a_negative_path_prefix_is_invalid():
    # every reader of a prefix takes its last vertex, which an empty one lacks
    net = build_finite([(i, i + 1, 1) for i in range(4)])
    v = solve_dipole_level(net.full_view(), 2)
    path = PathToInfinity(lambda n: n, name="ray")
    assert path.prefix(0) == [0]
    for call in (lambda: path.prefix(-1),
                 lambda: path_equivalence(path, path, [("v", v)], horizon=-1),
                 lambda: boundary_point_eval(path, v, horizon=-1)):
        with pytest.raises(InvalidParameters, match="n >= 0"):
            call()


def test_boundary_point_eval_separates_ladder_rails():
    gen = LadderGenerator(5, 0.9)
    split = royden_split(gen, 2, levels=45, tol=1e-8)
    ex = boundary_point_eval(gen.x_rail_path(), split.h, horizon=40)
    ey = boundary_point_eval(gen.y_rail_path(), split.h, horizon=40)
    assert ex.stabilized and ey.stabilized
    assert abs(ex.value - ey.value) > 1e-2


def test_gauss_green_requires_saturated_for_finite_form():
    gen = LadderGenerator(5, 0.9)
    net = gen.ball(4)
    u = potential_from_values(net, np.zeros(net.n), pinned=True)
    with pytest.raises(InvalidParameters):
        finite_gauss_green_deviation(u, u)


def test_boundary_sum_constant_u_on_finite_network(triangle):
    rep = boundary_sum_harmonic(triangle, lambda v: 4.0, 1, levels=5)
    assert rep.target == 0.0
    assert all(abs(s) <= 1e-12 for s in rep.sums)


@pytest.mark.parametrize("x", [100, -3])
def test_boundary_sum_rejects_a_vertex_outside_every_level(x):
    gen = LadderGenerator(5, 0.9)
    lh = ladder_harmonic(5, 0.9, 12)
    with pytest.raises(InvalidParameters, match="never entered"):
        boundary_sum_harmonic(gen, lh.value, x, levels=3)


def test_nan_split_identity_is_kept(triangle):
    u = potential_from_values(triangle, [0.0, 1.0, float("nan")], pinned=True)
    v = potential_from_values(triangle, [0.0, 1.0, 2.0], pinned=True)
    rep = gauss_green_verify(u, v)
    assert np.isnan(rep.split_identity_dev)


NAN = float("nan")


def _path_network(n):
    """The path 0 - 1 - ... - n-1 and the ray along it."""
    net = build_finite([(i, i + 1, 1) for i in range(n - 1)])
    return net, PathToInfinity(lambda k: k, name="ray")


@pytest.mark.parametrize("nan_at", [slice(None), slice(11, 12)])
def test_nan_gaps_are_not_equivalence_evidence(nan_at):
    # the probe sees the same path twice, so every gap is 0 except at NaN
    # values: all of them, or one in the last quarter
    net, ray = _path_network(13)
    w = np.zeros(net.n)
    w[nan_at] = NAN
    probe = Potential(net.full_view(), w)
    ev = path_equivalence(ray, ray, [("nan", probe)], horizon=12)
    assert ev.verdict == "inconclusive"
    assert not ev.probes[0].stabilized


def test_nan_in_the_tail_is_not_stabilized():
    # series tail [0, 0, 0, nan, 0, 0]
    net, ray = _path_network(24)
    w = np.zeros(net.n)
    w[21] = NAN
    ev = boundary_point_eval(ray, Potential(net.full_view(), w), horizon=23)
    assert np.isnan(ev.series_tail).tolist() == [False] * 3 + [True] + [False] * 2
    assert not ev.stabilized
