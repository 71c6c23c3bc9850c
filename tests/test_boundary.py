import numpy as np
import pytest

from resbdy import (GeometricHalfLineGenerator, IntegerLatticeGenerator,
                    LadderGenerator, boundary_point_eval,
                    boundary_sum_harmonic, build_finite, default_exhaustion,
                    energy, finite_gauss_green_deviation, gauss_green_verify,
                    path_equivalence, potential_from_values, royden_split,
                    solve_dipole_level)
from resbdy.errors import InvalidParameters, NotHarmonic
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


def test_dipole_interior_term_is_value_difference():
    gen = LadderGenerator(3, 0.8)
    exh = default_exhaustion(gen, 8)
    window = exh.ambient.full_view()
    v = solve_dipole_level(window, 2, bc="free")
    rng = np.random.default_rng(5)
    u = potential_from_values(exh.ambient, rng.standard_normal(exh.ambient.n),
                              pinned=True)
    rep = gauss_green_verify(u, v, exhaustion=exh)
    # once x and o are interior, sum_int u Lap(v) = u(x) - u(o) holds except
    # for boundary effects of the window where v was solved
    expected = u.value(2) - u.value(0)
    for r, interior in zip(rep.radii, rep.interior):
        if r >= 2 and r <= 6:
            assert interior == pytest.approx(expected, abs=1e-9)


def test_z1_boundary_term_shrinks():
    gen = IntegerLatticeGenerator(1)
    exh = default_exhaustion(gen, 20)
    window = exh.ambient.full_view()
    v = solve_dipole_level(window, 1, bc="free")
    rep = gauss_green_verify(v, v, exhaustion=exh)
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
    rep = boundary_sum_harmonic(gen, split.h.value, 2, levels=12,
                                target=split.energy_h)
    # reproducing of h on Harm: <h_x, h_x> = h_x(x) - h_x(o)
    assert split.energy_h == pytest.approx(split.h.value(2), abs=1e-6)
    assert rep.final_deviation <= 2e-3


def test_boundary_sum_rejects_nonharmonic():
    gen = LadderGenerator(5, 0.9)
    with pytest.raises(NotHarmonic):
        boundary_sum_harmonic(gen, lambda v: 0.0, 2, levels=4,
                              harm_residual=1.0)


def test_path_validation():
    gen = LadderGenerator(5, 0.9)
    p = gen.x_rail_path()
    assert p.validate(30)
    bad = type(p)(gen, lambda n: 2 * (n % 3), name="loop")
    with pytest.raises(InvalidParameters):
        bad.validate(30)


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
    ev = boundary_point_eval(gen.ray(), split.h, horizon=25)
    assert ev.stabilized
    assert ev.value == pytest.approx(0.0, abs=1e-8)


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


def test_nan_harmonic_residual_is_not_harmonic(triangle):
    with pytest.raises(NotHarmonic):
        boundary_sum_harmonic(triangle, lambda v: 1.0, 1,
                              harm_residual=float("nan"))


def test_nan_split_identity_is_kept(triangle):
    u = potential_from_values(triangle, [0.0, 1.0, float("nan")], pinned=True)
    v = potential_from_values(triangle, [0.0, 1.0, 2.0], pinned=True)
    rep = gauss_green_verify(u, v)
    assert np.isnan(rep.split_identity_dev)
