import dataclasses

import mpmath as mp
import numpy as np
import pytest

from resbdy import (GeometricHalfLineGenerator, IntegerLatticeGenerator,
                    LadderGenerator, doubling_exhaustion, effective_resistance,
                    energy, energy_kernel, monopole, royden_split,
                    solve_dipole_level, sup_norm)
from resbdy import _hifi, royden
from resbdy.errors import InvalidParameters


def test_finite_network_split_is_trivial(triangle):
    split = royden_split(triangle, 1)
    assert np.allclose(split.v.w, split.f.w, atol=1e-12)
    assert split.energy_h <= 1e-12
    assert split.pythagoras_deviation <= 1e-12
    assert not split.harmonicity_violated


def test_halfline_has_trivial_harm():
    split = royden_split(GeometricHalfLineGenerator(2), 1, levels=30)
    assert split.energy_h <= 1e-10
    assert split.energy_f == pytest.approx(split.energy_v, rel=1e-8)


def test_z1_harm_energy_decays_like_inverse_radius():
    # recurrent case: the free/wired gap closes at rate 1/(2k), so the split's
    # harmonic energy at the final level is 1/(2 * radius) exactly
    from resbdy import doubling_exhaustion
    gen = IntegerLatticeGenerator(1)
    exh = doubling_exhaustion(gen, 13)
    split = royden_split(gen, 1, exhaustion=exh)
    assert split.energy_h == pytest.approx(1.0 / (2 * exh.radii[-1]), rel=1e-6)
    assert split.pythagoras_deviation <= 1e-10


def test_ladder_split_is_nontrivial():
    split = royden_split(LadderGenerator(5, 0.9), 2, levels=35, tol=1e-6)
    assert split.energy_h > 1e-3
    assert split.pythagoras_deviation <= 1e-8
    cross_scale = np.sqrt(max(split.energy_f, 1e-30) * max(split.energy_h, 1e-30))
    assert abs(split.cross_energy) <= 1e-8 * cross_scale
    assert split.harm_residual_max <= 1e-6
    assert not split.harmonicity_violated


def _residual_by_vertex(h, check_vertices):
    """max |Lap h| over check_vertices, h's edge currents summed edge by edge
    at EDGE_SUM_DPS."""
    net, window = h.net, h.window
    with mp.workdps(_hifi.EDGE_SUM_DPS):
        res = dict.fromkeys(check_vertices.tolist(), h.w[0] * 0)
        for k, flow in zip(np.flatnonzero(window.edge_mask).tolist(), h.i):
            a, b = int(net.ei[k]), int(net.ej[k])
            if a in res:
                res[a] = res[a] + flow
            if b in res:
                res[b] = res[b] - flow
        return float(max(abs(val) for val in res.values()))


def test_fused_split_pass_matches_separate_sums():
    split = royden_split(LadderGenerator(5, 0.9), 2, levels=20, tol=1e-6)
    v, f, h = split.v, split.f, split.h
    assert h.w is not None
    assert split.energy_v == energy(v, v)
    assert split.energy_f == energy(f, f)
    assert split.energy_h == energy(h, h)
    assert split.cross_energy == energy(f, h)
    assert split.harm_residual_max == _residual_by_vertex(h, h.window.interior)


def test_final_resolve_only_on_the_side_that_moved(monkeypatch):
    # on Z^1 the free limit stops early and the wired limit runs to the last
    # window, so only the free side is solved again there
    gen = IntegerLatticeGenerator(1)
    exh = doubling_exhaustion(gen, 8)
    calls = []

    def counting_solve(window, x, bc="free", **kw):
        calls.append(bc)
        return solve_dipole_level(window, x, bc=bc, **kw)

    monkeypatch.setattr(royden, "solve_dipole_level", counting_solve)
    split = royden_split(gen, 1, exhaustion=exh)
    assert calls == ["free"]
    assert split.free_report.radii[-1] < exh.radii[-1]
    assert split.wired_report.radii[-1] == exh.radii[-1]
    deeper = split.f.window
    v = solve_dipole_level(deeper, 1, bc="free")
    f = solve_dipole_level(deeper, 1, bc="wired")
    assert np.array_equal(split.v.w, v.w)
    assert np.array_equal(split.f.w, f.w)
    assert split.energy_v == energy(v, v) and split.energy_f == energy(f, f)


def test_ladder_fin_part_differs_from_kernel():
    split = royden_split(LadderGenerator(5, 0.9), 2, levels=30, tol=1e-6)
    assert not np.allclose(split.v.at(split.v.window.vertices),
                           split.f.at(split.f.window.vertices), atol=1e-6)


def test_fin_projection_matches_split():
    gen = GeometricHalfLineGenerator(2)
    f, rep = energy_kernel(gen, 1, bc="wired", levels=30)
    split = royden_split(gen, 1, levels=30)
    assert rep.converged
    assert f.value(1) == pytest.approx(split.f.value(1), rel=1e-10)


def test_sup_norm_bounded_by_resistance():
    gen = LadderGenerator(5, 0.9)
    split = royden_split(gen, 2, levels=30, tol=1e-6)
    # per level the max principle pins the kernel inside [0, R_k] with
    # R_k = v(x); the deeper resistance estimate only bounds it up to the
    # remaining convergence slack
    assert sup_norm(split.v) <= split.v.value(2) + 1e-9
    rf, rep = effective_resistance(gen, 2, levels=40, tol=1e-6)
    assert sup_norm(split.v) <= rf + 1e-3
    # projections of bounded stay bounded (diagnostic)
    assert sup_norm(split.f) <= sup_norm(split.v) + 1e-6


def test_monopole_representative_bounded_on_halfline():
    res = monopole(GeometricHalfLineGenerator(2), levels=35, schedule="linear")
    assert res.transient
    pot = res.potential
    raw = pot.at(pot.window.vertices) - pot.at(pot.window.vertices).min()
    w_at_o = raw[0]
    assert np.all(raw >= -1e-12) and np.all(raw <= w_at_o + 1e-12)


def test_sup_norm_requires_pinned(triangle):
    split = royden_split(triangle, 1)
    pot = split.v
    pot2 = type(pot)(pot.window, pot.w + 1.0, pinned=False)
    with pytest.raises(InvalidParameters):
        sup_norm(pot2)


def test_sup_norm_zero_potential(triangle):
    split = royden_split(triangle, 1)
    z = type(split.v)(split.v.window, np.zeros(len(split.v.window.vertices)),
                      pinned=True)
    assert sup_norm(z) == 0.0


def test_nan_residual_violates_harmonicity(triangle):
    split = royden_split(triangle, 1)
    assert not split.harmonicity_violated
    split = dataclasses.replace(split, harm_residual_max=float("nan"))
    assert split.harmonicity_violated
