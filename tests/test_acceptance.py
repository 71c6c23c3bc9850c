"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines and timings. Network shorthand used throughout:

* path-5: five vertices, four unit edges, origin at one end
* triangle, star-4, 4x4 grid: unit conductances
* ladder(5, 0.9): rails 5^n, rungs 0.9^n
"""

import math
import time

import numpy as np
import pytest

from resbdy import (BinaryTreeGenerator, GeometricHalfLineGenerator,
                    IntegerLatticeGenerator, LadderGenerator, WalkConfig,
                    boundary_integral_check, boundary_sum_harmonic,
                    build_finite, build_onb, coefficient_vector,
                    doubling_exhaustion, du_bound_satisfied,
                    effective_resistance, energy, entries_E_via_evaluation,
                    entries_M_via_laplacian, gram_product_check,
                    harmonic_residuals, hitting_probability_mc,
                    hitting_reference, isometry_check, kronecker_sum_check,
                    ladder_energy, ladder_harmonic, minlos_check,
                    moment_check, monopole, path_equivalence,
                    potential_from_values, resistance_via_expectation,
                    royden_split, sample_ensemble, solve_dipole_level)
from tests.conftest import csr_laplacian

SEED = 20240817


def _finite_nets():
    path5 = build_finite([(i, i + 1, 1) for i in range(4)])
    triangle = build_finite([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    star4 = build_finite([(0, i, 1) for i in (1, 2, 3)])
    grid = build_finite(
        [(4 * i + j, 4 * (i + 1) + j, 1) for i in range(3) for j in range(4)]
        + [(4 * i + j, 4 * i + j + 1, 1) for i in range(4) for j in range(3)])
    ball = LadderGenerator(5, 0.9).ball(6)
    ladder6 = build_finite(list(zip(ball.ei.tolist(), ball.ej.tolist(),
                                    ball.ec.tolist())))  # the ball as a network
    return {"path-5": path5, "triangle": triangle, "star-4": star4,
            "4x4-grid": grid, "ladder-ball-6": ladder6}


def _report(name, elapsed, detail=""):
    print(f"\n[PASS] {name} ({elapsed:.2f}s) {detail}")


def test_criterion_01_reproducing_kernel_suite():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for label, net in _finite_nets().items():
        window = net.full_view()
        for x in range(net.n):
            if x == net.origin:
                continue
            vx = solve_dipole_level(window, x, bc="free")
            for _ in range(50):
                u = potential_from_values(net, rng.standard_normal(net.n),
                                          pinned=True)
                lhs = energy(vx, u)
                rhs = u.value(x) - u.value(net.origin)
                dev = abs(lhs - rhs) / (1.0 + math.sqrt(energy(u, u)))
                worst = max(worst, dev)
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report("criterion 1: reproducing kernels on 5 finite networks",
            elapsed, f"max_dev={worst:.2e}")


def test_criterion_02_gauss_green_exactness():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for label, net in _finite_nets().items():
        # energy(u, v) = sum_x u(x) (L v)(x), L the CSR Laplacian
        L = csr_laplacian(net)
        for _ in range(100):
            u = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
            v = potential_from_values(net, rng.standard_normal(net.n), pinned=True)
            worst = max(worst, abs(energy(u, v) - np.sum(u.w * (L @ v.w))))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report("criterion 2: Gauss-Green exactness on finite networks",
            elapsed, f"max_dev={worst:.2e}")


def test_criterion_03_gram_schmidt_identity_suite():
    t0 = time.time()
    details = []
    for label, gen in (("ladder(5,0.9)", LadderGenerator(5, 0.9)),
                       ("Z^1", IntegerLatticeGenerator(1))):
        onb = build_onb(gen, 30)
        _, dev_m = entries_M_via_laplacian(onb)
        _, dev_e = entries_E_via_evaluation(onb)
        dev_v = gram_product_check(onb)
        dev_k = kronecker_sum_check(onb)
        assert dev_m <= 1e-7, (label, dev_m)
        assert dev_e <= 1e-7, (label, dev_e)
        assert dev_v <= 1e-7, (label, dev_v)
        assert dev_k <= 1e-7, (label, dev_k)
        details.append(f"{label}: M={dev_m:.1e} E={dev_e:.1e} "
                       f"V={dev_v:.1e} K={dev_k:.1e}")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 3: Gram-Schmidt identity suite at N=30", elapsed,
            "; ".join(details))


def test_criterion_04_royden_suite():
    t0 = time.time()
    split = royden_split(LadderGenerator(5, 0.9), 2, levels=35, tol=1e-6)
    assert split.pythagoras_deviation <= 1e-6
    assert split.harm_residual_max <= 1e-6
    assert split.energy_h > 1e-3
    for label, gen, exh in (
            ("Z^1", IntegerLatticeGenerator(1),
             doubling_exhaustion(IntegerLatticeGenerator(1), 20)),
            ("half-line(2)", GeometricHalfLineGenerator(2), None)):
        s = royden_split(gen, 1, exhaustion=exh, levels=35)
        assert s.energy_h <= 1e-6, (label, s.energy_h)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 4: Royden suite", elapsed,
            f"ladder E(h)={split.energy_h:.3e}, pyth={split.pythagoras_deviation:.1e}")


def test_criterion_05_ladder_recursion():
    t0 = time.time()
    lh = ladder_harmonic(5, 0.9, 200)
    assert lh.u[1] == 1.0 / 5.0
    res = harmonic_residuals(lh)
    assert np.abs(res).max() <= 1e-9
    assert np.all(lh.du > 0)
    en = ladder_energy(lh, tol=1e-8)
    assert en.report.converged
    ok, first_bad = du_bound_satisfied(lh)
    assert ok, f"bound first violated at n={first_bad}"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 5: ladder recursion", elapsed,
            f"max_resid={np.abs(res).max():.1e}, E(u)={en.total:.6f}")


def test_criterion_06_wiener_minlos_mc():
    t0 = time.time()
    N, S = 20, 100_000
    ens = sample_ensemble(N, S, seed=SEED)
    rng = np.random.default_rng(SEED + 2)
    for i in range(10):
        u = rng.standard_normal(N) / math.sqrt(N)
        assert minlos_check(u, ens).passed, f"minlos failed on draw {i}"
        assert isometry_check(u, ens).passed
        m2 = moment_check(u, ens, 2)
        norm4 = float(np.sum(u ** 2)) ** 2
        assert abs(m2.estimate - m2.target) <= 4 * m2.stderr
        assert m2.target == pytest.approx(3.0 * norm4, rel=1e-12)
        modd = moment_check(u, ens, 1, odd=True)
        assert modd.passed
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 6: Minlos/moment MC at S=1e5", elapsed)


def test_criterion_07_resistance_consistency():
    t0 = time.time()
    nets = _finite_nets()
    ens = sample_ensemble(8, 100_000, seed=SEED + 3)
    details = []
    for label, x, y in (("triangle", 1, 2), ("path-5", 4, 0)):
        net = nets[label if label != "path-5" else "path-5"]
        onb = build_onb(net, net.n - 1)
        ref, rep = effective_resistance(net, x, y)
        assert rep.converged
        quad, expo = resistance_via_expectation(
            x, y, onb, sample_ensemble(onb.N, 100_000, seed=SEED + 3),
            reference=ref, atol=1e-2)
        assert quad.passed, (label, quad)
        assert expo.passed, (label, expo)
        details.append(f"{label}: R={ref:.4f} quad={quad.estimate:.4f} "
                       f"exp={expo.estimate:.4f}")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 7: resistance via expectation", elapsed, "; ".join(details))


def test_criterion_08_boundary_representation_ladder():
    t0 = time.time()
    gen = LadderGenerator(5, 0.9)
    lh = ladder_harmonic(5, 0.9, 40)
    rep = boundary_sum_harmonic(gen, lh.value, gen.x(1), levels=30)
    assert rep.radii[-1] == 30
    assert rep.final_deviation <= 1e-3
    # Monte Carlo form at x = x_2
    onb = build_onb(gen, 30)
    split = royden_split(gen, gen.x(2), levels=32, tol=1e-6)
    ucoef = coefficient_vector(onb, lh.value)
    hcoef = coefficient_vector(onb, split.h)
    target = lh.value(gen.x(2)) - lh.value(0)
    ens = sample_ensemble(onb.N, 100_000, seed=SEED + 4)
    res = boundary_integral_check(ucoef, target, hcoef, ens,
                                  harm_residual=split.harm_residual_max)
    assert res.passed
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 8: boundary representation on the ladder", elapsed,
            f"sum_dev={rep.final_deviation:.2e}, mc_tail={res.extra['truncation_tail']:.2e}")


def test_criterion_09_path_boundary():
    t0 = time.time()
    # inequivalent rails at beta = 0.9, certified by h_x1
    gen = LadderGenerator(5, 0.9)
    probes = []
    for label, x in (("h_x1", gen.x(1)), ("h_x2", gen.x(2))):
        split = royden_split(gen, x, levels=30, tol=1e-8, final_radius=210)
        probes.append((label, split.h))
    ev = path_equivalence(gen.x_rail_path(), gen.y_rail_path(), probes,
                          horizon=200, path_tol=1e-4, separation_tol=1e-2)
    assert ev.verdict == "separated"
    assert ev.certifying_probe == "h_x1"
    # beta = 1: evidence for a single boundary point; probe level error
    # decays like ~0.2/R, so radius 2500 keeps all gaps under 1e-4
    gen1 = LadderGenerator(5, 1.0)
    probes1 = []
    for label, x in (("h_x1", gen1.x(1)), ("h_x2", gen1.x(2))):
        split = royden_split(gen1, x, levels=8, tol=1e-8, final_radius=2500)
        probes1.append((label, split.h))
    deep = gen1.ball(2501).ball_view(2500)
    w_o = solve_dipole_level(deep, 0, bc="wired", rhs={0: 1})
    probes1.append(("w_o", w_o))
    ev1 = path_equivalence(gen1.x_rail_path(), gen1.y_rail_path(), probes1,
                           horizon=200, path_tol=1e-4, separation_tol=1e-2)
    assert ev1.verdict == "equivalent-evidence"
    assert all(p.max_gap_last_quarter < 1e-4 for p in ev1.probes)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 9: path boundary on both ladders", elapsed,
            f"sep_gap={ev.probes[0].final_gap:.4f}, "
            f"beta1_max_gap={max(p.final_gap for p in ev1.probes):.2e}")


def test_criterion_10_walk_cross_check():
    t0 = time.time()
    nets = _finite_nets()
    details = []
    for label, start, target in (("path-5", 2, 4), ("triangle", 2, 1)):
        net = nets[label]
        view = net.full_view()
        cfg = WalkConfig(trials=100_000, seed=SEED + 5)
        est = hitting_probability_mc(view, start, target, net.origin, cfg)
        ref = hitting_reference(view, start, target, net.origin)
        assert est.unabsorbed == 0
        assert abs(est.estimate - ref) <= 4 * max(est.stderr, 1e-12), (label, est, ref)
        details.append(f"{label}: mc={est.estimate:.4f} ref={ref:.4f}")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 10: walk cross-check at 1e5 trials", elapsed,
            "; ".join(details))


def test_criterion_11_transience_triage():
    t0 = time.time()
    tree = monopole(BinaryTreeGenerator(), levels=17, tol=1e-4, schedule="linear")
    assert tree.transient is True
    half = monopole(GeometricHalfLineGenerator(2), levels=40, schedule="linear")
    assert half.transient is True
    z1 = monopole(IntegerLatticeGenerator(1), levels=23, tol=1e-8,
                  divergence_threshold=1e6, schedule="doubling")
    assert z1.transient is False
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 11: transience triage", elapsed,
            f"tree E={tree.report.values[-1]:.4f}, "
            f"half-line E={half.report.values[-1]:.4f}, "
            f"Z1 final E={z1.report.values[-1]:.3e}")
