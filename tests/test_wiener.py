import math

import numpy as np
import pytest

from resbdy import (build_finite, build_onb, boundary_integral_check,
                    effective_resistance, isometry_check, kernel_coefficients,
                    minlos_check, moment_check, mu_negative_fraction,
                    resistance_via_expectation, royden_split, sample_ensemble,
                    wiener_transform)
from resbdy import LadderGenerator
from resbdy.errors import DimensionMismatch, InvalidParameters, NotHarmonic


def test_ensemble_reproducible():
    a = sample_ensemble(2, 2, seed=7)
    b = sample_ensemble(2, 2, seed=7)
    assert np.array_equal(a.samples, b.samples)
    c = sample_ensemble(2, 2, seed=8)
    assert not np.array_equal(a.samples, c.samples)


def test_ensemble_moments_large():
    ens = sample_ensemble(2, 1_000_000, seed=11)
    var = ens.samples[:, 0].var(ddof=1)
    assert 0.99 <= var <= 1.01
    corr = np.corrcoef(ens.samples[:, 0], ens.samples[:, 1])[0, 1]
    assert abs(corr) <= 0.01


def test_transform_unit_coordinate():
    ens = sample_ensemble(4, 500, seed=1)
    e1 = np.array([1.0, 0, 0, 0])
    assert np.array_equal(wiener_transform(e1, ens), ens.samples[:, 0])
    assert np.array_equal(wiener_transform(np.zeros(4), ens), np.zeros(500))


def test_transform_linear_per_sample(rng):
    ens = sample_ensemble(5, 200, seed=2)
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    a, b = 1.7, -0.3
    lhs = wiener_transform(a * u + b * v, ens)
    rhs = a * wiener_transform(u, ens) + b * wiener_transform(v, ens)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_a_short_coefficient_vector_is_rejected():
    ens = sample_ensemble(4, 200, seed=3)
    short = np.array([0.5, -1.0])
    for transform in (lambda u: wiener_transform(u, ens),
                      lambda u: minlos_check(u, ens),
                      lambda u: boundary_integral_check(u, 0.0, np.ones(4), ens)):
        with pytest.raises(DimensionMismatch, match="length 2, not N=4"):
            transform(short)


def test_transform_dimension_mismatch():
    ens = sample_ensemble(3, 10, seed=0)
    with pytest.raises(DimensionMismatch):
        wiener_transform(np.ones(5), ens)


def test_minlos_unit_vector():
    ens = sample_ensemble(3, 100_000, seed=42)
    e1 = np.array([1.0, 0, 0])
    res = minlos_check(e1, ens)
    assert res.target == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert res.passed
    res0 = minlos_check(np.zeros(3), ens)
    assert res0.estimate == 1.0 and res0.target == 1.0 and res0.passed
    res2 = minlos_check(2 * e1, ens)
    assert res2.target == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert res2.passed


def test_moments_gaussian():
    ens = sample_ensemble(2, 200_000, seed=3)
    e1 = np.array([1.0, 0.0])
    m1 = moment_check(e1, ens, 1)
    assert m1.target == 1.0 and m1.passed
    m2 = moment_check(e1, ens, 2)
    assert m2.target == 3.0 and m2.passed
    modd = moment_check(e1, ens, 1, odd=True)
    assert modd.target == 0.0 and modd.passed
    with pytest.raises(InvalidParameters):
        moment_check(e1, ens, 0)


def test_cross_moment_matches_inner_product(rng):
    ens = sample_ensemble(6, 400_000, seed=9)
    u = rng.standard_normal(6) * 0.5
    v = rng.standard_normal(6) * 0.5
    ut, vt = wiener_transform(u, ens), wiener_transform(v, ens)
    prod = ut * vt
    est = prod.mean()
    se = prod.std(ddof=1) / math.sqrt(len(prod))
    assert abs(est - float(u @ v)) <= 4 * se



@pytest.mark.parametrize("S, seed", [(10, -1), (10, 2 ** 128), (1, 7)],
                         ids=["-1", str(2 ** 128), "one-draw"])
def test_a_seed_outside_philox_keys_is_invalid(S, seed):
    # and one draw, which leaves every standard error NaN
    with pytest.raises(InvalidParameters):
        sample_ensemble(3, S, seed=seed)

def test_isometry_and_mean(rng):
    ens = sample_ensemble(8, 150_000, seed=13)
    for _ in range(3):
        u = rng.standard_normal(8) / 3
        assert isometry_check(u, ens).passed


def test_resistance_expectation_path3(path3):
    onb = build_onb(path3, 2)
    ens = sample_ensemble(2, 100_000, seed=21)
    ref, _ = effective_resistance(path3, 2)
    quad, expo = resistance_via_expectation(2, 0, onb, ens, reference=ref)
    assert quad.target == pytest.approx(2.0, rel=1e-12)
    assert quad.passed and expo.passed
    # identical vertices give zero
    quad0, expo0 = resistance_via_expectation(1, 1, onb, ens, reference=0.0)
    assert quad0.estimate == 0.0 and quad0.passed


def test_resistance_expectation_triangle(triangle):
    onb = build_onb(triangle, 2)
    ens = sample_ensemble(2, 100_000, seed=22)
    ref, _ = effective_resistance(triangle, 1, 2)
    quad, expo = resistance_via_expectation(1, 2, onb, ens,
                                            reference=ref, atol=1e-2)
    assert quad.passed and expo.passed
    assert quad.target == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_boundary_integral_reproduces_harm_energy():
    gen = LadderGenerator(5, 0.9)
    onb = build_onb(gen, 16)
    split = royden_split(gen, 2, levels=26, tol=1e-6)
    hcoef = np.asarray([float(c) for c in
                        (onb.M @ np.array([split.h.value(x) for x in onb.enumeration]))])
    target = split.h.value(2) - split.h.value(0)
    ens = sample_ensemble(onb.N, 200_000, seed=31)
    res = boundary_integral_check(hcoef, target, hcoef, ens)
    assert res.passed
    assert res.extra["truncation_tail"] <= 2e-2


def test_boundary_integral_finite_network_trivial(triangle):
    onb = build_onb(triangle, 2)
    split = royden_split(triangle, 1)
    hcoef = np.zeros(onb.N)
    ens = sample_ensemble(onb.N, 50_000, seed=33)
    res = boundary_integral_check(hcoef, 0.0, hcoef, ens,
                                  harm_residual=split.harm_residual_max)
    assert res.passed and res.estimate == 0.0


def test_boundary_integral_rejects_nonharmonic():
    ens = sample_ensemble(2, 100, seed=1)
    with pytest.raises(NotHarmonic):
        boundary_integral_check(np.ones(2), 0.0, np.ones(2), ens,
                                harm_residual=1.0)


def test_nan_harmonic_residual_is_not_harmonic():
    ens = sample_ensemble(2, 100, seed=1)
    with pytest.raises(NotHarmonic):
        boundary_integral_check(np.ones(2), 0.0, np.ones(2), ens,
                                harm_residual=float("nan"))


def test_mu_negative_fraction_bounds():
    ens = sample_ensemble(3, 50_000, seed=19)
    frac = mu_negative_fraction(np.array([0.05, 0.0, 0.0]), ens)
    assert 0.0 <= frac <= 1.0
    # a tiny harmonic part rarely drags 1 + h below zero
    assert frac < 0.01


def test_kernel_coefficients_origin_and_missing(path3):
    onb = build_onb(path3, 2)
    assert np.allclose(kernel_coefficients(onb, 0), 0.0)
    with pytest.raises(DimensionMismatch):
        kernel_coefficients(onb, 99)


def test_ensemble_summary_invariants():
    S = 100_000
    ens = sample_ensemble(5, S, seed=77)
    diag = ens.summary()
    assert diag["max_abs_mean"] <= 4.0 / math.sqrt(S)
    assert diag["max_cov_dev"] <= 6.0 / math.sqrt(S)
