"""Every check record decides by value <= bound, so a NaN anywhere in what a
check reads makes it fail."""

from dataclasses import replace

import numpy as np
import pytest

from resbdy import (ConvergenceReport, HittingEstimate, LadderGenerator,
                    Potential, build_onb, ladder_energy, ladder_harmonic,
                    minlos_check, path_equivalence, royden_split,
                    sample_ensemble)
from resbdy import onb as onbmod
from resbdy.boundary import BoundarySumReport, GaussGreenReport
from resbdy.solver import check

NAN = float("nan")


def _unconverged():
    report = ConvergenceReport(quantity="q", tol=1e-8)
    for k in range(6):
        report.record(k, k + 1, NAN)
    report.assess()
    return report.check


def _nan_path_probe():
    gen = LadderGenerator(5, 0.9)
    window = gen.ball(6).full_view()
    pot = Potential(window, np.full(len(window.vertices), NAN))
    return path_equivalence(gen.x_rail_path(), gen.y_rail_path(),
                            [("nan", pot)], horizon=4).check


def _nan_onb(monkeypatch, triangle):
    monkeypatch.setattr(onbmod, "kronecker_sum_check", lambda onb: NAN)
    return onbmod.identity_checks(build_onb(triangle, 2))[1][0]


def _nan_ladder_energy():
    lh = ladder_harmonic(5, 0.9, 40)
    return ladder_energy(replace(lh, du=lh.du * NAN)).check


MAKERS = {
    "check": lambda mp, t: check("value", NAN, 1.0),
    "check-bound": lambda mp, t: check("bound", 0.0, NAN),
    "convergence": lambda mp, t: _unconverged(),
    "royden-harmonicity": lambda mp, t: replace(
        royden_split(t, 1), harm_residual_max=NAN).harmonicity,
    "royden-pythagoras": lambda mp, t: replace(
        royden_split(t, 1), energy_h=NAN).pythagoras,
    "gauss-green": lambda mp, t: GaussGreenReport(
        target=1.0, split_identity_dev=NAN).check,
    "gauss-green-target": lambda mp, t: GaussGreenReport(target=NAN).check,
    "boundary-sum": lambda mp, t: BoundarySumReport(
        x=1, target=NAN, radii=[1], sums=[0.0]).check,
    "boundary-sum-empty": lambda mp, t: BoundarySumReport(
        x=1, target=0.0).check,
    "path-verdict": lambda mp, t: _nan_path_probe(),
    "onb-identities": _nan_onb,
    "onb-orthonormality": lambda mp, t: onbmod.identity_checks(
        replace(build_onb(t, 2), orth_dev=NAN))[1][1],
    "wiener": lambda mp, t: replace(
        minlos_check(np.ones(2), sample_ensemble(2, 100, 1)),
        estimate=NAN).check,
    "walk": lambda mp, t: HittingEstimate(NAN, NAN, 10, 10,
                                          reference=0.5).check,
    "ladder-energy": lambda mp, t: _nan_ladder_energy(),
}


@pytest.mark.parametrize("maker", sorted(MAKERS))
def test_a_nan_fails_every_check(maker, monkeypatch, triangle):
    record = MAKERS[maker](monkeypatch, triangle)
    assert record.passed is False


def test_a_condition_passes_as_given():
    assert check("c", "agree", passed=True).passed is True
    assert check("c", None, passed=False).passed is False
    assert check("b", 1.0, 1.0) == ("b", 1.0, 1.0, True)
