"""Explicit harmonic function on the two-rail geometric ladder.

With rail conductances alpha^n and rung conductances beta^n, harmonicity at
rail vertex n reads alpha^n du(n-1) - alpha^{n+1} du(n) + beta^n su(n) = 0,
where du(n) = u(n+1) - u(n) and su(n) = u(n) - u(check n) is the increment
across the rung. Grounding the two rails antisymmetrically around -1/2
(u(check n) = -1 - u(n), so su(n) = 2 u(n) + 1) turns this into the forward
recursion

    u(n+1) = u(n) + (u(n) - u(n-1))/alpha + (2/alpha)(beta/alpha)^n u(n)
             + (1/alpha)(beta/alpha)^n,

seeded by u(0) = 0, u(1) = 1/alpha (which also balances vertex 0 against the
unit rung). The increments are carried as first-class state: recomputing them
as value differences underflows float64 once du < ulp(u), which happens near
n ~ 24 at alpha = 5, while the carried du stays meaningful down to 1e-300.
Residuals are therefore evaluated in increment form: with carried increments
they sit at roundoff level for every n.

Energy splits into rail terms alpha^{n+1} du(n)^2 (each rail) and rung terms
beta^n su(n)^2; partial sums of the total converge when alpha > 4 beta^2,
and the closed-form increment bound holds term by term in that regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters
from .network import _finite
from .solver import ConvergenceReport


@dataclass
class LadderHarmonic:
    alpha: float
    beta: float
    n_max: int
    u: np.ndarray                    # u(0..n_max) on the x-rail
    du: np.ndarray                   # du(0..n_max-1), carried increments

    @property
    def sigma(self):
        """su(n) = u(n) - u(check n) = 2 u(n) + 1, the increment across rung n."""
        return 2.0 * self.u + 1.0

    def value(self, vertex):
        """Value at a ladder-generator vertex id (x_n -> 2n, y_n -> 2n+1)."""
        n, rail = divmod(int(vertex), 2)
        if n > self.n_max:
            raise InvalidParameters(f"vertex level {n} beyond n_max={self.n_max}")
        return float(self.u[n]) if rail == 0 else float(-1.0 - self.u[n])


def ladder_harmonic(alpha, beta, N) -> LadderHarmonic:
    """Run the harmonicity recursion out to u(N)."""
    _finite(alpha=alpha, beta=beta)
    if not (alpha > 1 and 0 < beta < 1):
        raise InvalidParameters("recursion needs alpha > 1 > beta > 0")
    if N < 2:
        raise InvalidParameters("N must be >= 2")
    a, b = float(alpha), float(beta)
    u = np.zeros(N + 1)
    du = np.zeros(N)
    u[1] = 1.0 / a
    du[0] = 1.0 / a
    q = b / a
    for n in range(1, N):
        src = q ** n
        du[n] = du[n - 1] / a + src * (2.0 * u[n] + 1.0) / a
        u[n + 1] = u[n] + du[n]
    return LadderHarmonic(alpha=a, beta=b, n_max=N, u=u, du=du)


def harmonic_residuals(lh: LadderHarmonic) -> np.ndarray:
    """Laplacian balance at x_0..x_{N-1}, evaluated in increment form.

    Entry 0 is alpha (u(0)-u(1)) + su(0); entry n >= 1 is
    alpha^n du(n-1) - alpha^{n+1} du(n) + beta^n su(n). The y-rail residuals
    are the negatives by antisymmetry.
    """
    a, b = lh.alpha, lh.beta
    N = lh.n_max
    res = np.zeros(N)
    res[0] = -a * lh.du[0] + lh.sigma[0]
    n = np.arange(1, N, dtype=np.float64)
    ni = np.arange(1, N)
    res[1:] = (a ** n * lh.du[ni - 1]
               - a ** (n + 1) * lh.du[ni]
               + b ** n * lh.sigma[ni])
    return res


@dataclass
class LadderEnergy:
    rail_partial: np.ndarray     # one rail, alpha^{n+1} du(n)^2 cumulative
    rung_partial: np.ndarray     # beta^n su(n)^2 cumulative
    report: ConvergenceReport    # the partial totals' stopping rule

    @property
    def rails_partial(self):
        """Both rails."""
        return 2.0 * self.rail_partial

    @property
    def total_partial(self):
        return 2.0 * self.rail_partial + self.rung_partial

    @property
    def total(self):
        return float(self.total_partial[-1])

    @property
    def check(self):
        return self.report.check

    def to_dict(self):
        return {
            "one_rail": float(self.rail_partial[-1]),
            "both_rails": float(self.rails_partial[-1]),
            "rungs": float(self.rung_partial[-1]),
            "total": self.total,
            "converged": self.report.converged,
            "tol": self.report.tol,
        }


def ladder_energy(lh: LadderHarmonic, tol=1e-8) -> LadderEnergy:
    """Partial energy sums, itemized as one-rail display, both rails, rungs.

    Convergence of the totals is declared by the exhaustion drivers'
    stopping rule, ``ConvergenceReport.assess`` over the partial totals.
    """
    a, b = lh.alpha, lh.beta
    N = lh.n_max
    n = np.arange(N, dtype=np.float64)
    rail_terms = a ** (n + 1) * lh.du ** 2
    m = np.arange(N + 1, dtype=np.float64)
    rung_terms = b ** m * lh.sigma ** 2
    en = LadderEnergy(rail_partial=np.cumsum(rail_terms),
                      rung_partial=np.cumsum(rung_terms)[: N],
                      report=ConvergenceReport(quantity="ladder_energy", tol=tol))
    for n, value in enumerate(en.total_partial.tolist()):
        en.report.record(n, n + 1, value)
    en.report.assess()
    return en


def du_upper_bounds(lh: LadderHarmonic) -> np.ndarray:
    """Closed-form upper bound for du(n), valid when alpha > 4 beta^2.

    bound(n) = alpha^{-(n+1)} (1 + beta (1-beta^n)/(1-beta) + (2 beta)^n / alpha
               + (2 beta / alpha) sum_{k<n} 2^k (beta^k - beta^n) / (1-beta)).
    """
    a, b = lh.alpha, lh.beta
    N = lh.n_max
    out = np.zeros(N)
    for n in range(N):
        if abs(2.0 * b - 1.0) > 1e-12:
            geo = ((2.0 * b) ** n - 1.0) / (2.0 * b - 1.0)
        else:
            geo = float(n)
        ssum = geo - b ** n * (2.0 ** n - 1.0)
        out[n] = a ** (-(n + 1.0)) * (
            1.0
            + b * (1.0 - b ** n) / (1.0 - b)
            + (2.0 * b) ** n / a
            + 2.0 * b / a * ssum / (1.0 - b)
        )
    return out


def du_bound_satisfied(lh: LadderHarmonic):
    """(holds_everywhere, first_violation_index) for the increment bound."""
    if not (lh.alpha > 4.0 * lh.beta ** 2):
        raise InvalidParameters("bound requires alpha > 4 beta^2")
    bounds = du_upper_bounds(lh)
    ok = lh.du <= bounds * (1.0 + 1e-12) + 1e-300
    idx = int(np.argmin(ok)) if not ok.all() else -1
    return bool(ok.all()), idx


def ladder_vs_halfline_transitions(alpha, beta, n):
    """Step distributions of the two comparison walks at rail level n.

    The half-line walk is spatially homogeneous; the ladder walk carries an
    extra rung move with weight (beta/alpha)^n that vanishes as n grows, so
    its rail probabilities approach the half-line ones.
    """
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    _finite(alpha=alpha, beta=beta)
    if not (alpha > 0 and beta > 0):
        raise InvalidParameters("alpha and beta must be positive")
    a, b = float(alpha), float(beta)
    q = (b / a) ** n
    denom = 1.0 + a + q
    return {
        "halfline": {"back": 1.0 / (1.0 + a), "forward": a / (1.0 + a)},
        "ladder": {"back": 1.0 / denom, "forward": a / denom, "rung": q / denom},
        "n": int(n),
    }
