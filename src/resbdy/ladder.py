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
from fractions import Fraction

import numpy as np

from .errors import InvalidParameters


@dataclass
class LadderHarmonic:
    alpha: float
    beta: float
    n_max: int
    u: np.ndarray                    # u(0..n_max) on the x-rail
    du: np.ndarray                   # du(0..n_max-1), carried increments
    exact_u: list = None             # Fractions when built exactly
    exact_du: list = None

    @property
    def sigma(self):
        return 2.0 * self.u + 1.0

    def value(self, vertex):
        """Value at a ladder-generator vertex id (x_n -> 2n, y_n -> 2n+1)."""
        n, rail = divmod(int(vertex), 2)
        if n > self.n_max:
            raise InvalidParameters(f"vertex level {n} beyond n_max={self.n_max}")
        return float(self.u[n]) if rail == 0 else float(-1.0 - self.u[n])


def ladder_harmonic(alpha, beta, N, exact=False) -> LadderHarmonic:
    """Run the harmonicity recursion out to u(N).

    ``exact=True`` carries the recursion in rational arithmetic (alpha, beta
    converted from their float64 values, so both lanes describe the same
    network).
    """
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
    exact_u = exact_du = None
    if exact:
        af, bf = Fraction(float(alpha)), Fraction(float(beta))
        eu = [Fraction(0), 1 / af]
        edu = [1 / af]
        qf = bf / af
        for n in range(1, N):
            src = qf ** n
            d = edu[n - 1] / af + src * (2 * eu[n] + 1) / af
            edu.append(d)
            eu.append(eu[n] + d)
        exact_u, exact_du = eu, edu
    return LadderHarmonic(alpha=a, beta=b, n_max=N, u=u, du=du,
                          exact_u=exact_u, exact_du=exact_du)


def harmonic_residuals(lh: LadderHarmonic) -> np.ndarray:
    """Laplacian balance at x_0..x_{N-1}, evaluated in increment form.

    Entry 0 is alpha (u(0)-u(1)) + su(0); entry n >= 1 is
    alpha^n du(n-1) - alpha^{n+1} du(n) + beta^n su(n). The y-rail residuals
    are the negatives by antisymmetry.
    """
    a, b = lh.alpha, lh.beta
    N = lh.n_max
    res = np.zeros(N)
    res[0] = -a * lh.du[0] + (2.0 * lh.u[0] + 1.0)
    n = np.arange(1, N, dtype=np.float64)
    ni = np.arange(1, N)
    res[1:] = (a ** n * lh.du[ni - 1]
               - a ** (n + 1) * lh.du[ni]
               + b ** n * (2.0 * lh.u[ni] + 1.0))
    return res


@dataclass
class LadderEnergy:
    rail_partial: np.ndarray     # one rail, alpha^{n+1} du(n)^2 cumulative
    rails_partial: np.ndarray    # both rails
    rung_partial: np.ndarray     # beta^n su(n)^2 cumulative
    total_partial: np.ndarray
    converged: bool
    tol: float

    @property
    def total(self):
        return float(self.total_partial[-1])

    def to_dict(self):
        return {
            "one_rail": float(self.rail_partial[-1]),
            "both_rails": float(self.rails_partial[-1]),
            "rungs": float(self.rung_partial[-1]),
            "total": self.total,
            "converged": self.converged,
            "tol": self.tol,
        }


def ladder_energy(lh: LadderHarmonic, tol=1e-8) -> LadderEnergy:
    """Partial energy sums, itemized as one-rail display, both rails, rungs.

    Convergence of the totals is declared by the three-consecutive-deltas
    rule used by the exhaustion drivers.
    """
    a, b = lh.alpha, lh.beta
    N = lh.n_max
    n = np.arange(N, dtype=np.float64)
    rail_terms = a ** (n + 1) * lh.du ** 2
    m = np.arange(N + 1, dtype=np.float64)
    rung_terms = b ** m * (2.0 * lh.u + 1.0) ** 2
    rail = np.cumsum(rail_terms)
    rung = np.cumsum(rung_terms)[: N]
    total = 2.0 * rail + rung
    deltas = np.abs(np.diff(total)) / np.maximum(np.abs(total[1:]), 1e-300)
    converged = bool(len(deltas) >= 3 and np.all(deltas[-3:] < tol))
    return LadderEnergy(rail_partial=rail, rails_partial=2.0 * rail,
                        rung_partial=rung, total_partial=total,
                        converged=converged, tol=tol)


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


def ladder_ball_values(lh: LadderHarmonic, radius):
    """Values on the radius-r ladder ball, as a dense array in generator indexing."""
    r = int(radius)
    if r > lh.n_max:
        raise InvalidParameters("recursion too short for this radius")
    vals = np.zeros(2 * (r + 1))
    vals[0::2] = lh.u[: r + 1]
    vals[1::2] = -1.0 - lh.u[: r + 1]
    return vals
