"""Monte Carlo verification of the Gaussian embedding of the energy space.

Truncated distribution-space elements are represented by their first N ONB
coordinates, which are i.i.d. standard normal under the Gaussian measure. The
transform u -> u~(xi) = sum_n u_n xi_n is then an isometry in the mean-square
sense, and the classical identities become testable moments:

* characteristic functional  E[exp(i u~)] = exp(-||u||^2 / 2)
* second moment              E[u~^2] = ||u||^2, cross moments give <u, v>
* even moments               E[u~^{2n}] = (2n)!/(2^n n!) ||u||^{2n}, odd ones vanish
* resistance                 R(x, y) = E[(v_x~ - v_y~)^2] = -2 log E[conj(e_x) e_y]
* boundary representation    u(x) - u(o) = E[u~ h_x~] for harmonic u

Sampling uses the counter-based Philox generator: the S x N block is drawn
from one Philox(key=seed) stream, so (seed, N, S) reproduces the samples bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import require_harmonic
from .errors import DimensionMismatch, InvalidParameters
from .solver import check

# a Monte Carlo check passes when its error is within this many standard errors
SIGMAS = 4.0

@dataclass
class GaussianEnsemble:
    N: int
    S: int
    seed: int
    samples: np.ndarray  # (S, N)

    def summary(self):
        mean = self.samples.mean(axis=0)
        cov = np.cov(self.samples.T) if self.N > 1 else np.array([[self.samples.var(ddof=1)]])
        return {
            "max_abs_mean": float(np.abs(mean).max()),
            "max_cov_dev": float(np.abs(cov - np.eye(self.N)).max()),
        }


def sample_ensemble(N: int, S: int, seed: int) -> GaussianEnsemble:
    """Draw S i.i.d. standard-normal coordinate vectors of length N; every
    standard error needs two draws, so S >= 2."""
    if N < 1 or S < 2:
        raise InvalidParameters(f"N must be >= 1 and S >= 2, not N={N}, S={S}")
    if not 0 <= seed < 2 ** 128:
        raise InvalidParameters("seed must be in [0, 2^128)")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return GaussianEnsemble(N=N, S=S, seed=int(seed),
                            samples=rng.standard_normal((S, N)))


def _coeffs(u, N):
    u = np.asarray(u, dtype=np.float64).ravel()
    if len(u) > N:
        raise DimensionMismatch(f"coefficient vector of length {len(u)} exceeds N={N}")
    if len(u) < N:
        u = np.pad(u, (0, N - len(u)))
    return u


def wiener_transform(u, ens: GaussianEnsemble) -> np.ndarray:
    """Per-sample values u~(xi) = <u, xi>; linear in u sample by sample."""
    return ens.samples @ _coeffs(u, ens.N)


@dataclass
class CheckResult:
    """A Monte Carlo estimate against its target: it passes when abs_error
    is within ``bound``, SIGMAS standard errors plus what the check adds
    (an absolute tolerance, a truncation tail) and 1e-12."""

    name: str
    estimate: object
    target: object
    stderr: float
    abs_error: float
    bound: float
    extra: dict = field(default_factory=dict)

    @property
    def check(self):
        return check(self.name, self.abs_error, self.bound)

    @property
    def passed(self):
        return self.check.passed

    def to_dict(self):
        est = self.estimate
        if isinstance(est, complex):
            est = {"re": est.real, "im": est.imag}
        return {
            "name": self.name,
            "estimate": est,
            "target": self.target,
            "stderr": self.stderr,
            "abs_error": self.abs_error,
            **self.extra,
        }


def _mc_mean(x):
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / math.sqrt(len(x)))
    return m, se


def _char_fn(t):
    """Sample mean of exp(i t) and its standard error."""
    z = np.exp(1j * t)
    se = math.sqrt((np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)) / len(t))
    return complex(np.mean(z)), se


def minlos_check(u, ens: GaussianEnsemble) -> CheckResult:
    """Empirical characteristic functional against exp(-||u||^2 / 2)."""
    est, se = _char_fn(wiener_transform(u, ens))
    norm2 = float(np.sum(_coeffs(u, ens.N) ** 2))
    target = math.exp(-norm2 / 2)
    err = abs(est - target)
    return CheckResult("minlos", est, target, se, err, SIGMAS * se + 1e-12,
                       extra={"norm2": norm2})


def moment_check(u, ens: GaussianEnsemble, n: int, odd=False) -> CheckResult:
    """E[u~^{2n}] against (2n)!/(2^n n!) ||u||^{2n}; with odd=True, power 2n+1 against 0."""
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    ut = wiener_transform(u, ens)
    power = 2 * n + 1 if odd else 2 * n
    est, se = _mc_mean(ut ** power)
    if odd:
        target = 0.0
    else:
        norm2 = float(np.sum(_coeffs(u, ens.N) ** 2))
        target = math.factorial(2 * n) / (2 ** n * math.factorial(n)) * norm2 ** n
    err = abs(est - target)
    return CheckResult(f"moment-{power}", est, target, se, err,
                       SIGMAS * se + 1e-12)


def isometry_check(u, ens: GaussianEnsemble) -> CheckResult:
    """E[u~^2] against the truncated energy norm sum u_n^2: the second
    moment, whose target (2)!/(2 1!) ||u||^2 is ||u||^2."""
    return replace(moment_check(u, ens, 1), name="isometry")


def kernel_coefficients(onb, x) -> np.ndarray:
    """ONB coordinates of v_x: the row of E at x's enumeration position."""
    if x == onb.net.origin:
        return np.zeros(onb.N)
    try:
        i = onb.enumeration.index(int(x))
    except ValueError:
        raise DimensionMismatch(
            f"vertex {x} is not among the {onb.N} enumerated kernels") from None
    return onb.E[i].copy()


def resistance_via_expectation(x, y, onb, ens: GaussianEnsemble, reference,
                               atol=0.0):
    """Resistance between x and y in two Monte Carlo forms.

    Returns (quadratic CheckResult, exponential CheckResult): the quadratic
    form estimates E[(v_x~ - v_y~)^2], the exponential form estimates
    -2 log E[conj(e_x) e_y] with e_x = exp(i v_x~). ``reference``, the
    solver-side resistance, is the target of both.
    """
    cx, cy = kernel_coefficients(onb, x), kernel_coefficients(onb, y)
    target = float(reference)
    dt = wiener_transform(cx - cy, ens)
    est, se = _mc_mean(dt ** 2)
    err = abs(est - target)
    quad = CheckResult("resistance-quadratic", est, target, se, err,
                       max(SIGMAS * se, atol) + 1e-12)
    zbar, se_z = _char_fn(dt)
    re = max(zbar.real, 1e-300)
    est_exp = -2.0 * math.log(re)
    se_exp = 2.0 * se_z / re
    err_exp = abs(est_exp - target)
    expo = CheckResult("resistance-exponential", est_exp, target, se_exp, err_exp,
                       max(SIGMAS * se_exp, atol) + 1e-12,
                       extra={"char_fn": {"re": zbar.real, "im": zbar.imag}})
    return quad, expo


def boundary_integral_check(u_coeffs, target, h_coeffs, ens: GaussianEnsemble,
                            harm_residual=None) -> CheckResult:
    """E[u~ h_x~] against u(x) - u(o) for a harmonic u.

    ``target`` is the exact vertex difference u(x) - u(o); a ``harm_residual``
    of u above ``HARM_TOL`` raises NotHarmonic. The truncation tail
    |sum_n u_n h_n - target| is measured directly and added to the Monte Carlo
    budget, since the sampler can only see the truncated coefficients.
    """
    require_harmonic(harm_residual)
    uc = _coeffs(u_coeffs, ens.N)
    hc = _coeffs(h_coeffs, ens.N)
    truncated = float(np.sum(uc * hc))
    tail = abs(truncated - float(target))
    prod = wiener_transform(uc, ens) * wiener_transform(hc, ens)
    est, se = _mc_mean(prod)
    err = abs(est - float(target))
    return CheckResult("boundary-integral", est, float(target), se, err,
                       SIGMAS * se + tail + 1e-12,
                       extra={"truncated_target": truncated,
                              "truncation_tail": tail})


def mu_negative_fraction(h_coeffs, ens: GaussianEnsemble) -> float:
    """Fraction of samples with 1 + h_x~(xi) < 0 (density positivity probe)."""
    ht = wiener_transform(h_coeffs, ens)
    return float(np.mean(1.0 + ht < 0.0))
