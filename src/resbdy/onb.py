"""Energy-orthonormal bases from dipole kernels via Gram-Schmidt.

Starting from the kernels v_{x_1}, ..., v_{x_N} along a BFS enumeration, the
Gram-Schmidt process yields an orthonormal system eps_1..eps_N together with
the lower-triangular change-of-basis matrices

    eps_i = sum_{j <= i} M[i, j] v_{x_j},      v_{x_i} = sum_{j <= i} E[i, j] eps_j,

with E = M^{-1}. These matrices satisfy evaluation identities that make the
construction self-checking: M[i, j] equals the Laplacian of eps_i at x_j,
E[i, j] equals eps_j(x_i) - eps_j(o), E E^T reproduces the Gram matrix of the
kernels, and the mixed sum over j <= k <= i collapses to the Kronecker delta.

Every energy inner product is an edge sum <u, v> = sum c du dv over the
window's edge increments du = u_a - u_b. The construction takes the kernels'
increments dK once and carries the increments of every later vector
alongside its values, so each step is a few matrix-vector products:

* column n of the kernels' Gram matrix is (c dK[:, :n+1])^T dK[:, n];
* E[n, j] = <v_n, eps_j> = sum_k M[j, k] V[k, n] for j < n, a product of M
  with that column (the inner products of Cholesky-QR: Stathopoulos & Wu,
  SIAM J. Sci. Comput. 23(6), 2002);
* the residual w = v_n - sum_j E[n, j] eps_j and its increments dw each come
  from one product, and the pivot is the edge sum (sum c dw^2)^(1/2), so a
  kernel that depends on its predecessors leaves a pivot at rounding level;
* column n of (c dQ)^T dQ, the Gram matrix of the eps_j, serves twice: when
  it shows that eps_n has lost orthogonality to the earlier eps_j, one
  second pass projects w again (one pass is enough: Giraud, Langou &
  Rozloznik, Comput. Math. Appl. 50, 2005), and its final values give the
  orthonormality deviation.

The construction and every identity check are written once, over numpy
arrays in the construction field: mpf object arrays at 25 digits above the
kernels' solve precision whenever all kernels carry hi values (mp or
Fraction), float64 arrays otherwise. In every product of an mpf with an
array, the array stands on the left: an mpf on the left makes mpmath format
the whole array before numpy takes over. The public matrices are float64;
the deviations of the identity checks are evaluated in the construction
field, at the recorded construction precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import _hifi
from .energy import (Potential, edge_energy, edge_laplacian, energy, field_of,
                     value_getter, window_edges, window_values)
from .errors import DimensionMismatch, GramDegenerate, InvalidParameters
from .network import enumerate_vertices, generator_for
from .solver import solve_dipole_level

DEGENERACY_TOL = 1e-12
REORTH_THRESHOLD = 1e-10


@dataclass
class OnbSystem:
    net: object
    window: object
    enumeration: list          # x_1..x_N vertex ids
    M: np.ndarray              # lower triangular, positive diagonal
    E: np.ndarray              # M^{-1}, lower triangular
    V: np.ndarray              # Gram matrix of the kernels
    eps: np.ndarray            # (n_vertices, N), pinned ONB vectors
    orth_dev: float
    pivot_min: float
    field: str                 # "float64" or "mp"
    dps: object = None         # mp construction precision (digits), if mp-built
    _work: tuple = None        # (eps, M, E, V) in the construction field

    @property
    def N(self):
        return len(self.enumeration)

    def eps_potential(self, k):
        """eps_k as a Potential (1-indexed)."""
        vals = np.zeros(self.net.n)
        vals[self.window.vertices] = self.eps[:, k - 1]
        hi = list(self._work[0][:, k - 1]) if self.dps is not None else None
        return Potential(self.net, vals, self.window, pinned=True, hi=hi,
                         dps=self.dps)


def _sqrt(x):
    """Square root in the field of x (mpf or float)."""
    return mp.sqrt(x) if isinstance(x, mp.mpf) else np.sqrt(x)


def gram_schmidt(kernels, enumeration, degeneracy_tol=DEGENERACY_TOL,
                 reorth_threshold=REORTH_THRESHOLD):
    """Gram-Schmidt on dipole kernels in the energy inner product, over the
    window's edge increments (see the module docstring).

    A second orthogonalization pass runs whenever the loss of orthogonality
    of the reduced vector exceeds ``reorth_threshold``. Raises GramDegenerate
    when a pivot falls below ``degeneracy_tol`` (numerically dependent
    kernels).
    """
    if not kernels:
        raise InvalidParameters("need at least one kernel")
    if len(kernels) != len(enumeration):
        raise DimensionMismatch("one enumeration vertex per kernel")
    net, window = kernels[0].net, kernels[0].window
    hi = all(k.hi is not None for k in kernels)
    dps = (_hifi.auto_dps(net, window.edge_mask, len(window.vertices)) + 25
           if hi else None)
    with _hifi.workdps(dps):
        K = np.stack([window_values(k) if hi else k.values[window.vertices]
                      for k in kernels], axis=1)
        if field_of(K) is Fraction:
            # exact kernels are orthonormalized in mp
            K = np.vectorize(_hifi.to_mpf, otypes=[object])(K)
        c, a, b = window_edges(window, field_of(K))
        dK = K[a] - K[b]
        cdK = c[:, None] * dK
        N = len(kernels)
        Q, dQ, cdQ = np.zeros_like(K), np.zeros_like(dK), np.zeros_like(dK)
        V, E, M, G = (np.zeros((N, N), dtype=K.dtype) for _ in range(4))
        pivot_min = np.inf
        for n in range(N):
            # both Gram matrices are symmetric: one column of each per step
            V[n, :n + 1] = V[:n + 1, n] = cdK[:, :n + 1].T @ dK[:, n]
            # E[n, j] = <v_n, eps_j> = sum_k M[j, k] V[k, n]
            e = M[:n, :n] @ V[:n, n]
            w, dw = K[:, n] - Q[:, :n] @ e, dK[:, n] - dQ[:, :n] @ e
            for second_pass in (False, True):
                wn = (c * dw) @ dw
                if not wn > 0:
                    raise GramDegenerate(
                        f"kernel {n + 1} is energy-dependent on its predecessors")
                piv = _sqrt(wn)
                Q[:, n], dQ[:, n] = w / piv, dw / piv
                cdQ[:, n] = c * dQ[:, n]
                # column n of the Gram matrix of eps_1..eps_n
                G[:n + 1, n] = cdQ[:, :n + 1].T @ dQ[:, n]
                # one re-orthogonalization pass when orthogonality degrades
                if (second_pass or not n
                        or not np.max(np.abs(G[:n, n])) > reorth_threshold):
                    break
                r = G[:n, n] * piv
                e = e + r
                w, dw = w - Q[:, :n] @ r, dw - dQ[:, :n] @ r
            if float(piv) < degeneracy_tol:
                raise GramDegenerate(
                    f"pivot {float(piv):.3e} below degeneracy tol {degeneracy_tol:.1e}")
            pivot_min = min(pivot_min, piv)
            E[n, :n], E[n, n] = e, piv
            # forward recurrence for M = E^{-1}
            M[n, :n + 1] = (np.eye(1, n + 1, n, dtype=K.dtype)[0]
                            - E[n, :n] @ M[:n, :n + 1]) / piv
        orth = np.max(np.abs(np.triu(G - np.eye(N))))
    return OnbSystem(net=net, window=window, enumeration=list(map(int, enumeration)),
                     M=M.astype(float), E=E.astype(float), V=V.astype(float),
                     eps=Q.astype(float), orth_dev=float(orth),
                     pivot_min=float(pivot_min),
                     field="float64" if dps is None else "mp", dps=dps,
                     _work=(Q, M, E, V))


def build_onb(source, N, radius=None, lane="mp", margin=5):
    """Solve N kernels along the BFS enumeration and orthonormalize them.

    The window is the ball of the requested radius (default: deep enough to
    hold x_N plus ``margin`` levels). ``lane`` is a solver lane: 'mp' solves
    in mp and 'fraction' exactly, and either is orthonormalized in mp, which
    every identity check then inherits; 'float64' uses the scipy lane.
    """
    if N < 1:
        raise InvalidParameters("N must be >= 1")
    gen = generator_for(source)
    r = 1 if radius is None else radius
    while True:
        ambient = gen.ball(r)
        enum = enumerate_vertices(ambient)
        if len(enum) >= N:
            need = int(ambient.level[enum[:N]].max())
            if radius is None and r < need + margin:
                r = need + margin
                continue
            if need > r:
                raise InvalidParameters(
                    f"x_{N} lies at level {need}, outside the radius-{r} window")
            break
        if radius is not None or ambient.is_saturated:
            raise InvalidParameters(
                f"window holds only {len(enum)} enumerable vertices, "
                f"N={N} requested")
        r *= 2
    xs = enum[:N]
    window = ambient.ball_view(r)
    kernels = [solve_dipole_level(window, x, bc="free", lane=lane)
               for x in xs]
    return gram_schmidt(kernels, xs)


# -- identity checks ---------------------------------------------------------


def _at_onb_precision(check):
    """Run an identity check at the precision the ONB was built at."""
    @functools.wraps(check)
    def run(onb, *args, **kwargs):
        with _hifi.workdps(onb.dps):
            return check(onb, *args, **kwargs)
    return run


def _max_dev(A, B):
    return float(np.max(np.abs(A - B)))


def _laplacian_entries(onb):
    """(Lap eps_i)(x_j) for j <= i, zero above the diagonal (construction field)."""
    Q = onb._work[0]
    edges = window_edges(onb.window, field_of(Q))
    xs = np.searchsorted(onb.window.vertices, onb.enumeration)
    return np.tril(np.array([edge_laplacian(*edges, Q[:, k])[xs]
                             for k in range(onb.N)], dtype=Q.dtype))


def _evaluation_entries(onb):
    """eps_j(x_i) - eps_j(o) for j <= i, zero above the diagonal (construction field)."""
    Q = onb._work[0]
    return np.tril(Q[np.searchsorted(onb.window.vertices, onb.enumeration), :])


@_at_onb_precision
def entries_M_via_laplacian(onb: OnbSystem):
    """Matrix (Lap eps_i)(x_j) for j <= i, zero above the diagonal.

    Returns (matrix, max absolute deviation from onb.M).
    """
    lap = _laplacian_entries(onb)
    return lap.astype(float), _max_dev(lap, onb._work[1])


@_at_onb_precision
def entries_E_via_evaluation(onb: OnbSystem):
    """Matrix eps_j(x_i) - eps_j(o); equals M^{-1}. Returns (matrix, max dev)."""
    ev = _evaluation_entries(onb)
    return ev.astype(float), _max_dev(ev, onb._work[2])


@_at_onb_precision
def gram_product_check(onb: OnbSystem):
    """Max |(E E^T - V)_{ij}|, E from the construction, V from edge sums."""
    _, _, E, V = onb._work
    return _max_dev(E @ E.T, V)


@_at_onb_precision
def kronecker_sum_check(onb: OnbSystem):
    """Max |sum_{j<=k<=i} (eps_k(x_i)-eps_k(o)) (Lap eps_k)(x_j) - delta_ij|.

    Both factors come from evaluation routes (vertex values and Laplacian
    action), not from the stored matrices, so this exercises the full chain.
    """
    return _max_dev(_evaluation_entries(onb) @ _laplacian_entries(onb),
                    np.eye(onb.N))


@_at_onb_precision
def reconstruction_check(onb: OnbSystem):
    """Max energy-norm error of v_{x_n} = sum_{j<=n} (eps_j(x_n)-eps_j(o)) eps_j.

    Reconstructs each kernel from evaluation coefficients and measures the
    energy norm of the difference against the kernel recovered from E.
    """
    Q, _, E, _ = onb._work
    ev = _evaluation_entries(onb)
    dot = functools.partial(edge_energy, *window_edges(onb.window, field_of(Q)))
    worst = 0
    for n in range(onb.N):
        d = Q[:, :n + 1] @ ev[n, :n + 1] - Q[:, :n + 1] @ E[n, :n + 1]
        worst = max(worst, _sqrt(abs(dot(d, d))))
    return float(worst)


# -- coefficient vectors and the number operator -----------------------------


def coefficient_vector(onb: OnbSystem, values) -> np.ndarray:
    """ONB coordinates of a potential from its values at enumerated vertices.

    u_n = <eps_n, u> = sum_k M[n, k] (u(x_k) - u(o)), which is exact for any
    finite-energy u thanks to the reproducing identity of the kernels.
    ``values`` is a Potential, a dict, or a callable vertex -> value.
    """
    getter = value_getter(values)
    o = onb.net.origin
    uo = float(getter(o))
    diffs = np.array([float(getter(x)) - uo for x in onb.enumeration])
    return onb.M @ diffs


def number_operator(coeffs: np.ndarray) -> np.ndarray:
    """(u_n) -> (n u_n) in ONB coordinates; eps_k is an eigenvector with value k."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return coeffs * np.arange(1, len(coeffs) + 1)


def p_seminorm(coeffs, p: int) -> float:
    """(sum_n n^p u_n^2)^(1/2); p = 0 recovers the truncated energy norm."""
    if p < 0:
        raise InvalidParameters("p must be >= 0")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = np.arange(1, len(coeffs) + 1, dtype=np.float64)
    return float(np.sqrt(np.sum(n ** p * coeffs ** 2)))


def number_pairing_check(onb: OnbSystem):
    """Max dev of <v_{x_n}, Omega v_{x_m}> = sum_{k<=min} k eps_k(x_n) eps_k(x_m).

    The left side uses the stored coefficient rows E, the right side the
    evaluation matrix; both must agree.
    """
    Eeval, _ = entries_E_via_evaluation(onb)
    N = onb.N
    k = np.arange(1, N + 1, dtype=np.float64)
    lhs = (onb.E * k) @ onb.E.T
    rhs = (Eeval * k) @ Eeval.T
    return float(np.abs(lhs - rhs).max())
