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
* column n of (c dQ)^T dQ, the Gram matrix of the eps_j, serves twice: it
  drives one second pass that projects w again (one pass is enough: Giraud,
  Langou & Rozloznik, Comput. Math. Appl. 50, 2005), and its final values
  give the orthonormality deviation. In float64 the second pass runs at
  every step, where it costs three more products; in mp it runs only when
  the column shows that eps_n has lost orthogonality to the earlier eps_j.

The construction and every identity check are written once, over numpy
arrays in the construction field, the field of the kernels'
``edge_currents``: mpf object arrays at the mp lane's one precision
(``EDGE_SUM_DPS``) whenever every kernel's ``w`` holds mp or Fraction values,
float64 arrays otherwise. In both the kernels' increments are their edge
currents over c, dK = c dK / c; in mp the currents are the solves' own,
right relative to themselves however large c is. The Laplacian check reads
the carried c dQ. In every product of an mpf with an array, the array stands
on the left: an mpf on the left makes mpmath format the whole array before
numpy takes over. An OnbSystem keeps eps, M, E, V and the eps_j's currents
once, in the construction field; its M, E and V attributes are float64
copies formed on each read. The deviations of the identity checks are
evaluated in the construction field, at its precision.

Every matrix-vector and dot product, in the construction and in the checks,
is ``energy._product``: in mp each entry is formed exactly and rounded once
(mpmath's ``fdot``, the exact dot product of Kulisch & Miranker, Computer
Arithmetic in Theory and Practice, 1981), where ``@`` on object arrays
rounds after every term; float64 keeps ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _hifi
from .energy import (Potential, _product, current_energy, edge_currents,
                     energy, field_of, value_getter, window_edges,
                     window_laplacian)
from .errors import DimensionMismatch, GramDegenerate, InvalidParameters
from .network import enumerate_vertices
from .solver import check, solve_dipole_level

DEGENERACY_TOL = 1e-12
REORTH_THRESHOLD = 1e-10
# a basis passes when every identity deviation is within IDENTITY_TOL and
# its orthonormality deviation within ORTH_TOL
IDENTITY_TOL = 1e-7
ORTH_TOL = 1e-9


@dataclass
class OnbSystem:
    """An orthonormal system, kept in the construction field."""

    window: object
    enumeration: list          # x_1..x_N vertex ids
    orth_dev: float
    _Q: np.ndarray             # (n_window, N), pinned ONB vectors eps_j
    _M: np.ndarray             # lower triangular, positive diagonal
    _E: np.ndarray             # M^{-1}, lower triangular
    _V: np.ndarray             # Gram matrix of the kernels
    _flows: np.ndarray         # c d(eps): the eps_j's edge currents

    @property
    def net(self):
        return self.window.net

    @property
    def field(self):
        return "mp" if self._Q.dtype == object else "float64"

    @property
    def N(self):
        return len(self.enumeration)

    @property
    def M(self):
        return self._M.astype(float)

    @property
    def E(self):
        return self._E.astype(float)

    @property
    def V(self):
        return self._V.astype(float)

    @property
    def pivot_min(self):
        """The least Gram-Schmidt pivot, E's least diagonal entry."""
        return float(min(self._E.diagonal()))

    def eps_potential(self, k):
        """eps_k as a Potential (1-indexed), in the construction field."""
        return Potential(self.window, self._Q[:, k - 1],
                         i=self._flows[:, k - 1])

    # the two evaluation routes of the identity checks, formed once per system

    @cached_property
    def _laplacian_entries(self):
        """(Lap eps_i)(x_j) for j <= i, zero above the diagonal (construction
        field), from the eps_i's edge currents."""
        xs = self.window.index(self.enumeration)
        return np.tril(np.array([window_laplacian(self.eps_potential(k))[xs]
                                 for k in range(1, self.N + 1)],
                                dtype=self._flows.dtype))

    @cached_property
    def _evaluation_entries(self):
        """eps_j(x_i) - eps_j(o) for j <= i, zero above the diagonal
        (construction field)."""
        return np.tril(self._Q[self.window.index(self.enumeration), :])


def _sqrt(x):
    """Square root in the field of x (mpf or float): an mpf's at its own
    context's precision."""
    return x.context.sqrt(x) if hasattr(x, "context") else np.sqrt(x)


def gram_schmidt(kernels, enumeration):
    """Gram-Schmidt on dipole kernels in the energy inner product, over the
    window's edge increments (see the module docstring).

    A second orthogonalization pass runs at every step in float64, and in mp
    whenever the loss of orthogonality of the reduced vector exceeds
    ``REORTH_THRESHOLD``. Raises GramDegenerate when a pivot falls below
    ``DEGENERACY_TOL`` (numerically dependent kernels).
    """
    if not kernels:
        raise InvalidParameters("need at least one kernel")
    if len(kernels) != len(enumeration):
        raise DimensionMismatch("one enumeration vertex per kernel")
    window = kernels[0].window
    c, a, b, cur = edge_currents(window, *kernels)
    hi = c.dtype == object
    K = np.stack([k.w.astype(c.dtype, copy=False) for k in kernels], axis=1)
    cdK = np.stack(cur, axis=1)
    if field_of(K) is Fraction:
        # exact kernels are orthonormalized in the mp lane's field
        mpf = _hifi.MPField(_hifi.EDGE_SUM_DPS).number
        to_mpf = np.vectorize(lambda x: _hifi.to_mpf(x, mpf),
                              otypes=[object])
        K, cdK, c = (to_mpf(A) for A in (K, cdK, c))
    # the increments come from the kernels' currents
    dK = cdK / c[:, None]
    N = len(kernels)
    # the field's own zero: an int 0 would be converted in every fdot
    zero = field_of(K)(0)
    Q, dQ, cdQ = (np.full_like(A, zero) for A in (K, dK, dK))
    V, E, M, G = (np.full((N, N), zero, dtype=K.dtype) for _ in range(4))
    for n in range(N):
        # both Gram matrices are symmetric: one column of each per step
        V[n, :n + 1] = V[:n + 1, n] = _product(cdK[:, :n + 1].T, dK[:, n])
        # E[n, j] = <v_n, eps_j> = sum_k M[j, k] V[k, n]
        e = _product(M[:n, :n], V[:n, n])
        w = K[:, n] - _product(Q[:, :n], e)
        dw = dK[:, n] - _product(dQ[:, :n], e)
        for second_pass in (False, True):
            wn = _product(c * dw, dw)
            if not wn > 0:
                raise GramDegenerate(
                    f"kernel {n + 1} is energy-dependent on its predecessors")
            piv = _sqrt(wn)
            Q[:, n], dQ[:, n] = w / piv, dw / piv
            cdQ[:, n] = c * dQ[:, n]
            # column n of the Gram matrix of eps_1..eps_n
            G[:n + 1, n] = _product(cdQ[:, :n + 1].T, dQ[:, n])
            # one re-orthogonalization pass: always in float64, in mp
            # when orthogonality degrades
            if (second_pass or not n or hi
                    and not np.max(np.abs(G[:n, n])) > REORTH_THRESHOLD):
                break
            r = G[:n, n] * piv
            e = e + r
            w, dw = w - _product(Q[:, :n], r), dw - _product(dQ[:, :n], r)
        if float(piv) < DEGENERACY_TOL:
            raise GramDegenerate(
                f"pivot {float(piv):.3e} below degeneracy tol {DEGENERACY_TOL:.1e}")
        E[n, :n], E[n, n] = e, piv
        # forward recurrence for M = E^{-1}
        M[n, :n + 1] = (np.eye(1, n + 1, n, dtype=K.dtype)[0]
                        - _product(E[n, :n], M[:n, :n + 1])) / piv
    orth = np.max(np.abs(np.triu(G - np.eye(N))))
    return OnbSystem(window=window, enumeration=list(map(int, enumeration)),
                     orth_dev=float(orth), _Q=Q, _M=M, _E=E, _V=V, _flows=cdQ)


def build_onb(source, N, radius=None, lane="mp"):
    """Solve N kernels along the BFS enumeration and orthonormalize them.

    The window is the ball of the requested radius (default: deep enough to
    hold x_N plus 5 levels). ``lane`` is a solver lane: 'mp' solves
    in mp and 'fraction' exactly, and either is orthonormalized in mp, which
    every identity check then inherits; 'float64' solves in the float64
    rounds (SuperLU takes what they leave) and orthonormalizes in float64.
    """
    if N < 1:
        raise InvalidParameters("N must be >= 1")
    r = 1 if radius is None else radius
    while True:
        ambient = source.ball(r)
        enum = enumerate_vertices(ambient)
        if len(enum) >= N:
            need = int(ambient.level[enum[:N]].max())
            if radius is None and r < need + 5:
                r = need + 5
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


def _max_dev(A, B):
    return float(np.max(np.abs(A - B)))


def _lower_dev(A, B, C):
    """max |A @ B - C| for a lower-triangular A, where A @ B - C is
    symmetric or vanishes above the diagonal. In mp only the lower triangle
    is formed: row i through the diagonal is A[i, :i+1] @ B[:i+1, :i+1]
    (the terms k > i vanish), one ``_product``. float64 takes A @ B."""
    if A.dtype != object:
        return _max_dev(A @ B, C)
    return float(np.max([
        _max_dev(_product(A[i, :i + 1], B[:i + 1, :i + 1]), C[i, :i + 1])
        for i in range(len(A))]))


def entries_M_via_laplacian(onb: OnbSystem):
    """Matrix (Lap eps_i)(x_j) for j <= i, zero above the diagonal.

    Returns (matrix, max absolute deviation from onb.M).
    """
    lap = onb._laplacian_entries
    low = np.tril_indices(onb.N)  # both vanish above the diagonal
    return lap.astype(float), _max_dev(lap[low], onb._M[low])


def entries_E_via_evaluation(onb: OnbSystem):
    """Matrix eps_j(x_i) - eps_j(o); equals M^{-1}. Returns (matrix, max dev)."""
    ev = onb._evaluation_entries
    low = np.tril_indices(onb.N)  # both vanish above the diagonal
    return ev.astype(float), _max_dev(ev[low], onb._E[low])


def gram_product_check(onb: OnbSystem):
    """Max |(E E^T - V)_{ij}|, E from the construction, V from edge sums."""
    # both sides are symmetric
    return _lower_dev(onb._E, onb._E.T, onb._V)


def kronecker_sum_check(onb: OnbSystem):
    """Max |sum_{j<=k<=i} (eps_k(x_i)-eps_k(o)) (Lap eps_k)(x_j) - delta_ij|.

    Both factors come from evaluation routes (vertex values and Laplacian
    action), not from the stored matrices, so this exercises the full chain.
    """
    # both factors are lower triangular, and so is their product
    return _lower_dev(onb._evaluation_entries, onb._laplacian_entries,
                      np.eye(onb.N))


def reconstruction_check(onb: OnbSystem):
    """Max energy-norm error of v_{x_n} = sum_{j<=n} (eps_j(x_n)-eps_j(o)) eps_j.

    Reconstructs each kernel from evaluation coefficients and measures the
    energy norm of the difference against the kernel recovered from E.
    """
    E, flows = onb._E, onb._flows
    ev = onb._evaluation_entries
    c, _, _ = window_edges(onb.window, field_of(flows))
    worst = 0.0
    for n in range(onb.N):
        # the edge currents of the difference
        d = _product(flows[:, :n + 1], ev[n, :n + 1] - E[n, :n + 1])
        # np.maximum keeps a NaN, which max() would drop
        worst = np.maximum(worst, float(_sqrt(abs(current_energy(c, d, d)))))
    return float(worst)


def identity_checks(onb: OnbSystem):
    """The four identity deviations by report key, and the basis' checks:
    the largest deviation within IDENTITY_TOL, orthonormality within
    ORTH_TOL."""
    devs = {"laplacian_entries_dev": entries_M_via_laplacian(onb)[1],
            "evaluation_entries_dev": entries_E_via_evaluation(onb)[1],
            "gram_product_dev": gram_product_check(onb),
            "kronecker_sum_dev": kronecker_sum_check(onb)}
    # np.max keeps a NaN, which max() would drop
    return devs, [check("onb-identities", np.max(list(devs.values())),
                        IDENTITY_TOL),
                  check("onb-orthonormality", onb.orth_dev, ORTH_TOL)]


# -- coefficient vectors and the number operator -----------------------------


def coefficient_vector(onb: OnbSystem, values) -> np.ndarray:
    """ONB coordinates of a potential from its values at enumerated vertices.

    u_n = <eps_n, u> = sum_k M[n, k] (u(x_k) - u(o)), which is exact for any
    finite-energy u thanks to the reproducing identity of the kernels.
    ``values`` is a Potential or a callable vertex -> value.
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
