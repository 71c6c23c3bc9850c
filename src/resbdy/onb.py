"""Energy-orthonormal bases from dipole kernels via modified Gram-Schmidt.

Starting from the kernels v_{x_1}, ..., v_{x_N} along a BFS enumeration, the
Gram-Schmidt process yields an orthonormal system eps_1..eps_N together with
the lower-triangular change-of-basis matrices

    eps_i = sum_{j <= i} M[i, j] v_{x_j},      v_{x_i} = sum_{j <= i} E[i, j] eps_j,

with E = M^{-1}. These matrices satisfy evaluation identities that make the
construction self-checking: M[i, j] equals the Laplacian of eps_i at x_j,
E[i, j] equals eps_j(x_i) - eps_j(o), E E^T reproduces the Gram matrix of the
kernels, and the mixed sum over j <= k <= i collapses to the Kronecker delta.

Construction runs in high precision whenever the kernels carry hi values, at
25 digits above the kernels' solve precision; the public matrices are float64
with the deviations of all identity checks evaluated in the construction
field, at the recorded construction precision. The float64 route is kept for
well-conditioned inputs but cannot meet tight tolerances once the window's
conductances span many orders of magnitude.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import _hifi
from .energy import Potential, energy
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
    field: str                 # "float64", "mp", or "fraction-sourced mp"
    dps: object = None         # mp construction precision (digits), if hi-built
    _hi: object = None         # (eps columns, M, E, V) in mp when hi-built

    @property
    def N(self):
        return len(self.enumeration)

    def eps_potential(self, k):
        """eps_k as a Potential (1-indexed)."""
        vals = np.zeros(self.net.n)
        vals[self.window.vertices] = self.eps[:, k - 1]
        hi = self._hi.eps[k - 1] if self._hi is not None else None
        return Potential(self.net, vals, self.window, pinned=True, hi=hi,
                         dps=self.dps)


class _MPOnb:
    def __init__(self, eps, M, E, V):
        self.eps = eps  # list of N lists aligned with window.vertices
        self.M = M
        self.E = E
        self.V = V


def _mp_edges(net, window):
    verts = window.vertices
    pos = {int(v): i for i, v in enumerate(verts)}
    out = []
    for k in np.flatnonzero(window.edge_mask):
        c = net.exact_conductance(int(k))
        out.append((pos[int(net.ei[k])], pos[int(net.ej[k])], _hifi.to_mpf(c)))
    return out, pos


def _mp_energy(edges, u, v):
    acc = mp.mpf(0)
    for a, b, c in edges:
        acc += c * (u[a] - u[b]) * (v[a] - v[b])
    return acc


def gram_schmidt(kernels, enumeration, degeneracy_tol=DEGENERACY_TOL,
                 reorth_threshold=REORTH_THRESHOLD):
    """Modified Gram-Schmidt on dipole kernels in the energy inner product.

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
    use_hi = all(k.hi is not None for k in kernels)
    if use_hi:
        dps = _hifi.auto_dps(net, window.edge_mask, len(window.vertices)) + 25
        with mp.workdps(dps):
            return _gram_schmidt_mp(kernels, enumeration, net, window,
                                    degeneracy_tol, reorth_threshold, dps)
    return _gram_schmidt_float(kernels, enumeration, net, window,
                               degeneracy_tol, reorth_threshold)


def _gram_schmidt_mp(kernels, xs, net, window, degeneracy_tol, reorth_threshold,
                     dps):
    edges, pos = _mp_edges(net, window)
    N = len(kernels)
    cols = []
    for k in kernels:
        cols.append([v if isinstance(v, mp.mpf) else
                     _hifi.to_mpf(v) if isinstance(v, Fraction) else mp.mpf(v)
                     for v in k.hi])
    nv = len(window.vertices)
    V = [[_mp_energy(edges, cols[i], cols[j]) for j in range(N)] for i in range(N)]
    eps = []
    E = [[mp.mpf(0)] * N for _ in range(N)]
    M = [[mp.mpf(0)] * N for _ in range(N)]
    pivot_min = None
    for n in range(N):
        w = list(cols[n])
        coeff = [mp.mpf(0)] * n
        for j in range(n):
            r = _mp_energy(edges, eps[j], w)
            coeff[j] += r
            for t in range(nv):
                w[t] -= r * eps[j][t]
        # one re-orthogonalization pass when orthogonality degrades
        wnorm2 = _mp_energy(edges, w, w)
        if n and wnorm2 > 0:
            worst = max(abs(_mp_energy(edges, eps[j], w)) for j in range(n))
            if worst > reorth_threshold * mp.sqrt(wnorm2):
                for j in range(n):
                    r = _mp_energy(edges, eps[j], w)
                    coeff[j] += r
                    for t in range(nv):
                        w[t] -= r * eps[j][t]
                wnorm2 = _mp_energy(edges, w, w)
        if wnorm2 <= 0:
            raise GramDegenerate(f"kernel {n + 1} is energy-dependent on its predecessors")
        piv = mp.sqrt(wnorm2)
        if float(piv) < degeneracy_tol:
            raise GramDegenerate(
                f"pivot {float(piv):.3e} below degeneracy tol {degeneracy_tol:.1e}")
        pivot_min = piv if pivot_min is None else min(pivot_min, piv)
        eps.append([t / piv for t in w])
        for j in range(n):
            E[n][j] = coeff[j]
        E[n][n] = piv
        # forward recurrence for M = E^{-1}
        for k2 in range(n + 1):
            s = (mp.mpf(1) if k2 == n else mp.mpf(0))
            for j in range(n):
                if E[n][j] and M[j][k2]:
                    s -= E[n][j] * M[j][k2]
            M[n][k2] = s / piv
    orth = mp.mpf(0)
    for i in range(N):
        for j in range(i + 1):
            d = _mp_energy(edges, eps[i], eps[j]) - (1 if i == j else 0)
            orth = max(orth, abs(d))
    epsf = np.zeros((nv, N))
    for k in range(N):
        epsf[:, k] = [float(t) for t in eps[k]]
    to_np = lambda A: np.array([[float(x) for x in row] for row in A])
    return OnbSystem(net=net, window=window, enumeration=list(map(int, xs)),
                     M=to_np(M), E=to_np(E), V=to_np(V), eps=epsf,
                     orth_dev=float(orth), pivot_min=float(pivot_min),
                     field="mp", dps=dps, _hi=_MPOnb(eps, M, E, V))


def _gram_schmidt_float(kernels, xs, net, window, degeneracy_tol, reorth_threshold):
    nv = len(window.vertices)
    N = len(kernels)
    K = np.stack([k.values[window.vertices] for k in kernels], axis=1)
    m = window.edge_mask
    ei, ej, ec = net.ei[m], net.ej[m], net.ec[m]
    vpos = -np.ones(net.n, dtype=np.int64)
    vpos[window.vertices] = np.arange(nv)
    a, b = vpos[ei], vpos[ej]

    def dot(u, v):
        return float(np.sum(ec * (u[a] - u[b]) * (v[a] - v[b])))

    V = np.array([[dot(K[:, i], K[:, j]) for j in range(N)] for i in range(N)])
    Q = np.zeros((nv, N))
    E = np.zeros((N, N))
    M = np.zeros((N, N))
    pivot_min = np.inf
    for n in range(N):
        w = K[:, n].copy()
        for j in range(n):
            r = dot(Q[:, j], w)
            E[n, j] += r
            w -= r * Q[:, j]
        wn = dot(w, w)
        if n and wn > 0:
            worst = max(abs(dot(Q[:, j], w)) for j in range(n))
            if worst > reorth_threshold * np.sqrt(wn):
                for j in range(n):
                    r = dot(Q[:, j], w)
                    E[n, j] += r
                    w -= r * Q[:, j]
                wn = dot(w, w)
        if wn <= 0:
            raise GramDegenerate(f"kernel {n + 1} is energy-dependent on its predecessors")
        piv = float(np.sqrt(wn))
        if piv < degeneracy_tol:
            raise GramDegenerate(
                f"pivot {piv:.3e} below degeneracy tol {degeneracy_tol:.1e}")
        pivot_min = min(pivot_min, piv)
        Q[:, n] = w / piv
        E[n, n] = piv
        for k2 in range(n + 1):
            s = 1.0 if k2 == n else 0.0
            s -= float(np.dot(E[n, :n], M[:n, k2]))
            M[n, k2] = s / piv
    orth = 0.0
    for i in range(N):
        for j in range(i + 1):
            orth = max(orth, abs(dot(Q[:, i], Q[:, j]) - (1.0 if i == j else 0.0)))
    return OnbSystem(net=net, window=window, enumeration=list(map(int, xs)),
                     M=M, E=E, V=V, eps=Q, orth_dev=orth,
                     pivot_min=pivot_min, field="float64", _hi=None)


def build_onb(source, N, radius=None, lane="hi", margin=5):
    """Solve N kernels along the BFS enumeration and orthonormalize them.

    The window is the ball of the requested radius (default: deep enough to
    hold x_N plus ``margin`` levels). ``lane='hi'`` solves in high precision,
    which every identity check then inherits; 'float64' uses the scipy lane.
    """
    if N < 1:
        raise InvalidParameters("N must be >= 1")
    gen = generator_for(source)
    r = 1
    while True:
        ambient = gen.ball(r if radius is None else radius)
        enum = enumerate_vertices(ambient)
        if len(enum) >= N:
            need = int(ambient.level[enum[:N]].max())
            if radius is not None or r >= need + margin:
                break
            r = need + margin
        else:
            if radius is not None or ambient.is_saturated:
                raise InvalidParameters(
                    f"window holds only {len(enum)} enumerable vertices, "
                    f"N={N} requested")
            r *= 2
    xs = enum[:N]
    window = ambient.full_view()
    solver_lane = {"hi": "mp", "float64": "float64", "fraction": "fraction"}[lane]
    kernels = [solve_dipole_level(window, x, bc="free", lane=solver_lane)
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


def _lap_rows_mp(onb):
    """Laplacian action of every eps_k at every enumerated vertex (mp)."""
    net, window = onb.net, onb.window
    edges, pos = _mp_edges(net, window)
    N = onb.N
    xs = [pos[int(x)] for x in onb.enumeration]
    lap = [[mp.mpf(0)] * len(window.vertices) for _ in range(N)]
    for k in range(N):
        col = onb._hi.eps[k]
        for a, b, c in edges:
            flow = c * (col[a] - col[b])
            lap[k][a] += flow
            lap[k][b] -= flow
    return [[lap[k][xp] for xp in xs] for k in range(N)]


@_at_onb_precision
def entries_M_via_laplacian(onb: OnbSystem):
    """Matrix (Lap eps_i)(x_j) for j <= i, zero above the diagonal.

    Returns (matrix, max absolute deviation from onb.M).
    """
    N = onb.N
    if onb._hi is not None:
        lap = _lap_rows_mp(onb)
        out = np.zeros((N, N))
        dev = mp.mpf(0)
        for i in range(N):
            for j in range(N):
                val = lap[i][j] if j <= i else mp.mpf(0)
                out[i, j] = float(val)
                dev = max(dev, abs(val - onb._hi.M[i][j]))
        return out, float(dev)
    net = onb.net
    L = net.laplacian()
    full = np.zeros((net.n, N))
    full[onb.window.vertices, :] = onb.eps
    lap = L @ full
    out = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1):
            out[i, j] = lap[onb.enumeration[j], i]
    return out, float(np.abs(out - onb.M).max())


@_at_onb_precision
def entries_E_via_evaluation(onb: OnbSystem):
    """Matrix eps_j(x_i) - eps_j(o); equals M^{-1}. Returns (matrix, max dev)."""
    N = onb.N
    verts = onb.window.vertices
    xpos = [int(np.searchsorted(verts, x)) for x in onb.enumeration]
    if onb._hi is not None:
        out = np.zeros((N, N))
        dev = mp.mpf(0)
        for i in range(N):
            for j in range(N):
                val = onb._hi.eps[j][xpos[i]] if j <= i else mp.mpf(0)
                out[i, j] = float(val)
                dev = max(dev, abs(val - onb._hi.E[i][j]))
        return out, float(dev)
    out = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1):
            out[i, j] = onb.eps[xpos[i], j]
    return out, float(np.abs(out - onb.E).max())


@_at_onb_precision
def gram_product_check(onb: OnbSystem):
    """Max |(E E^T - V)_{ij}|, E from the construction, V from edge sums."""
    if onb._hi is not None:
        N = onb.N
        dev = mp.mpf(0)
        for i in range(N):
            for j in range(N):
                s = mp.mpf(0)
                for k in range(min(i, j) + 1):
                    s += onb._hi.E[i][k] * onb._hi.E[j][k]
                dev = max(dev, abs(s - onb._hi.V[i][j]))
        return float(dev)
    return float(np.abs(onb.E @ onb.E.T - onb.V).max())


@_at_onb_precision
def kronecker_sum_check(onb: OnbSystem):
    """Max |sum_{j<=k<=i} (eps_k(x_i)-eps_k(o)) (Lap eps_k)(x_j) - delta_ij|.

    Both factors come from evaluation routes (vertex values and Laplacian
    action), not from the stored matrices, so this exercises the full chain.
    """
    N = onb.N
    Eeval, _ = entries_E_via_evaluation(onb)
    Mlap, _ = entries_M_via_laplacian(onb)
    if onb._hi is not None:
        verts = onb.window.vertices
        xpos = [int(np.searchsorted(verts, x)) for x in onb.enumeration]
        lap = _lap_rows_mp(onb)
        dev = mp.mpf(0)
        for i in range(N):
            for j in range(N):
                s = mp.mpf(0)
                for k in range(j, i + 1):
                    s += onb._hi.eps[k][xpos[i]] * lap[k][j]
                s -= 1 if i == j else 0
                dev = max(dev, abs(s))
        return float(dev)
    dev = 0.0
    for i in range(N):
        for j in range(N):
            s = sum(Eeval[i, k] * Mlap[k, j] for k in range(j, i + 1))
            dev = max(dev, abs(s - (1.0 if i == j else 0.0)))
    return float(dev)


@_at_onb_precision
def reconstruction_check(onb: OnbSystem):
    """Max energy-norm error of v_{x_n} = sum_{j<=n} (eps_j(x_n)-eps_j(o)) eps_j.

    Reconstructs each kernel from evaluation coefficients and measures the
    energy norm of the difference against the kernel recovered from E.
    """
    Eeval, _ = entries_E_via_evaluation(onb)
    if onb._hi is not None:
        edges, pos = _mp_edges(onb.net, onb.window)
        verts = onb.window.vertices
        xpos = [int(np.searchsorted(verts, x)) for x in onb.enumeration]
        worst = mp.mpf(0)
        nv = len(verts)
        for n in range(onb.N):
            recon = [mp.mpf(0)] * nv
            for j in range(n + 1):
                cj = onb._hi.eps[j][xpos[n]]
                col = onb._hi.eps[j]
                for t in range(nv):
                    recon[t] += cj * col[t]
            orig = [sum(onb._hi.E[n][j] * onb._hi.eps[j][t] for j in range(n + 1))
                    for t in range(nv)]
            diff = [recon[t] - orig[t] for t in range(nv)]
            worst = max(worst, mp.sqrt(abs(_mp_energy(edges, diff, diff))))
        return float(worst)
    worst = 0.0
    m = onb.window.edge_mask
    net = onb.net
    ei, ej, ec = net.ei[m], net.ej[m], net.ec[m]
    vpos = -np.ones(net.n, dtype=np.int64)
    vpos[onb.window.vertices] = np.arange(len(onb.window.vertices))
    a, b = vpos[ei], vpos[ej]
    for n in range(onb.N):
        recon = onb.eps[:, :n + 1] @ Eeval[n, :n + 1]
        orig = onb.eps[:, :n + 1] @ onb.E[n, :n + 1]
        d = recon - orig
        worst = max(worst, float(np.sqrt(np.sum(ec * (d[a] - d[b]) ** 2))))
    return worst


# -- coefficient vectors and the number operator -----------------------------


def coefficient_vector(onb: OnbSystem, values) -> np.ndarray:
    """ONB coordinates of a potential from its values at enumerated vertices.

    u_n = <eps_n, u> = sum_k M[n, k] (u(x_k) - u(o)), which is exact for any
    finite-energy u thanks to the reproducing identity of the kernels.
    ``values`` is a Potential, a dict, or a callable vertex -> value.
    """
    if isinstance(values, Potential):
        getter = values.value
    elif isinstance(values, dict):
        getter = lambda v: values[v]
    else:
        getter = values
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
