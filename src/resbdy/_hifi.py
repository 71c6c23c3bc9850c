"""High-precision linear-solve lane.

Pinned free systems on networks with geometrically growing conductances are
numerically singular in float64 once the window's conductance dynamic range
passes ~1e12 (the finite-energy harmonic direction shrinks the scaled spectrum
like 1/sum c(x)). This lane runs field-generic Gaussian elimination over
either exact rationals (Fraction) or mpmath floats whose working precision is
chosen from the window's dynamic range, so deep windows stay meaningful.

Both solve lanes take one system from ``grounded_system``, already in the
form they eliminate, in the lane's field: the window's vertices that are
not held at 0 are the unknowns, each with its conductance g to the held
vertices; the edges between unknowns come merged, one per pair; and the
right-hand side is carried signed. This lane eliminates the unknowns one at
a time; the float64 lane (``solver._solve_float64``) runs the same
elimination in vectorized rounds of independent unknowns and hands what the
rounds leave to SuperLU.

The elimination never subtracts (the GTH elimination: Grassmann, Taksar &
Heyman, Oper. Res. 33, 1985; O'Cinneide, Numer. Math. 65, 1993). Each unknown
keeps its conductances to the other unknowns and its conductance to the
vertices held at 0, all >= 0, and its pivot is their sum. Eliminating an
unknown adds nonnegative multiples of its row to its neighbours' rows, with
one reciprocal per column, and back-substitution x_k = b_k / d_k +
sum_j t_kj x_j adds the terms of one sign. With a right-hand side of one
sign (a free dipole pinned at o, any monopole) every entry of the solution
is therefore right to a few units in the last place of the precision it is
computed at, whatever the condition number. With both signs, terms of
opposite sign meet in the carried right-hand side and in back-substitution.

What is computed from a solution needs digits in proportion to the
conductances: each edge term c (v(x) - v(y)) carries the potential's
absolute error times c, so energies and residuals lose about log10(c)
digits against the potential's values. The field's precision (``auto_dps``)
covers the window's largest conductance, but each unknown is eliminated and
back-substituted at the precision its own conductances need
(``unknown_dps``): 40 + log10(c_top / c_min) + 2 log10(n + 2) digits, where
c_top is the largest of its conductances to the other unknowns and to the
held vertices. Elimination never raises a row's largest conductance
(t_ik c_kj = c_ik c_kj / d_k <= c_ik), so that precision holds for the whole
solve, and every edge current c_e (x_a - x_b) keeps an error of about
10^-40 c_min max|x|, as at the field's precision throughout. An entry is
right only to the lowest precision among the unknowns its back-substitution
reads (those eliminated after it, down to the ones near o). Measured on
ladder(5, 1) at radius 60 (45 to 86 digits) against the Fraction solve, the
worst entry is off by 6.9e-47 relative on the free dipole delta_x - delta_o,
4.6e-47 on the wired one and 8.9e-47 on a mixed-sign free solve, and the
worst edge current by 1.5e-45 c_min max|x|.

Unknowns are eliminated far-to-near (descending level), which keeps layered
families banded. Row k holds only its entries to the unknowns after k, so
each column touches only its own neighbours and elimination costs
O(nnz + fill).

mpmath's precision is scoped to each step and never left changed: a solve
builds its system at its field's precision and restores the caller's on
every exit, and edge sums over mp values run at ``EDGE_SUM_DPS``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec

from .errors import InvalidParameters, SingularSystem


# Edge sums over mp values (energies, Laplacian residuals, boundary sums) run
# at this fixed precision. Their inputs keep the full solve precision and
# mpmath rounds each difference of two inputs once, from its exact value, so
# the float64 results keep every digit.
EDGE_SUM_DPS = 50


def workdps(dps):
    """Scope mpmath's precision to ``dps`` digits; None scopes nothing."""
    return nullcontext() if dps is None else mp.workdps(dps)


def to_mpf(fr: Fraction):
    """Fraction -> mpf at the current precision."""
    if fr.denominator == 1:
        return mp.mpf(fr.numerator)
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def converter(field):
    """Fraction -> ``field``: float, Fraction, or mp.mpf at the current
    precision."""
    return {float: float, Fraction: Fraction}.get(field, to_mpf)


def _log10_fraction(fr: Fraction):
    return (fr.numerator.bit_length() - fr.denominator.bit_length()) * 0.30103


def _log10_mpf(x):
    """log10 |x| from the mantissa and exponent (-inf at 0); a float
    conversion overflows past 1e308."""
    _, man, exp, _ = x._mpf_
    return (math.log2(man) + exp) * math.log10(2) if man else -math.inf


def log10_range(net, edge_mask):
    """log10 of cmax/cmin over the window, from the exact conductances when
    an inf float mirror or a ratio past the float range has no finite one."""
    ec = net.ec[edge_mask]
    if len(ec) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = ec.max() / ec.min()
    if np.isfinite(ratio):
        return math.log10(ratio)
    idx = np.flatnonzero(edge_mask)
    logs = [_log10_fraction(net.exact_conductance(int(k))) for k in idx]
    return max(logs) - min(logs)


def log10_min(net, edge_mask):
    """log10 of the window's smallest conductance (0 with no edges)."""
    ec = net.ec[edge_mask]
    if len(ec) == 0:
        return 0.0
    if ec.min() > 0:
        return math.log10(ec.min())
    return min(_log10_fraction(net.exact_conductance(int(k)))
               for k in np.flatnonzero(edge_mask))


def auto_dps(net, edge_mask, n_unknowns):
    return 40 + int(log10_range(net, edge_mask) + 1) + \
        int(2 * math.log10(n_unknowns + 2))


def unknown_dps(window, g, edges, ceiling):
    """Each unknown's working precision in digits, for the mp system
    ``(g, edges)`` that ``grounded_system`` builds on ``window``:
    40 + log10(c_top / c_min) + 2 log10(n + 2), at most ``ceiling``, with
    c_top the largest of the unknown's conductances to the other unknowns
    and to the held vertices, c_min the window's smallest conductance and n
    its vertex count. The unknown that carries the window's largest
    conductance gets ``auto_dps``."""
    u, v, c = edges
    top = np.array([_log10_mpf(x) for x in g], dtype=float)
    logc = np.array([_log10_mpf(x) for x in c], dtype=float)
    np.maximum.at(top, u, logc)
    np.maximum.at(top, v, logc)
    spread = np.maximum(top - log10_min(window.net, window.edge_mask), 0.0)
    tail = int(2 * math.log10(len(window.vertices) + 2))
    return np.minimum(40 + (spread + 1).astype(np.int64) + tail, ceiling)


class FractionField:
    number = Fraction
    zero = Fraction(0)
    dps = None


class MPField:
    number = mp.mpf

    def __init__(self, dps):
        self.dps = dps
        self.zero = mp.mpf(0)


def ranks(mask):
    """The positions where ``mask`` holds, and each one's rank among them
    (undefined at the other positions)."""
    at = np.flatnonzero(mask)
    rank = np.empty(len(mask), dtype=np.int64)
    rank[at] = np.arange(len(at))
    return at, rank


def merged(u, v, c, m):
    """Edges u < v sorted by (u, v), with the conductances of repeats added
    in their given order."""
    key = u * m + v
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        key, u, v, c = key[order], u[order], v[order], c[order]
        first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        if len(first) < len(key):
            u, v, c = u[first], v[first], np.add.reduceat(c, first)
    return u, v, c


def grounded_system(window, held, rhs, field):
    """The window's Laplace system with the ``held`` vertices grounded at 0,
    in the form both solve lanes eliminate.

    Returns ``(live, g, (u, v, c), b)``. ``live`` holds the window positions
    of the unknowns, the window vertices that are not held (held vertices
    outside the window are ignored), in ascending order; the unknowns are
    numbered by their place in it. ``g`` is each unknown's conductance to the
    held vertices, summed in window-edge order. ``(u, v, c)`` are the edges
    between unknowns, u < v, sorted, with parallel edges added. ``b`` is the
    right-hand side ``rhs`` (vertex -> number) at the unknowns. Everything
    is in ``field``; an rhs vertex outside the window raises.
    """
    from .energy import window_edges
    verts = window.vertices
    held = np.asarray(held, dtype=np.int64).reshape(-1)
    held = held[(held >= 0) & (held < len(window.mask))]
    unknown = np.ones(len(verts), dtype=bool)
    unknown[np.searchsorted(verts, held[window.mask[held]])] = False
    outside = [v for v in rhs if v not in window]
    if outside:
        raise InvalidParameters(f"rhs vertex {outside[0]} is outside the window")
    live, rank = ranks(unknown)
    conv = converter(field)
    zero = conv(Fraction(0))
    dtype = float if field is float else object
    b = np.full(len(verts), zero, dtype=dtype)
    b[np.searchsorted(verts, list(rhs))] = [conv(Fraction(v))
                                            for v in rhs.values()]
    c, ea, eb = window_edges(window, field)
    ua, ub = unknown[ea], unknown[eb]
    one = np.flatnonzero(ua != ub)
    g = np.full(len(live), zero, dtype=dtype)
    np.add.at(g, rank[np.where(ua[one], ea[one], eb[one])], c[one])
    both = np.flatnonzero(ua & ub)
    return live, g, merged(rank[ea[both]], rank[eb[both]], c[both],
                           len(live)), b[live]


def hi_solve(net, window, rhs, dirichlet_zero=(), pin=None, field=None):
    """Solve the window Laplacian system in the requested scalar field.

    Parameters
    ----------
    net : Network
    window : SubgraphView
        Edges with both endpoints inside define the operator (free semantics);
        vertices listed in ``dirichlet_zero`` are held at 0 and excluded from
        the unknowns (wired semantics); ``pin`` fixes one vertex at 0 for the
        otherwise-singular free system.
    rhs : dict vertex -> number, every vertex inside the window
    field : FractionField or MPField. An MPField's ``dps`` is the precision
        the system is built at and the ceiling of each unknown's
        ``unknown_dps``; mpmath's precision is restored on return.

    Returns the solution over ``window.vertices`` as an object array, 0 at
    the held vertices, as the float64 lane's ``solver._solve_float64`` does.
    """
    held = list(dirichlet_zero) + ([] if pin is None else [pin])
    with workdps(field.dps):
        return _eliminate(net, window, held, rhs, field)


def _eliminate(net, window, held, rhs, field):
    live, g, (u, v, c), b = grounded_system(window, held, rhs, field.number)
    verts = window.vertices[live]
    order = np.lexsort((verts, net.level[verts]))[::-1]
    n = len(order)
    # each unknown's precision in bits, in elimination order (mp only)
    bits = ([] if field.dps is None else
            [dps_to_prec(p) for p in
             unknown_dps(window, g, (u, v, c), field.dps)[order].tolist()])

    # row k holds the conductances c_kj to the unknowns j > k; g[k] is the
    # conductance from k to the window vertices held at 0
    at = np.empty(n, dtype=np.int64)
    at[order] = np.arange(n)
    cond = [{} for _ in range(n)]
    for i, j, cij in zip(at[u].tolist(), at[v].tolist(), c):
        cond[min(i, j)][max(i, j)] = cij
    del c
    g = g[order].tolist()
    x = b[order].tolist()

    # eliminate k at its own precision: pivot d_k = g_k + sum_j c_kj; each
    # neighbour i > k gains t_i = c_ik / d_k times row k, its conductance to
    # 0 and its rhs
    weights = [None] * n
    prec = None
    for k in range(n):
        if bits and bits[k] != prec:
            mp.mp.prec = prec = bits[k]
        row = sorted(cond[k].items())
        gk = piv = g[k]
        for _, c in row:
            piv = piv + c
        if not piv:
            raise SingularSystem("zero pivot; window may be disconnected")
        r = 1 / piv
        ts = [(i, c * r) for i, c in row]
        bk = x[k]
        for a, (i, t) in enumerate(ts):
            if gk:
                g[i] = g[i] + t * gk
            if bk:
                x[i] = x[i] + t * bk
            ci = cond[i]
            for j, c in row[a + 1:]:
                old = ci.get(j)
                ci[j] = t * c if old is None else old + t * c
        if bk:
            x[k] = bk * r
        weights[k] = ts
        cond[k] = g[k] = None

    # back-substitution, each x_k at its own precision: x_k = b_k / d_k +
    # sum_j t_kj x_j; each row's weights are freed once used, so they never
    # coexist with all of x
    for k in range(n - 1, -1, -1):
        if bits and bits[k] != prec:
            mp.mp.prec = prec = bits[k]
        s = x[k]
        for j, t in weights[k]:
            s = s + t * x[j]
        x[k] = s
        weights[k] = None

    sol = np.full(len(window.vertices), field.zero, dtype=object)
    sol[live[order]] = x
    return sol
