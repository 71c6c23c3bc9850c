"""High-precision linear-solve lane.

Pinned free systems on networks with geometrically growing conductances are
numerically singular in float64 once the window's conductance dynamic range
passes ~1e12 (the finite-energy harmonic direction shrinks the scaled spectrum
like 1/sum c(x)). This lane runs field-generic Gaussian elimination over
either exact rationals (Fraction) or mpmath floats whose working precision is
chosen from the window's dynamic range, so deep windows stay meaningful.

The elimination never subtracts (the GTH elimination: Grassmann, Taksar &
Heyman, Oper. Res. 33, 1985; O'Cinneide, Numer. Math. 65, 1993). Each unknown
keeps its conductances to the other unknowns and its conductance to the
vertices held at 0, all >= 0, and its pivot is their sum. Eliminating an
unknown adds nonnegative multiples of its row to its neighbours' rows, with
one reciprocal per column, and back-substitution x_k = b_k / d_k +
sum_j t_kj x_j only adds. The right-hand side's positive and negative parts
are carried apart and subtracted once, at the end. With a right-hand side of
one sign (a free dipole pinned at o, any monopole) every entry of the
solution is therefore right to a few units in the last place, whatever the
condition number; with both signs, each entry's error is a few units in the
last place of the sum of the two parts there.

The working precision still grows with log10(c_max/c_min) (``auto_dps``),
because what is computed from a solution needs it: each edge term
c (v(x) - v(y)) carries the potential's absolute error times c, so energies
and residuals lose about log10(c_max) digits against the potential's values.

Unknowns are eliminated far-to-near (descending level), which keeps layered
families banded. Row k holds only its entries to the unknowns after k, so
each column touches only its own neighbours and elimination costs
O(nnz + fill).

mpmath's precision is scoped to each step and never left changed: a solve
runs at its field's precision, and edge sums over hi values run at
``EDGE_SUM_DPS``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import SingularSystem


# Edge sums over hi values (energies, Laplacian residuals, boundary sums) run
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


def _log10_fraction(fr: Fraction):
    return (fr.numerator.bit_length() - fr.denominator.bit_length()) * 0.30103


def log10_range(net, edge_mask):
    """log10 of cmax/cmin over the window, robust to an inf float mirror."""
    ec = net.ec[edge_mask]
    if len(ec) == 0:
        return 0.0
    if np.all(np.isfinite(ec)):
        return math.log10(ec.max() / ec.min())
    idx = np.flatnonzero(edge_mask)
    logs = [_log10_fraction(net.exact_conductance(int(k))) for k in idx]
    return max(logs) - min(logs)


def auto_dps(net, edge_mask, n_unknowns):
    return 40 + int(log10_range(net, edge_mask) + 1) + \
        int(2 * math.log10(n_unknowns + 2))


class FractionField:
    number = Fraction
    zero = Fraction(0)
    dps = None

    @staticmethod
    def conv(fr: Fraction):
        return fr


class MPField:
    number = mp.mpf

    def __init__(self, dps):
        self.dps = dps
        self.zero = mp.mpf(0)

    conv = staticmethod(to_mpf)


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
    rhs : dict vertex -> number
    field : FractionField or MPField; run the solve inside
        ``workdps(field.dps)``.

    Returns a dict vertex -> field value covering the window.
    """
    zero = field.zero
    drop = set(int(v) for v in dirichlet_zero)
    unknown = [int(v) for v in window.vertices if v not in drop and v != pin]
    lvl = net.level
    unknown.sort(key=lambda v: (lvl[v], v), reverse=True)
    pos = {v: i for i, v in enumerate(unknown)}
    n = len(unknown)

    # row k holds the conductances c_kj to the unknowns j > k; g[k] is the
    # conductance from k to the window vertices held at 0 (the Dirichlet set
    # and the pin)
    from .energy import window_edges
    cond = [{} for _ in range(n)]
    g = [zero] * n
    at = np.array([pos.get(v, -1) for v in window.vertices.tolist()])
    conds, a, b = window_edges(window, field.number)
    for i, j, c in zip(at[a].tolist(), at[b].tolist(), conds):
        if i < 0 and j < 0:
            continue
        if i < 0 or j < 0:
            m = max(i, j)
            g[m] = g[m] + c
            continue
        if i > j:
            i, j = j, i
        old = cond[i].get(j)
        cond[i][j] = c if old is None else old + c
    del conds

    # the right-hand side's positive and negative parts, eliminated apart
    parts = [[zero] * n, [zero] * n]
    for v, val in rhs.items():
        i = pos.get(int(v))
        if i is not None and val:
            fr = Fraction(val)
            parts[1 if fr < 0 else 0][i] = field.conv(abs(fr))
    if not any(parts[1]):
        del parts[1]

    # eliminate k: pivot d_k = g_k + sum_j c_kj; each neighbour i > k gains
    # t_i = c_ik / d_k times row k, its conductance to 0 and its rhs
    weights = [None] * n
    for k in range(n):
        row = sorted(cond[k].items())
        gk = piv = g[k]
        for _, c in row:
            piv = piv + c
        if not piv:
            raise SingularSystem("zero pivot; window may be disconnected")
        r = 1 / piv
        ts = [(i, c * r) for i, c in row]
        for a, (i, t) in enumerate(ts):
            if gk:
                g[i] = g[i] + t * gk
            for p in parts:
                if p[k]:
                    p[i] = p[i] + t * p[k]
            ci = cond[i]
            for j, c in row[a + 1:]:
                old = ci.get(j)
                ci[j] = t * c if old is None else old + t * c
        for p in parts:
            if p[k]:
                p[k] = p[k] * r
        weights[k] = ts
        cond[k] = g[k] = None

    # back-substitution adds only: x_k = b_k / d_k + sum_j t_kj x_j; each
    # row's weights are freed once used, so they never coexist with all of x
    for k in range(n - 1, -1, -1):
        for x in parts:
            s = x[k]
            for j, t in weights[k]:
                s = s + t * x[j]
            x[k] = s
        weights[k] = None
    x = parts[0]
    if len(parts) > 1:
        for k, m in enumerate(parts[1]):
            x[k] = x[k] - m

    sol = {v: x[pos[v]] for v in unknown}
    for v in drop:
        if window.mask[v]:
            sol[v] = zero
    if pin is not None:
        sol[pin] = zero
    return sol
