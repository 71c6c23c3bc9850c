"""High-precision linear-solve lane.

Pinned free systems on networks with geometrically growing conductances are
numerically singular in float64 once the window's conductance dynamic range
passes ~1e12 (the finite-energy harmonic direction shrinks the scaled spectrum
like 1/sum c(x)). This lane runs field-generic Gaussian elimination over
either exact rationals (Fraction) or mpmath floats whose working precision is
chosen from the window's dynamic range, so deep windows stay meaningful.

Elimination is sparse (dict rows) without pivoting; the systems are symmetric
M-matrices, whose Schur complements stay M-matrices, so pivots never vanish.
Unknowns are eliminated far-to-near (descending level), which keeps layered
families banded; a column-to-rows index makes each column visit only the rows
that hold an entry in it, so elimination costs O(nnz + fill).

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


def dynamic_range(net, edge_mask):
    ec = net.ec[edge_mask]
    if len(ec) == 0:
        return 1.0
    return float(ec.max() / ec.min())


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
    name = "fraction"
    zero = Fraction(0)
    dps = None

    @staticmethod
    def conv(fr: Fraction):
        return fr

    @staticmethod
    def to_float(x):
        return float(x)


class MPField:
    name = "mp"

    def __init__(self, dps):
        self.dps = dps
        self.zero = mp.mpf(0)

    conv = staticmethod(to_mpf)

    @staticmethod
    def to_float(x):
        return float(x)


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

    emask = window.edge_mask
    eidx = np.flatnonzero(emask)
    exact_c = {int(k): field.conv(net.exact_conductance(int(k))) for k in eidx}
    incident = {v: [] for v in unknown}
    inside = window.mask
    for k in eidx:
        a, b = int(net.ei[k]), int(net.ej[k])
        if a in pos:
            incident[a].append((b, exact_c[int(k)]))
        if b in pos:
            incident[b].append((a, exact_c[int(k)]))

    A = []
    bvec = []
    for v in unknown:
        row = {}
        tot = zero
        for w, c in incident[v]:
            if not inside[w]:
                continue
            tot = tot + c
            j = pos.get(w)
            if j is not None:
                row[j] = row.get(j, zero) - c
        row[pos[v]] = tot
        A.append(row)
        val = rhs.get(v, 0)
        bvec.append(field.conv(Fraction(val)) if val else zero)

    # rows[c] lists the rows r > c that hold an entry in column c; fill-in is
    # added as it is created, so each column visits only its own rows
    rows = [[] for _ in range(n)]
    for r, row in enumerate(A):
        for c in row:
            if c < r:
                rows[c].append(r)
    for col in range(n):
        piv = A[col].get(col, zero)
        if piv == 0:
            raise SingularSystem("zero pivot; window may be disconnected")
        pivot_row = [(c2, val) for c2, val in A[col].items() if c2 > col]
        for r in sorted(rows[col]):
            Ar = A[r]
            f = Ar.get(col)
            if not f:
                continue
            f = f / piv
            for c2, val in pivot_row:
                old = Ar.get(c2)
                if old is None:
                    Ar[c2] = zero - f * val
                    if c2 < r:
                        rows[c2].append(r)
                else:
                    Ar[c2] = old - f * val
            del Ar[col]
            bvec[r] = bvec[r] - f * bvec[col]
        rows[col] = None

    x = [zero] * n
    for r in range(n - 1, -1, -1):
        s = bvec[r]
        for c2, val in A[r].items():
            if c2 > r:
                s = s - val * x[c2]
        x[r] = s / A[r][r]

    sol = {v: x[pos[v]] for v in unknown}
    for v in drop:
        if window.mask[v]:
            sol[v] = zero
    if pin is not None:
        sol[pin] = zero
    return sol

