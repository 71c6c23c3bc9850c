"""High-precision linear-solve lane.

At lane 'auto', ``solver.pick_lane`` sends a window here when the ratio of
its largest to its smallest float64 conductance passes
``DYNAMIC_RANGE_GUARD`` (1e10), or when its float64 mirror ``Network.ec``
holds an inf; the float64 rounds take every other window. What a wide range
defeats is not float64 precision. The rounds return values without
currents, and a current formed from two values carries their error times c,
so the small currents of a wide range lose their digits; carried through
this module's loop far-to-near, currents at 53 bits stay right to 1.2e-13
relative to themselves (ROADMAP E8). What float64 lacks is exponent range:
the mirror, and a loop in floats, overflow past 1e308 (E13). This lane
eliminates over exact rationals (Fraction) or mpmath floats at one fixed
precision, ``EDGE_SUM_DPS`` digits, whatever that range.

Both solve lanes take one system from ``grounded_system``, in the form they
eliminate: the window's vertices that are not held at 0 are the unknowns,
each with its conductance g to the held vertices, the edges between unknowns
merged, and the right-hand side signed. This lane eliminates the unknowns one
at a time, far-to-near (descending level, which keeps layered families
banded); ``solver._solve_float64`` eliminates in vectorized rounds.

The elimination never subtracts (the GTH elimination: Grassmann, Taksar &
Heyman, Oper. Res. 33, 1985; O'Cinneide, Numer. Math. 65, 1993). Each unknown
keeps its conductances to the later unknowns and to the vertices held at 0,
all >= 0, and its pivot is their sum; eliminating it adds nonnegative
multiples of its row to its neighbours' rows, and back-substitution
x_k = b_k / d_k + sum_j t_kj x_j adds terms of one sign. With a right-hand
side of one sign (a free dipole pinned at o, any monopole) every entry is
therefore right to a few units in the last place, whatever the condition
number. Elimination costs O(nnz + fill).

What is computed from a solution is a sum of edge currents c (x_a - x_b),
and a current formed from two values carries their error times c. So
back-substitution also carries the difference across every pair of an
eliminated row (see ``hi_solve``), at the cost of the sum of the squared row
lengths, and the solve returns the current on every window edge, right
relative to itself: against a solve at twice the precision on ladder(5, 1),
off by at most 1.2e-49 at radius 300 and 1.3e-48 at radius 2500
(conductances up to 5^2500).

Precision belongs to the numbers. An ``MPField`` makes its mpf values from a
private mpmath context at its digit count, one context per count, so every
mpf the lane forms (solve values, currents, converted conductances and
whatever is computed from them) rounds at that precision whatever
``mpmath.mp.dps`` is. The library never reads or writes ``mpmath.mp``. An
operation between mpf values of two contexts runs at the precision of the
left operand's.

The elimination, back-substitution and current assembly run on raw numbers,
in each field's own arithmetic (``add``, ``sub``, ``mul``, ``neg``,
``inv``). A Fraction is its own raw number, with Python's operators. An mpf's
raw number is its ``_mpf_`` tuple, and the field calls the libmp functions
that mpf's own operators call (``mpf_add``, ``mpf_sub``, ``mpf_mul``,
``mpf_neg``, and ``mpf_rdiv_int`` for ``1 / x``) at its context's precision,
rounding to nearest, as those operators do for two operands of one context.
So every value and current keeps the bits the operators would give, without
their per-call type dispatch and object creation: g, b and the conductances
are unwrapped once, and the values and currents are wrapped once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath import libmp

from .energy import window_edges
from .errors import InvalidParameters, SingularSystem


# The mp lane's one precision, in digits: solves, the edge sums over their
# currents (energies, Laplacian residuals, boundary sums) and the ONB.
EDGE_SUM_DPS = 50


def to_mpf(fr: Fraction, mpf):
    """Fraction -> the mpf type ``mpf``, rounded at its precision."""
    if fr.denominator == 1:
        return mpf(fr.numerator)
    return mpf(fr.numerator) / mpf(fr.denominator)


class FractionField:
    """Exact rationals. A Fraction is its own raw number, and the arithmetic
    is Python's operators."""

    number = Fraction
    zero = Fraction(0)
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg

    @staticmethod
    def inv(x):
        return 1 / x

    @staticmethod
    def unwrap(values):
        return list(values)

    @staticmethod
    def wrap(raw):
        return raw


@lru_cache(maxsize=None)
def _context(dps):
    ctx = mp.MPContext()
    ctx.dps = dps
    return ctx


class MPField:
    """mpf values at ``dps`` digits, from a private context shared by every
    field of that digit count. Its raw numbers are ``_mpf_`` tuples, and its
    arithmetic on them rounds as the context's mpf operators do."""

    def __init__(self, dps):
        self.dps = dps
        ctx = _context(dps)
        self.number = ctx.mpf
        self.zero = libmp.fzero
        prec, rnd = ctx.prec, libmp.round_nearest
        add, sub, mul = libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul
        neg, rdiv = libmp.mpf_neg, libmp.mpf_rdiv_int
        self.add = lambda a, b: add(a, b, prec, rnd)
        self.sub = lambda a, b: sub(a, b, prec, rnd)
        self.mul = lambda a, b: mul(a, b, prec, rnd)
        self.neg = lambda a: neg(a, prec, rnd)
        self.inv = lambda a: rdiv(1, a, prec, rnd)
        make = ctx.make_mpf
        self.wrap = lambda raw: [make(v) for v in raw]

    @staticmethod
    def unwrap(values):
        return [v._mpf_ for v in values]


def ranks(mask):
    """The positions where ``mask`` holds, and each one's rank among them
    (undefined at the other positions)."""
    at = np.flatnonzero(mask)
    rank = np.empty(len(mask), dtype=np.int64)
    rank[at] = np.arange(len(at))
    return at, rank


def merged(u, v, c, m):
    """Edges u < v sorted by (u, v), with the conductances of repeats added
    in their given order. Each sorted array replaces its input as it is
    formed, so arguments passed as expressions are freed along the way."""
    key = u * m + v
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.concatenate([[True], key[1:] != key[:-1]])
        del key
        u = u[order]
        v = v[order]
        c = c[order]
        del order
        if not first.all():
            first = np.flatnonzero(first)
            u = u[first]
            v = v[first]
            c = np.add.reduceat(c, first)
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
    verts = window.vertices
    held = np.asarray(held, dtype=np.int64).reshape(-1)
    held = held[(held >= 0) & (held < len(window.mask))]
    unknown = np.ones(len(verts), dtype=bool)
    unknown[np.searchsorted(verts, held[window.mask[held]])] = False
    outside = [v for v in rhs if v not in window]
    if outside:
        raise InvalidParameters(f"rhs vertex {outside[0]} is outside the window")
    live, rank = ranks(unknown)
    conv = {float: float, Fraction: Fraction}.get(
        field, lambda fr: to_mpf(fr, field))
    zero = conv(Fraction(0))
    dtype = float if field is float else object
    b = np.full(len(verts), zero, dtype=dtype)
    b[np.searchsorted(verts, list(rhs))] = [conv(Fraction(v))
                                            for v in rhs.values()]
    b = b[live]
    c, ea, eb = window_edges(window, field)
    ua, ub = unknown[ea], unknown[eb]
    one = np.flatnonzero(ua != ub)
    g = np.full(len(live), zero, dtype=dtype)
    np.add.at(g, rank[np.where(ua[one], ea[one], eb[one])], c[one])
    both = np.flatnonzero(ua & ub)
    del ua, ub, one
    # the edges between unknowns, each array replacing the window's
    ea = rank[ea[both]]
    eb = rank[eb[both]]
    c = c[both]
    del both, rank
    return live, g, merged(ea, eb, c, len(live)), b


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
    field : FractionField or MPField. The solve runs in its number type,
        an MPField's at its ``dps`` digits.

    Returns ``(x, i)``: the solution over ``window.vertices``, 0 at the
    held vertices, and the current c_e (x_a - x_b) on every window edge in
    ``energy.window_edges`` order, both as object arrays.
    """
    held = list(dirichlet_zero) + ([] if pin is None else [pin])
    live, g, (u, v, c), b = grounded_system(window, held, rhs, field.number)
    verts = window.vertices[live]
    order = np.lexsort((verts, net.level[verts]))[::-1]
    n = len(order)
    add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
    zero = field.zero

    # row k holds c_kj for the unknowns j > k in elimination order (elim,
    # -1 at held positions); g[k] is k's conductance to the held vertices
    elim = np.full(len(window.vertices), -1, dtype=np.int64)
    elim[live[order]] = np.arange(n)
    at = elim[live]
    cond = [{} for _ in range(n)]
    for i, j, cij in zip(at[u].tolist(), at[v].tolist(), field.unwrap(c)):
        cond[min(i, j)][max(i, j)] = cij
    g = field.unwrap(g[order])
    x = field.unwrap(b[order])

    # eliminate k: pivot d_k = g_k + sum_j c_kj; each neighbour i > k gains
    # t_i = c_ik / d_k times row k, its conductance to 0 and its rhs. Row k
    # keeps y_k = b_k / d_k in x[k] and q_k = g_k / d_k in g[k]
    weights = [None] * n
    for k in range(n):
        row = sorted(cond[k].items())
        gk = piv = g[k]
        for _, c in row:
            piv = add(piv, c)
        if piv == zero:
            raise SingularSystem("zero pivot; window may be disconnected")
        r = field.inv(piv)
        ts = [(i, mul(c, r)) for i, c in row]
        bk = x[k]
        for a, (i, t) in enumerate(ts):
            if gk != zero:
                g[i] = add(g[i], mul(t, gk))
            if bk != zero:
                x[i] = add(x[i], mul(t, bk))
            ci = cond[i]
            for j, c in row[a + 1:]:
                old = ci.get(j)
                ci[j] = mul(t, c) if old is None else add(old, mul(t, c))
        x[k], g[k] = mul(bk, r), mul(gk, r)
        weights[k] = ts
        cond[k] = None

    # back-substitution: x_k = y_k + sum_j t_kj x_j, and across each pair
    # (k, m) of row k the difference x_k - x_m = y_k - q_k x_m +
    # sum_{j != m} t_kj (x_j - x_m), since sum_j t_kj = 1 - q_k. Each pair
    # (j, m) is a pair of a later row, whose difference is already known.
    diff = [None] * n
    for k in range(n - 1, -1, -1):
        ts, y, q = weights[k], x[k], g[k]
        s = y
        for j, t in ts:
            s = add(s, mul(t, x[j]))
        dk = diff[k] = {}
        for m, _ in ts:
            d = sub(y, mul(q, x[m])) if q != zero else y
            for j, t in ts:
                if j < m:
                    d = add(d, mul(t, diff[j][m]))
                elif j > m:
                    d = sub(d, mul(t, diff[m][j]))
            dk[m] = d
        x[k] = s
        weights[k] = None

    # the current on each window edge: c_e times the carried difference
    # between two unknowns, or c_e x at an edge to a held vertex
    c, ea, eb = window_edges(window, field.number)
    cur = []
    for ce, p, q in zip(field.unwrap(c), elim[ea].tolist(), elim[eb].tolist()):
        if p < 0:
            cur.append(zero if q < 0 else neg(mul(ce, x[q])))
        elif q < 0:
            cur.append(mul(ce, x[p]))
        else:
            cur.append(mul(ce, diff[p][q]) if p < q
                       else neg(mul(ce, diff[q][p])))
    i = np.empty(len(c), dtype=object)
    i[:] = field.wrap(cur)
    sol = np.full(len(window.vertices), field.number(0), dtype=object)
    sol[live[order]] = field.wrap(x)
    return sol, i
