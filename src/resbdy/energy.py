"""Dirichlet energy form and the window Laplacian on subgraph windows.

All evaluations happen on a finite window (a :class:`SubgraphView`): sums run
over edges with both endpoints in the window. Every window quantity is a sum
of edge currents c (u(x) - u(y)), taken by ``edge_currents`` in one field:
mp and Fraction sums read the currents their solves carry, each right
relative to itself; float64 sums read a carried current as float64 and form
the others from the values. There is one Laplacian, ``window_laplacian``,
the divergence of those currents: Lap u on int H and the normal derivative
dn u on bd H, the two pieces of the Gauss-Green split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from mpmath import libmp

from .errors import DomainMismatch, InvalidParameters


class SubgraphView:
    """A vertex subset H of a network with its derived boundary and interior.

    bd H = {x in H : some neighbor of x lies outside H}; int H = H minus bd H.
    Vertices on the ambient network's frontier (unmaterialized neighborhoods)
    always count as boundary.
    """

    def __init__(self, net: Network, vertices):
        self.net = net
        vertices = np.array(vertices, dtype=np.int64).ravel()
        # ball and full views arrive sorted and duplicate-free
        if np.any(vertices[1:] <= vertices[:-1]):
            vertices = np.unique(vertices)
        self.vertices = vertices
        self.mask = np.zeros(net.n, dtype=bool)
        self.mask[vertices] = True
        in_i, in_j = self.mask[net.ei], self.mask[net.ej]
        # a vertex is on the boundary when one of its edges leaves H
        bd_mask = np.zeros(net.n, dtype=bool)
        bd_mask[net.ei[in_i & ~in_j]] = True
        bd_mask[net.ej[in_j & ~in_i]] = True
        bd_mask[net.frontier] |= self.mask[net.frontier]
        self.bd_mask = bd_mask
        self.bd = np.flatnonzero(bd_mask)
        self.edge_mask = in_i & in_j

    def __contains__(self, x):
        """Whether vertex id x lies in H; ids outside the network never do."""
        return 0 <= x < len(self.mask) and bool(self.mask[x])

    def index(self, ids):
        """Positions in ``vertices`` of vertex ids; DomainMismatch for any outside H."""
        ids = np.asarray(ids, dtype=np.int64)
        known = ids[(ids >= 0) & (ids < len(self.mask))]
        if known.size < ids.size or not np.all(self.mask[known]):
            bad = np.setdiff1d(ids, self.vertices).tolist()
            raise DomainMismatch(f"vertices {bad} lie outside the window")
        return self.vertices.searchsorted(ids)

    @cached_property
    def edge_index(self):
        """Each window edge's position in ``window_edges`` order, by edge id
        (one cumulative count of ``edge_mask``)."""
        return np.cumsum(self.edge_mask) - 1

    @property
    def interior(self):
        """int H, ascending, formed on each read."""
        return np.flatnonzero(self.mask & ~self.bd_mask)

    def is_interior(self, x):
        """Whether vertex id x lies in int H."""
        return x in self and not self.bd_mask[x]

    def __repr__(self):
        return (f"SubgraphView(|H|={len(self.vertices)}, |bd|={len(self.bd)}, "
                f"|int|={len(self.interior)})")


# -- edge sums ----------------------------------------------------------------
#
# Every window quantity is one of two sums over the window's edge currents:
# the energy form and the window Laplacian. ``edge_currents`` gives the
# currents of several potentials in one field, and both sums run in it:
# float64 arrays, or object arrays of mpf or Fraction. The Laplacian adds
# term by term in edge order; an mp energy, like every mp ``_product``, is
# formed exactly and rounded once.


def edge_ends(window):
    """(edges, a, b): the window's edge ids, ascending, and both endpoints
    of each as positions in ``window.vertices``."""
    net, verts = window.net, window.vertices
    edges = np.flatnonzero(window.edge_mask)
    a, b = net.ei[edges], net.ej[edges]
    # sorted distinct ids that end at len - 1 are 0, 1, ..., len - 1, each
    # its own position: every ball and full view, since ids follow BFS order
    if len(verts) and verts[-1] != len(verts) - 1:
        pos = np.empty(net.n, dtype=np.int64)
        pos[verts] = np.arange(len(verts))
        a, b = pos[a], pos[b]
    return edges, a, b


def window_edges(window, field=float):
    """(c, a, b) over the window's edges: their conductances in ``field``
    and both endpoints as positions in ``window.vertices``. float gives the
    float64 mirror ``ec``, Fraction the exact conductances, and an mpf type
    the exact conductances at its precision, each converted once per
    generator (or finite network), type and precision
    (``Network.exact_conductances``)."""
    edges, a, b = edge_ends(window)
    if field is float:
        return window.net.ec[edges], a, b
    c = np.empty(len(edges), dtype=object)
    c[:] = window.net.exact_conductances(edges, field)
    return c, a, b


def field_of(values):
    """The number type of window values: float, Fraction or an mpf type."""
    return float if values.dtype != object else type(values.flat[0])


def _fdot(x):
    """The exact dot product ``fdot(a, b)`` of the context of x's mpf
    values, for lists a and b, or None when x is empty or holds no mpf.

    It is the context's ``fdot``, bit for bit. When every entry is an mpf
    it skips ``fdot``'s list of all exact products: the raw products go
    straight into ``libmp.mpf_sum``, rounded once at the context's
    precision as ``fdot`` rounds."""
    first = x.flat[0] if x.dtype == object and x.size else None
    ctx = getattr(first, "context", None)
    if ctx is None:
        return None

    def fdot(a, b):
        try:
            ra, rb = [p._mpf_ for p in a], [q._mpf_ for q in b]
        except AttributeError:
            return ctx.fdot(a, b)
        return ctx.make_mpf(libmp.mpf_sum(map(libmp.mpf_mul, ra, rb),
                                          *ctx._prec_rounding))
    return fdot


def _product(A, B):
    """A @ B for a matrix or vector and a vector, either side, in one field.

    In mp each entry is one exact dot product of the numbers' own context
    (``_fdot``): every product is exact and the sum is rounded once, at that
    precision (``libmp.mpf_sum`` drops a term lying more than twice the
    precision in bits below the running sum, where rounding after each term
    loses it from about the precision down). float64 and Fraction take
    ``@``: the same bits as before, or exact.
    """
    fdot = _fdot(B)
    if fdot is None or A.size == 0:
        return A @ B
    if B.ndim == 2:
        # x @ M is M^T @ x
        A, B = B.T, A
    b = B.tolist()
    if A.ndim == 1:
        return fdot(A.tolist(), b)
    out = np.empty(len(A), dtype=object)
    out[:] = [fdot(row, b) for row in A.tolist()]
    return out


def current_energy(c, i, j):
    """sum over edges of i j / c, for the currents i, j of two potentials.

    In mp each term rounds once, in j / c, and the sum once (``_product``);
    float64 and Fraction add term by term in edge order."""
    if _fdot(i) is None:
        return np.sum(i * j / c, initial=0)
    return _product(i, j / c)


def flow_laplacian(a, b, flow, n):
    """The divergence of the edge currents ``flow`` at n window positions:
    each current is added at a, then taken at b, edge by edge."""
    out = np.zeros(n, dtype=flow.dtype)
    np.add.at(out, np.column_stack((a, b)).ravel(),
              np.column_stack((flow, -flow)).ravel())
    return out


@dataclass
class Potential:
    """Real-valued function on the vertices of a window. The solves return
    the representative pinned at the origin, v(o) = 0; energies see only its
    class in H_E.

    ``w`` holds the values on ``window.vertices`` in the field they were
    formed in: a float64 array, or an object array of mpf or of Fraction.
    It is the only copy: ``at`` reads it as float64 by vertex id, and a read
    outside the window raises DomainMismatch. ``i`` holds the current
    c (w_a - w_b) on each window edge, in ``window_edges`` order, as the mp
    and Fraction solves carry it; it is None in the float64 lane, whose edge
    sums form the currents from the values.
    """

    window: SubgraphView
    w: np.ndarray
    i: np.ndarray = None

    @property
    def net(self) -> Network:
        return self.window.net

    def at(self, ids):
        """float64 values at a vertex id or an array of ids."""
        return np.asarray(self.w[self.window.index(ids)], dtype=float)

    def value(self, x):
        return float(self.at(x))

    def to_rows(self):
        """(vertex_index, value) rows restricted to the window."""
        return list(zip(self.window.vertices.tolist(),
                        np.asarray(self.w, dtype=float).tolist()))


def value_getter(values):
    """vertex -> value for a Potential or a callable."""
    if isinstance(values, Potential):
        return values.value
    return values


def potential_difference(u: Potential, v: Potential) -> Potential:
    """u - v on their common window, values and currents, formed in their
    field."""
    w = _common_window(u, v)
    i = None if u.i is None or v.i is None else u.i - v.i
    return Potential(w, u.w - v.w, i=i)


def _current(p: Potential, c, a, b):
    """p's current on every window edge, whose conductances are c and
    endpoints a, b (``window_edges``), in the field of c: the carried ``i``,
    or c (w_a - w_b) formed from the values."""
    if p.i is not None:
        return p.i.astype(c.dtype, copy=False)
    w = p.w.astype(c.dtype, copy=False)
    return c * (w[a] - w[b])


def edge_currents(window, *pots):
    """(c, a, b, currents): ``window_edges`` and each potential's current on
    every window edge, all in one field.

    When every potential holds mp or Fraction values that is their field,
    and the currents are the ones their solves carry; otherwise it is
    float64, where a carried current is read as float64 and the others are
    formed from the values. mp conductances come in the values' mpf type, so
    they and every sum over them carry its digits.
    """
    hi = all(p.w.dtype == object for p in pots)
    c, a, b = window_edges(window, field_of(pots[0].w) if hi else float)
    return c, a, b, [_current(p, c, a, b) for p in pots]


def window_laplacian(u: Potential):
    """The divergence of u's ``edge_currents`` at every position of u's
    window H, in their field: (Lap u)(x) = sum_{y ~ x} c_xy (u(x) - u(y)) at
    x in int H, and the normal derivative dn u(x), the same sum over the
    neighbours y inside H, at x in bd H."""
    _, a, b, (i,) = edge_currents(u.window, u)
    return flow_laplacian(a, b, i, len(u.w))


def potential_from_values(net, values, window=None, pinned=False):
    """Build a float64 Potential from an array of values at every vertex of
    the network; with ``pinned``, less the origin's value."""
    window = window or net.full_view()
    vals = np.asarray(values)
    if vals.shape != (net.n,):
        raise InvalidParameters(
            f"values need shape ({net.n},), one per vertex, not {vals.shape}")
    vals = vals.astype(np.float64, copy=False)
    w = vals[window.vertices]
    if pinned:
        w -= vals[net.origin]
    return Potential(window, w)


def _common_window(u: Potential, v: Potential):
    if u.net is not v.net:
        raise DomainMismatch("potentials live on different networks")
    if u.window is not v.window and not np.array_equal(u.window.vertices,
                                                       v.window.vertices):
        raise DomainMismatch("potentials live on different windows")
    return u.window


def energy(u: Potential, v: Potential) -> float:
    """Dirichlet form (1/2) sum_x sum_y c_xy (u(x)-u(y))(v(x)-v(y)).

    The double sum counts every edge twice, so this evaluates once per edge
    of the common window, as the sum of i_u i_v / c over the potentials'
    ``edge_currents``. When both hold mp or Fraction values it runs in that
    field, mp at the precision its numbers carry (``EDGE_SUM_DPS`` digits
    from the mp lane): products c (du)(dv) formed from values lose all
    digits once the window's conductances span more than ~1e15. Otherwise it
    runs in float64. Symmetric, bilinear, and nonnegative on u = v.
    """
    return float(_energy_hi(u, v, _common_window(u, v)))


def _energy_hi(u: Potential, v: Potential, w):
    # v is u forms its currents once
    c, _, _, i = edge_currents(w, *((u,) if v is u else (u, v)))
    return current_energy(c, i[0], i[-1])
