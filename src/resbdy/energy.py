"""Dirichlet energy form, graph Laplacian, subgraph boundaries, normal derivatives.

All evaluations happen on a finite window (a :class:`SubgraphView`): sums run
over edges with both endpoints in the window, and the edges that leave it are
reported separately as the window defect so convergence drivers can monitor
truncation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import _hifi
from .errors import DomainMismatch, MissingNeighborValue, NotBoundaryVertex
from .network import Network


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
        self.interior = np.flatnonzero(self.mask & ~bd_mask)
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

    def is_interior(self, x):
        """Whether vertex id x lies in int H."""
        return x in self and not self.bd_mask[x]

    def __repr__(self):
        return (f"SubgraphView(|H|={len(self.vertices)}, |bd|={len(self.bd)}, "
                f"|int|={len(self.interior)})")


# -- edge sums ----------------------------------------------------------------
#
# Every window quantity is one of two sums over the window's edges: the energy
# form and the window Laplacian. Both run in the field of the values they are
# given: float64 arrays, or object arrays of mpf or Fraction, which add term by
# term in edge order.


def window_edges(window, field=float):
    """(c, a, b) over the window's edges: conductances in ``field`` and both
    endpoints as positions in ``window.vertices``.

    float gives the float64 mirror ``ec``, Fraction the exact conductances,
    and mp.mpf each exact conductance converted once, at the current mpmath
    precision.
    """
    net = window.net
    edges = np.flatnonzero(window.edge_mask)
    pos = np.empty(net.n, dtype=np.int64)
    pos[window.vertices] = np.arange(len(window.vertices))
    if field is float:
        c = net.ec[edges]
    else:
        conv = _hifi.converter(field)
        c = np.empty(len(edges), dtype=object)
        c[:] = [conv(net.exact_conductance(k)) for k in edges.tolist()]
    return c, pos[net.ei[edges]], pos[net.ej[edges]]


def field_of(values):
    """The number type of window values: float, Fraction or mp.mpf."""
    return float if values.dtype != object else type(values.flat[0])


def _blocks(values, n):
    """Slices over n edges: one block for float64 values; blocks of 1024 for
    object arrays, so that only one block's high-precision intermediates are
    alive at a time."""
    step = 1024 if values.dtype == object else max(n, 1)
    return (slice(s, s + step) for s in range(0, n, step))


def edge_energy(c, a, b, u, v):
    """sum over edges of c (u_a - u_b)(v_a - v_b)."""
    total = 0
    for s in _blocks(u, len(a)):
        du = u[a[s]] - u[b[s]]
        dv = du if v is u else v[a[s]] - v[b[s]]
        total = np.sum(c[s] * du * dv, initial=total)
    return total


def edge_laplacian(c, a, b, u):
    """(Lap u) at every window position.

    Edge by edge, the flow c (u_a - u_b) is added at a, then taken at b.
    """
    out = np.zeros(len(u), dtype=u.dtype)
    for s in _blocks(u, len(a)):
        flow = c[s] * (u[a[s]] - u[b[s]])
        np.add.at(out, np.column_stack((a[s], b[s])).ravel(),
                  np.column_stack((flow, -flow)).ravel())
    return out


@dataclass
class Potential:
    """Real-valued function on the vertices of a window, pinned at the origin.

    ``w`` holds the values on ``window.vertices`` in the field they were
    formed in: a float64 array, or an object array of mp.mpf (formed at
    ``dps`` digits) or of Fraction (``dps`` None). It is the only copy: ``at``
    reads it as float64 by vertex id, and a read outside the window raises
    DomainMismatch.
    """

    window: SubgraphView
    w: np.ndarray
    pinned: bool = True
    dps: object = None

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
    """vertex -> value for a Potential, a dict, or a callable."""
    if isinstance(values, Potential):
        return values.value
    if isinstance(values, dict):
        return lambda v: values[v]
    return values


def potential_difference(u: Potential, v: Potential) -> Potential:
    """u - v on their common window, formed at the solves' precision."""
    w = _common_window(u, v)
    dps = max((d for d in (u.dps, v.dps) if d is not None), default=None)
    with _hifi.workdps(dps):
        return Potential(w, u.w - v.w, pinned=u.pinned and v.pinned, dps=dps)


def potential_from_values(net, mapping, window=None, pinned=False):
    """Build a float64 Potential from a dict or array of vertex values."""
    window = window or net.full_view()
    vals = np.zeros(net.n)
    if isinstance(mapping, dict):
        for v, x in mapping.items():
            vals[v] = x
    else:
        arr = np.asarray(mapping, dtype=np.float64)
        vals[: len(arr)] = arr
    w = vals[window.vertices]
    if pinned:
        w -= vals[net.origin]
    return Potential(window, w, pinned=pinned)


def delta(net, x, window=None):
    """Dirac mass at x as a Potential (not pinned; its class in H_E is what counts)."""
    window = window or net.full_view()
    return Potential(window, (window.vertices == x).astype(float), pinned=False)


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
    of the common window. Symmetric, bilinear, and nonnegative on u = v.
    When both potentials hold mp or Fraction values the edge sum runs in
    that field (mp values at ``EDGE_SUM_DPS``): float64 products c (du)(dv)
    lose all digits once the window's conductances span more than ~1e15.
    Otherwise it runs in float64, over each ``w`` read as float64.
    """
    w = _common_window(u, v)
    if u.w.dtype == object and v.w.dtype == object:
        return float(_energy_hi(u, v, w))
    # a float64 w passes through astype uncopied: v is u keeps uw is vw
    uw, vw = u.w.astype(float, copy=False), v.w.astype(float, copy=False)
    return float(_window_energy(w, uw, vw))


def _energy_hi(u: Potential, v: Potential, w):
    with _hifi.workdps(_hifi.EDGE_SUM_DPS):
        return _window_energy(w, u.w, v.w)


def _window_energy(w, u, v):
    return edge_energy(*window_edges(w, field_of(u)), u, v)


@dataclass
class WindowDefect:
    """Telemetry for edges excluded by a finite window."""

    excluded_edges: int
    excluded_conductance: float
    boundary_flux: float

    def to_dict(self):
        return asdict(self)


def window_defect(u: Potential) -> WindowDefect:
    """Quantify what the window truncation leaves out, in the field of u.w."""
    w, net = u.window, u.net
    half_in = w.mask[net.ei] ^ w.mask[net.ej]
    # boundary flux: window-restricted Laplacian at boundary vertices
    with _hifi.workdps(_hifi.EDGE_SUM_DPS if u.w.dtype == object else None):
        lap = edge_laplacian(*window_edges(w, field_of(u.w)), u.w)
        flux = float(np.sum(np.abs(lap[w.bd_mask[w.vertices]])))
    return WindowDefect(
        excluded_edges=int(np.sum(half_in)),
        excluded_conductance=float(np.sum(net.ec[half_in])),
        boundary_flux=flux,
    )


def laplacian(v: Potential, at: int) -> float:
    """(Lap v)(x) = sum_{y ~ x} c_xy (v(x) - v(y)).

    Requires every neighbor of ``at`` to be materialized and inside the
    potential's window.
    """
    net = v.net
    if net.frontier_mask[at]:
        raise MissingNeighborValue(f"vertex {at} is on the materialization frontier")
    nbrs, conds = net.neighbors(at)
    if not np.all(v.window.mask[nbrs]):
        raise MissingNeighborValue(f"a neighbor of {at} lies outside the window")
    return float(np.sum(conds * (v.at(at) - v.at(nbrs))))


def dirac_pairing(u: Potential, at: int) -> float:
    """energy(delta_at, u): equals laplacian(u, at) by the summation-by-parts identity.

    Kept as a genuinely independent evaluation route (edge sum against the
    Dirac mass), used to cross-check the Laplacian.
    """
    d = delta(u.net, at, window=u.window)
    return energy(d, u)


def normal_derivative(v: Potential, H: SubgraphView, at: int) -> float:
    """Sum of c_xy (v(x) - v(y)) over neighbors y of x that lie inside H.

    Defined for x in bd H; for interior x it would equal the full Laplacian.
    """
    if not H.bd_mask[at]:
        raise NotBoundaryVertex(f"vertex {at} is not in bd H")
    nbrs, conds = v.net.neighbors(at)
    inside = H.mask[nbrs]
    return float(np.sum(conds[inside] * (v.at(at) - v.at(nbrs[inside]))))
