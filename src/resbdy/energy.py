"""Dirichlet energy form, graph Laplacian, subgraph boundaries, normal derivatives.

All evaluations happen on a finite window (a :class:`SubgraphView`): sums run
over edges with both endpoints in the window, and the edges that leave it are
reported separately as the window defect so convergence drivers can monitor
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
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

    @property
    def n_inside(self):
        return len(self.vertices)

    def is_boundary(self, x):
        return bool(self.bd_mask[x])

    def __contains__(self, x):
        return bool(self.mask[x])

    def __repr__(self):
        return (f"SubgraphView(|H|={len(self.vertices)}, |bd|={len(self.bd)}, "
                f"|int|={len(self.interior)})")


@dataclass
class Potential:
    """Real-valued function on the vertices of a window, pinned at the origin.

    ``values`` spans the whole ambient network for indexing convenience;
    entries outside ``window`` are zero filler and carry no meaning. When the
    high-precision lane produced the solution, ``hi`` holds exact/mp values
    aligned with ``window.vertices``, and ``dps`` the precision (digits) at
    which mp values were formed (None for Fraction values).
    """

    net: Network
    values: np.ndarray
    window: SubgraphView
    pinned: bool = True
    hi: object = None
    dps: object = None

    def value(self, x):
        if not self.window.mask[x]:
            raise DomainMismatch(f"vertex {x} lies outside this potential's window")
        return float(self.values[x])

    def hi_value(self, x):
        if self.hi is None:
            return self.value(x)
        pos = np.searchsorted(self.window.vertices, x)
        return self.hi[pos]

    def pinned_copy(self):
        off = self.values[self.net.origin]
        vals = self.values.copy()
        vals[self.window.vertices] -= off
        hi = None
        if self.hi is not None:
            o_pos = np.searchsorted(self.window.vertices, self.net.origin)
            with _hifi.workdps(self.dps):
                hi = [v - self.hi[o_pos] for v in self.hi]
        return Potential(self.net, vals, self.window, pinned=True, hi=hi,
                         dps=self.dps)

    def to_rows(self):
        """(vertex_index, value) rows restricted to the window."""
        return [(int(v), float(self.values[v])) for v in self.window.vertices]


def potential_difference(u: Potential, v: Potential) -> Potential:
    """u - v on their common window; hi values are formed at the solves' precision."""
    w = _common_window(u, v)
    hi = dps = None
    if u.hi is not None and v.hi is not None:
        dps = max((d for d in (u.dps, v.dps) if d is not None), default=None)
        with _hifi.workdps(dps):
            hi = [a - b for a, b in zip(u.hi, v.hi)]
    return Potential(u.net, u.values - v.values, w, pinned=u.pinned and v.pinned,
                     hi=hi, dps=dps)


def potential_from_values(net, mapping, window=None, pinned=False):
    """Build a Potential from a dict or array of vertex values."""
    window = window or net.full_view()
    vals = np.zeros(net.n)
    if isinstance(mapping, dict):
        for v, x in mapping.items():
            vals[v] = x
    else:
        arr = np.asarray(mapping, dtype=np.float64)
        vals[: len(arr)] = arr
    p = Potential(net, vals, window, pinned=pinned)
    return p.pinned_copy() if pinned else p


def delta(net, x, window=None):
    """Dirac mass at x as a Potential (not pinned; its class in H_E is what counts)."""
    window = window or net.full_view()
    vals = np.zeros(net.n)
    vals[x] = 1.0
    return Potential(net, vals, window, pinned=False)


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
    When both potentials carry high-precision values the edge sum runs in
    that field (mp values at ``EDGE_SUM_DPS``): float64 products c (du)(dv)
    lose all digits once the window's conductances span more than ~1e15.
    """
    w = _common_window(u, v)
    if u.hi is not None and v.hi is not None:
        return float(_energy_hi(u, v, w))
    ei, ej, ec = u.net.ei, u.net.ej, u.net.ec
    m = w.edge_mask
    du = u.values[ei[m]] - u.values[ej[m]]
    dv = v.values[ei[m]] - v.values[ej[m]]
    return float(np.sum(ec[m] * du * dv))


def _energy_hi(u: Potential, v: Potential, w):
    net = u.net
    edges = np.flatnonzero(w.edge_mask)
    # hi values are aligned with the sorted window vertices
    pa = np.searchsorted(w.vertices, net.ei[edges]).tolist()
    pb = np.searchsorted(w.vertices, net.ej[edges]).tolist()
    uh, vh = u.hi, v.hi
    as_fraction = isinstance(uh[0], Fraction) and isinstance(vh[0], Fraction)
    with _hifi.workdps(_hifi.EDGE_SUM_DPS):
        acc = Fraction(0) if as_fraction else mp.mpf(0)
        for k, a, b in zip(edges.tolist(), pa, pb):
            c = net.exact_conductance(k)
            if not as_fraction:
                c = _hifi.to_mpf(c)
            du = uh[a] - uh[b]
            acc = acc + c * du * (du if vh is uh else vh[a] - vh[b])
    return acc


@dataclass
class WindowDefect:
    """Telemetry for edges excluded by a finite window."""

    excluded_edges: int
    excluded_conductance: float
    boundary_flux: float

    def to_dict(self):
        return {
            "excluded_edges": self.excluded_edges,
            "excluded_conductance": self.excluded_conductance,
            "boundary_flux": self.boundary_flux,
        }


def window_defect(u: Potential) -> WindowDefect:
    """Quantify what the window truncation leaves out for this potential."""
    w = u.window
    net = u.net
    half_in = w.mask[net.ei] ^ w.mask[net.ej]
    # boundary flux: window-restricted Laplacian at boundary vertices
    m = w.edge_mask
    ei, ej = net.ei[m], net.ej[m]
    signed = net.ec[m] * (u.values[ei] - u.values[ej])
    per_vertex = np.zeros(net.n)
    np.add.at(per_vertex, ei, signed)
    np.add.at(per_vertex, ej, -signed)
    flux = float(np.sum(np.abs(per_vertex[w.bd])))
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
    return float(np.sum(conds * (v.values[at] - v.values[nbrs])))


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
    return float(np.sum(conds[inside] * (v.values[at] - v.values[nbrs[inside]])))
