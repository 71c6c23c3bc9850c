"""Weighted connected graphs, example families, exhaustions, and vertex enumerations.

A :class:`Network` is always a finite, materialized object. Infinite families
are represented by generators that materialize balls lazily with stable vertex
indices, so the same vertex keeps the same index across calls with different
radii. All exhaustion limits are driven through such balls. A finite network
is its own source: its ``ball(r)`` is the network itself, so every driver
takes a generator or a ``Network`` alike.

Vertex indexing per family (deterministic, part of each object's identity):

* ``finite``: indices as given by the edge list.
* ``ladder(alpha, beta)``: rail vertex x_n -> 2n, rung partner y_n -> 2n+1.
  Rail conductances alpha^n between levels n-1 and n, rung conductances beta^n.
* ``geometric-half-line(alpha)``: vertex n -> n, conductance alpha^n on edge
  (n-1, n).
* ``integer-lattice(d)``: for d=1, 0 -> 0, +n -> 2n-1, -n -> 2n; for d >= 2,
  indices assigned in (graph distance, lexicographic coordinate) order.
* ``binary-tree``: heap order, children of k are 2k+1 and 2k+2, unit
  conductances.

Levels: every generated ball carries a per-vertex ``level`` array used by
exhaustions. For all families except the ladder, level equals graph distance
from the origin. The ladder uses the rung index n for both x_n and y_n, so
that level-k balls are the column truncations {x_0..x_k, y_0..y_k} of size
2(k+1). The ball of radius r >= 1 of every family holds the vertices of
level <= r, and its frontier is the vertices of level r.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._hifi import to_mpf
from .energy import SubgraphView
from .errors import (
    DisconnectedGraph,
    InvalidParameters,
    NonpositiveConductance,
    SelfLoop,
)


class Network:
    """Finite weighted graph with symmetric positive conductances and an origin.

    A network is its own source: ``ball(r)`` is the network itself. The CSR
    ``adjacency`` and the totals ``c_of`` are built on first read.

    Parameters
    ----------
    ei, ej, ec : arrays
        Edge endpoints (canonicalized to ei < ej) and conductances.
    origin : int
        Distinguished vertex o.
    level : array or None
        Exhaustion level per vertex (graph distance unless the family says
        otherwise). Computed by BFS when omitted.
    frontier : array or None
        Vertices whose neighborhoods are not fully materialized (outermost
        shell of a generated ball). Empty for complete finite networks.
    exact : sequence of Fraction, or callable edge_index -> Fraction, or None
        Exact conductances backing the high-precision solver lane. When None,
        exact values fall back to Fraction(float) per edge, which is still an
        exact representation of the stored float.
    names : list of str, or callable returning one, or None
        A name per vertex id; a callable is called when ``names`` is first
        read.
    """

    def __init__(self, ei, ej, ec, origin=0, level=None, frontier=None,
                 exact=None, names=None, family="finite"):
        ei = np.asarray(ei, dtype=np.int64)
        ej = np.asarray(ej, dtype=np.int64)
        ec = np.asarray(ec, dtype=np.float64)
        swap = ei > ej
        if np.any(swap):
            ei, ej = np.where(swap, ej, ei), np.where(swap, ei, ej)
        self.ei, self.ej, self.ec = ei, ej, ec
        self.n = int(max(ei.max(initial=-1), ej.max(initial=-1)) + 1) if len(ei) else 1
        self.origin = int(origin)
        self.family = family
        self._names = names
        self._exact = exact
        # conductance conversions, keyed by edge id; a generator's balls
        # share the generator's, keyed by endpoint pair (``_Family``)
        self._converted = {}
        self._pair_keys = False
        # +inf is tolerated as the float mirror of exactly-stored huge
        # conductances (deep geometric windows); nan and nonpositive are not
        if np.any(ec <= 0) or np.any(np.isnan(ec)):
            raise NonpositiveConductance("conductances must be positive")
        if np.any(np.isinf(ec)) and exact is None:
            raise NonpositiveConductance(
                "infinite conductance without exact backing values")
        if np.any(ei == ej):
            raise SelfLoop("c_xx = 0 is required; self-loops are not allowed")
        if level is None:
            from scipy.sparse import csgraph
            level = csgraph.shortest_path(self.adjacency, unweighted=True,
                                          indices=self.origin)
            if np.any(np.isinf(level)):
                raise DisconnectedGraph("every vertex must be reachable from the origin")
        self.level = np.asarray(level, dtype=np.int64)
        self.frontier = (np.asarray(frontier, dtype=np.int64)
                         if frontier is not None else np.empty(0, dtype=np.int64))
        self.frontier_mask = np.zeros(self.n, dtype=bool)
        self.frontier_mask[self.frontier] = True

    # -- structure (built on first read) -----------------------------------

    @cached_property
    def names(self):
        """The vertex names by id, or None."""
        names = self._names
        return names() if callable(names) else names

    @cached_property
    def adjacency(self):
        """Symmetric conductance matrix c_xy as CSR."""
        ei, ej, ec = self.ei, self.ej, self.ec
        return sp.coo_matrix(
            (np.concatenate([ec, ec]),
             (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
            shape=(self.n, self.n),
        ).tocsr()

    @cached_property
    def c_of(self):
        """Total conductance c(x) per vertex."""
        # accumulate in edge order so c(x) is bit-for-bit recomputable
        c_of = np.zeros(self.n)
        with np.errstate(over="ignore"):
            np.add.at(c_of, self.ei, self.ec)
            np.add.at(c_of, self.ej, self.ec)
        return c_of

    @cached_property
    def incident(self):
        """(start, edges): the ids of the edges at vertex x, ascending, are
        ``edges[start[x]:start[x + 1]]``. Parallel edges stay apart, as
        they are in ``ei, ej``."""
        ends = np.column_stack((self.ei, self.ej)).ravel()
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=start[1:])
        # entry 2k is edge k's first end, 2k + 1 its second
        return start, np.argsort(ends, kind="stable") // 2

    def laplacian(self):
        """Graph Laplacian as CSR, physics sign: (Lv)(x) = sum c_xy (v(x)-v(y))."""
        return (sp.diags(self.c_of) - self.adjacency).tocsr()

    def exact_conductance(self, k):
        if self._exact is None:
            return Fraction(float(self.ec[k]))
        if callable(self._exact):
            return self._exact(k)
        return self._exact[k]

    def exact_conductances(self, edges, field=Fraction):
        """The conductances of the edge ids ``edges`` in ``field``, Fraction
        or an mpf type at its context's precision, each formed when first
        asked for and kept in a memo keyed by type and precision (in one
        call, equal mpf values are one object). The precision is part of the
        key: a context's precision can change, mpmath's global one included.

        A finite network keys its own memo by edge id. The balls of a family
        generator share the generator's memo, keyed by the edge's endpoint
        pair (as one integer, ei * 2^32 + ej): vertex ids, and each edge's
        conductance, are the same in every ball of a generator.
        """
        edges = np.asarray(edges, dtype=np.int64)
        keys = (self.ei[edges] << 32 | self.ej[edges] if self._pair_keys
                else edges).tolist()
        type_key = field if field is Fraction else (field, field.context.prec)
        memo = self._converted.setdefault(type_key, {})
        shared = {}
        for k, key in zip(edges.tolist(), keys):
            if key not in memo:
                x = self.exact_conductance(k)
                if field is not Fraction:
                    x = to_mpf(x, field)
                    x = shared.setdefault(x._mpf_, x)
                memo[key] = x
        return [memo[key] for key in keys]

    @property
    def is_saturated(self):
        return len(self.frontier) == 0

    def ball(self, radius):
        """The ball of every radius >= 1; smaller balls are ``ball_view``s."""
        if radius < 1:
            raise InvalidParameters("radius must be >= 1")
        return self

    def full_view(self):
        return SubgraphView(self, np.arange(self.n))

    def ball_view(self, radius):
        return SubgraphView(self, np.flatnonzero(self.level <= radius))

    def __repr__(self):
        return (f"Network(family={self.family!r}, n={self.n}, "
                f"edges={len(self.ei)}, origin={self.origin})")


def build_finite(edge_list, origin=0):
    """Build a finite network from (i, j, conductance) triples.

    Parallel entries for the same unordered pair are merged by summing their
    conductances (conductors in parallel add). Raises SelfLoop, NonpositiveConductance,
    or DisconnectedGraph when the input violates the network invariants, and
    InvalidParameters for a conductance that is not a finite number (strings
    such as "1/3" are read as exact rationals) or an origin off the network.
    """
    merged = {}
    for i, j, c in edge_list:
        i, j = int(i), int(j)
        if i == j:
            raise SelfLoop(f"edge ({i},{i}) is a self-loop")
        try:
            cf = (Fraction(c) if isinstance(c, (Fraction, str))
                  else Fraction(float(c)))
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameters(
                f"edge ({i},{j}) has conductance {c!r}, not a finite number"
            ) from None
        if not cf > 0:
            raise NonpositiveConductance(f"edge ({i},{j}) has conductance {c}")
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, Fraction(0)) + cf
    keys = sorted(merged)
    if keys and not any(origin in k for k in keys):
        raise InvalidParameters(f"origin {origin} is not a vertex of the network")
    ei = [k[0] for k in keys]
    ej = [k[1] for k in keys]
    exact = [merged[k] for k in keys]
    ec = [float(v) for v in exact]
    return Network(ei, ej, ec, origin=origin, exact=tuple(exact), family="finite")


# -- generators -------------------------------------------------------------


def _finite(kind=numbers.Real, **params):
    """InvalidParameters unless every value in ``params`` is a ``kind``
    (numbers.Real or numbers.Integral) inside the float64 range; a bool is
    neither."""
    for name, value in params.items():
        try:
            ok = (isinstance(value, kind) and not isinstance(value, bool)
                  and math.isfinite(value))
        except OverflowError:  # an int past the float64 range
            ok = False
        if not ok:
            raise InvalidParameters(f"{name} must be a finite {kind.__name__.lower()}"
                                    f" number, got {value!r}")


class _Family:
    """What every family generator shares: its balls, built from the
    ``Network`` arguments its ``_ball(r)`` returns (ei, ej, ec, level, and
    exact and names, or a callable forming them, where the family has them),
    and one memo of converted conductances for all of them
    (``Network.exact_conductances``). The memo is no dataclass field, so a
    generator's equality, hash and repr ignore it."""

    @cached_property
    def _converted(self):
        return {}

    def ball(self, radius):
        """The vertices of level <= radius, with origin 0. The frontier is
        the vertices of level = radius: their other neighbours are not
        materialized."""
        if radius < 1:
            raise InvalidParameters("radius must be >= 1")
        r = int(radius)
        parts = self._ball(r)
        net = Network(**parts, origin=0, family=self.family,
                      frontier=np.flatnonzero(parts["level"] == r))
        net._converted, net._pair_keys = self._converted, True
        return net


@dataclass(frozen=True)
class LadderGenerator(_Family):
    """Two geometric half-lines joined by geometric rungs.

    Rail conductances alpha^n on (x_{n-1}, x_n) and (y_{n-1}, y_n); rung
    conductances beta^n on (x_n, y_n). Requires alpha > 1 and 0 < beta <= 1
    (beta = 1 is the single-boundary-point regime and is allowed so that path
    equivalence can be exercised there).
    """

    alpha: float
    beta: float
    family: str = field(default="ladder", init=False)

    def __post_init__(self):
        _finite(alpha=self.alpha, beta=self.beta)
        if not (self.alpha > 1):
            raise InvalidParameters("ladder requires alpha > 1")
        if not (0 < self.beta <= 1):
            raise InvalidParameters("ladder requires 0 < beta <= 1")

    @staticmethod
    def x(n):
        return 2 * n

    @staticmethod
    def y(n):
        return 2 * n + 1

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta}

    def _ball(self, r):
        rail, rung = 2 * np.arange(r), np.arange(r + 1)
        # the float mirror may saturate to inf on very deep windows; the exact
        # callable below stays authoritative and the solver lanes honor it
        with np.errstate(over="ignore"):
            rail_c = self.alpha ** np.arange(1, r + 1, dtype=np.float64)
            ec = np.concatenate([rail_c, rail_c,
                                 self.beta ** rung.astype(np.float64)])
        a, b = Fraction(float(self.alpha)), Fraction(float(self.beta))
        # the x rail's edges, then the y rail's, then the rungs
        return dict(ei=np.concatenate([rail, rail + 1, 2 * rung]),
                    ej=np.concatenate([rail + 2, rail + 3, 2 * rung + 1]),
                    ec=ec, level=np.repeat(rung, 2),
                    exact=lambda k: (a ** (k % r + 1) if k < 2 * r
                                     else b ** (k - 2 * r)))

    def x_rail_path(self):
        from .boundary import PathToInfinity
        return PathToInfinity(self.x, name="x-rail")

    def y_rail_path(self):
        from .boundary import PathToInfinity
        return PathToInfinity(self.y, name="y-rail")


@dataclass(frozen=True)
class GeometricHalfLineGenerator(_Family):
    """Half-line 0-1-2-... with conductance alpha^n on edge (n-1, n)."""

    alpha: float
    family: str = field(default="geometric-half-line", init=False)

    def __post_init__(self):
        _finite(alpha=self.alpha)
        if not (self.alpha > 0):
            raise InvalidParameters("half-line requires alpha > 0")

    def params(self):
        return {"alpha": self.alpha}

    def _ball(self, r):
        n = np.arange(1, r + 1, dtype=np.float64)
        with np.errstate(over="ignore"):
            ec = self.alpha ** n
        a = Fraction(float(self.alpha))
        return dict(ei=np.arange(r), ej=np.arange(1, r + 1), ec=ec,
                    level=np.arange(r + 1), exact=lambda k: a ** (k + 1))


@dataclass(frozen=True)
class IntegerLatticeGenerator(_Family):
    """Z^d with unit conductances."""

    d: int = 1
    family: str = field(default="integer-lattice", init=False)

    def __post_init__(self):
        _finite(numbers.Integral, d=self.d)
        if self.d < 1:
            raise InvalidParameters("lattice dimension must be >= 1")

    def params(self):
        return {"d": self.d}

    def _ball(self, r):
        if self.d == 1:
            # 0 -> 0, +n -> 2n-1, -n -> 2n; vectorized for very large balls
            n = np.arange(1, r + 1)
            pos, neg = 2 * n - 1, 2 * n
            ei = np.concatenate([[0], pos[:-1], [0], neg[:-1]])
            return dict(ei=ei, ej=np.concatenate([pos, neg]),
                        ec=np.ones(len(ei)),
                        level=np.concatenate([[0], np.repeat(n, 2)]))
        # the points of L1 norm <= r in lexicographic order, one axis at a
        # time: a point whose coordinates so far leave budget b takes each
        # value -b..b on the next axis, in ascending order
        side = 2 * r + 1
        budget = np.array([r])
        # coordinates + r as digits base 2r + 1, in Python ints past int64
        key = np.zeros(1, dtype=np.int64 if side ** self.d < 2 ** 63 else object)
        for _ in range(self.d):
            width = 2 * budget + 1
            owner = np.repeat(np.arange(len(budget)), width)
            value = (np.arange(len(owner))
                     - np.repeat(np.cumsum(width) - budget - 1, width))
            budget = budget[owner] - np.abs(value)
            key = key[owner] * side + value + r
        # ids in (L1 norm, lexicographic) order; ``key`` stays in
        # lexicographic order, which is ascending
        order = np.argsort(r - budget, kind="stable")
        level = r - budget[order]
        pos_id = np.argsort(order)
        unit = np.array([side ** k for k in range(self.d - 1, -1, -1)],
                        dtype=key.dtype)
        coords = key[order, None] // unit % side - r
        # the edge from each point to its successor on each axis, where that
        # successor lies in the ball, by the point's id, then by axis
        inside = level[:, None] + np.where(coords < 0, -1, 1) <= r
        ei = np.nonzero(inside)[0]
        ej = pos_id[np.searchsorted(key, key[order, None] + unit)[inside]]
        return dict(ei=ei, ej=ej, ec=np.ones(len(ei)), level=level,
                    names=lambda: [str(tuple(pt)) for pt in coords.tolist()])


@dataclass(frozen=True)
class BinaryTreeGenerator(_Family):
    """Rooted binary tree, unit conductances, heap indexing."""

    family: str = field(default="binary-tree", init=False)

    def params(self):
        return {}

    def _ball(self, r):
        parents = np.arange(2 ** r - 1)   # depth < r: children inside
        ei = np.concatenate([parents, parents])
        level = np.floor(np.log2(np.arange(2 ** (r + 1) - 1) + 1))
        return dict(ei=ei, ej=np.concatenate([2 * parents + 1, 2 * parents + 2]),
                    ec=np.ones(len(ei)), level=level.astype(np.int64))


# -- exhaustions and enumerations -------------------------------------------


class Exhaustion:
    """Increasing connected level sets G_1 c G_2 c ..., cut on demand.

    Level r is ``source.ball(r + 1).ball_view(r)``: its ball reaches one
    level past r, so that the level's boundary is known exactly, and is
    built when the level is reached and dropped with it. ``source`` is a
    generator or a finite ``Network``, whose every ball is itself. Vertex
    ids are stable across balls, but only potentials on one ``net``
    combine.
    """

    def __init__(self, source, radii):
        radii = [int(r) for r in radii]
        if not radii or any(r < 1 for r in radii) or any(
                b <= a for a, b in zip(radii, radii[1:])):
            raise InvalidParameters("radii must be a strictly increasing list of ints >= 1")
        self.source = source
        self.radii = radii

    @classmethod
    def build(cls, source, radii):
        return cls(source, radii)

    def __iter__(self):
        for r in self.radii:
            yield r, self.source.ball(r + 1).ball_view(r)


def default_exhaustion(source, levels):
    """Balls of radius 1..levels (saturating early on finite networks)."""
    if levels < 1:
        raise InvalidParameters("levels must be >= 1")
    return Exhaustion.build(source, range(1, levels + 1))


def doubling_exhaustion(source, max_levels):
    """Radius schedule 1, 2, 4, ... for divergence triage."""
    radii = [2 ** k for k in range(max_levels)]
    return Exhaustion.build(source, radii)


def enumerate_vertices(net: Network):
    """BFS order from the origin, ties broken by ascending vertex index (scipy's
    BFS takes each vertex's neighbours in CSR order, which is ascending).

    Returns the enumeration x_1, x_2, ... (origin excluded). Every prefix,
    together with the origin, induces a connected subgraph because BFS only
    reaches vertices adjacent to already-visited ones.
    """
    from scipy.sparse import csgraph
    return csgraph.breadth_first_order(net.adjacency, net.origin,
                                       return_predecessors=False)[1:].tolist()


FAMILIES = {
    "ladder": LadderGenerator,
    "geometric-half-line": GeometricHalfLineGenerator,
    "integer-lattice": IntegerLatticeGenerator,
    "binary-tree": BinaryTreeGenerator,
}


def generator_from_spec(spec: dict):
    """Build a generator or network from a JSON-style spec dict.

    Accepts ``{"family": name, "params": {...}}`` or
    ``{"edges": [[i, j, c], ...], "origin": 0}``.
    """
    if not isinstance(spec, dict):
        raise InvalidParameters("a network spec must be an object")
    if "edges" in spec:
        edges = spec["edges"]
        if not isinstance(edges, list) or not all(
                isinstance(e, (list, tuple)) and len(e) == 3
                and all(isinstance(v, int) for v in e[:2]) for e in edges):
            raise InvalidParameters("edges must be a list of [i, j, c] triples")
        origin = spec.get("origin", 0)
        if not isinstance(origin, int) or isinstance(origin, bool):
            raise InvalidParameters("origin must be an integer vertex")
        return build_finite([tuple(e) for e in edges], origin=origin)
    family = spec.get("family")
    if family not in FAMILIES:
        raise InvalidParameters(f"unknown family {family!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise InvalidParameters("params must be an object")
    params = dict(params)
    if family == "integer-lattice" and "d" not in params and "dim" in params:
        params["d"] = params.pop("dim")
    try:
        return FAMILIES[family](**params)
    except TypeError as e:
        raise InvalidParameters(str(e)) from None
