"""Weighted connected graphs, example families, exhaustions, and vertex enumerations.

A :class:`Network` is always a finite, materialized object. Infinite families
are represented by generators that materialize balls lazily with stable vertex
indices, so the same vertex keeps the same index across calls with different
radii. All exhaustion limits are driven through such balls.

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
2(k+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import (
    DisconnectedGraph,
    InvalidParameters,
    NonpositiveConductance,
    SelfLoop,
)


class Network:
    """Finite weighted graph with symmetric positive conductances and an origin.

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
    """

    def __init__(self, ei, ej, ec, origin=0, level=None, frontier=None,
                 exact=None, names=None, family="finite", validate=True):
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
        self.names = names
        self._exact = exact
        if validate:
            # +inf is tolerated as the float mirror of exactly-stored huge
            # conductances (deep geometric windows); nan and nonpositive are not
            if np.any(ec <= 0) or np.any(np.isnan(ec)):
                raise NonpositiveConductance("conductances must be positive")
            if np.any(np.isinf(ec)) and exact is None:
                raise NonpositiveConductance(
                    "infinite conductance without exact backing values")
            if np.any(ei == ej):
                raise SelfLoop("c_xx = 0 is required; self-loops are not allowed")
        adj = sp.coo_matrix(
            (np.concatenate([ec, ec]),
             (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
            shape=(self.n, self.n),
        )
        self.adjacency = adj.tocsr()
        # accumulate in edge order so c(x) is bit-for-bit recomputable
        c_of = np.zeros(self.n)
        with np.errstate(over="ignore"):
            np.add.at(c_of, ei, ec)
            np.add.at(c_of, ej, ec)
        self.c_of = c_of
        if level is None:
            level = self._bfs_levels()
            if np.any(level < 0):
                raise DisconnectedGraph("every vertex must be reachable from the origin")
        self.level = np.asarray(level, dtype=np.int64)
        self.frontier = (np.asarray(frontier, dtype=np.int64)
                         if frontier is not None else np.empty(0, dtype=np.int64))
        self.frontier_mask = np.zeros(self.n, dtype=bool)
        self.frontier_mask[self.frontier] = True
        self._laplacian = None

    def _bfs_levels(self):
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[self.origin] = 0
        frontier = [self.origin]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in indices[indptr[v]:indptr[v + 1]]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    # -- structure ---------------------------------------------------------

    def neighbors(self, x):
        """(indices, conductances) of the neighbors of x."""
        sl = slice(self.adjacency.indptr[x], self.adjacency.indptr[x + 1])
        return self.adjacency.indices[sl], self.adjacency.data[sl]

    def laplacian(self):
        """Graph Laplacian as CSR, physics sign: (Lv)(x) = sum c_xy (v(x)-v(y))."""
        if self._laplacian is None:
            self._laplacian = (sp.diags(self.c_of) - self.adjacency).tocsr()
        return self._laplacian

    def exact_conductance(self, k):
        if self._exact is None:
            return Fraction(float(self.ec[k]))
        if callable(self._exact):
            return self._exact(k)
        return self._exact[k]

    @property
    def is_saturated(self):
        return len(self.frontier) == 0

    def full_view(self):
        from .energy import SubgraphView
        return SubgraphView(self, np.arange(self.n))

    def ball_view(self, radius):
        from .energy import SubgraphView
        return SubgraphView(self, np.flatnonzero(self.level <= radius))

    def __repr__(self):
        return (f"Network(family={self.family!r}, n={self.n}, "
                f"edges={len(self.ei)}, origin={self.origin})")


def build_finite(edge_list, origin=0):
    """Build a finite network from (i, j, conductance) triples.

    Parallel entries for the same unordered pair are merged by summing their
    conductances (conductors in parallel add). Raises SelfLoop, NonpositiveConductance,
    or DisconnectedGraph when the input violates the network invariants.
    """
    merged = {}
    for i, j, c in edge_list:
        i, j = int(i), int(j)
        if i == j:
            raise SelfLoop(f"edge ({i},{i}) is a self-loop")
        if not (float(c) > 0):
            raise NonpositiveConductance(f"edge ({i},{j}) has conductance {c}")
        if isinstance(c, Fraction):
            cf = c
        elif isinstance(c, str):
            cf = Fraction(c)
        else:
            cf = Fraction(float(c))
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, Fraction(0)) + cf
    keys = sorted(merged)
    ei = [k[0] for k in keys]
    ej = [k[1] for k in keys]
    exact = [merged[k] for k in keys]
    ec = [float(v) for v in exact]
    return Network(ei, ej, ec, origin=origin, exact=tuple(exact), family="finite")


# -- generators -------------------------------------------------------------


@dataclass(frozen=True)
class LadderGenerator:
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

    def ball(self, radius):
        if radius < 0:
            raise InvalidParameters("radius must be >= 0")
        r = int(radius)
        n = np.arange(1, r + 1, dtype=np.float64)
        rail_i = 2 * (np.arange(1, r + 1) - 1)
        with np.errstate(over="ignore"):
            rail_c = self.alpha ** n
        rung_n = np.arange(0, r + 1)
        ei = np.concatenate([rail_i, rail_i + 1, 2 * rung_n])
        ej = np.concatenate([rail_i + 2, rail_i + 3, 2 * rung_n + 1])
        # the float mirror may saturate to inf on very deep windows; the exact
        # callable below stays authoritative and the solver lanes honor it
        with np.errstate(over="ignore"):
            ec = np.concatenate([rail_c, rail_c,
                                 self.beta ** rung_n.astype(np.float64)])
        level = np.repeat(np.arange(r + 1), 2)
        frontier = np.array([2 * r, 2 * r + 1])
        a, b = Fraction(float(self.alpha)), Fraction(float(self.beta))
        n_rail = r

        def exact(k, n_rail=n_rail, a=a, b=b):
            if k < n_rail:
                return a ** (k + 1)
            if k < 2 * n_rail:
                return a ** (k - n_rail + 1)
            return b ** (k - 2 * n_rail)

        names = [f"{'xy'[i % 2]}{i // 2}" for i in range(2 * (r + 1))]
        return Network(ei, ej, ec, origin=0, level=level, frontier=frontier,
                       exact=exact, names=names, family="ladder")

    def x_rail_path(self):
        from .boundary import PathToInfinity
        return PathToInfinity(self, self.x, name="x-rail")

    def y_rail_path(self):
        from .boundary import PathToInfinity
        return PathToInfinity(self, self.y, name="y-rail")


@dataclass(frozen=True)
class GeometricHalfLineGenerator:
    """Half-line 0-1-2-... with conductance alpha^n on edge (n-1, n)."""

    alpha: float
    family: str = field(default="geometric-half-line", init=False)

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvalidParameters("half-line requires alpha > 0")

    def params(self):
        return {"alpha": self.alpha}

    def ball(self, radius):
        if radius < 1:
            raise InvalidParameters("radius must be >= 1")
        r = int(radius)
        n = np.arange(1, r + 1, dtype=np.float64)
        with np.errstate(over="ignore"):
            ec = self.alpha ** n
        a = Fraction(float(self.alpha))
        return Network(np.arange(r), np.arange(1, r + 1), ec, origin=0,
                       level=np.arange(r + 1), frontier=np.array([r]),
                       exact=lambda k, a=a: a ** (k + 1), family="geometric-half-line")

    def ray(self):
        from .boundary import PathToInfinity
        return PathToInfinity(self, lambda n: n, name="ray")


@dataclass(frozen=True)
class IntegerLatticeGenerator:
    """Z^d with unit conductances."""

    d: int = 1
    family: str = field(default="integer-lattice", init=False)

    def __post_init__(self):
        if self.d < 1:
            raise InvalidParameters("lattice dimension must be >= 1")

    def params(self):
        return {"d": self.d}

    def ball(self, radius):
        if radius < 1:
            raise InvalidParameters("radius must be >= 1")
        r = int(radius)
        if self.d == 1:
            # 0 -> 0, +n -> 2n-1, -n -> 2n; vectorized for very large balls
            n = np.arange(1, r + 1)
            pos, neg = 2 * n - 1, 2 * n
            ei = np.concatenate([[0], pos[:-1], [0], neg[:-1]])
            ej = np.concatenate([pos, neg])
            level = np.zeros(2 * r + 1, dtype=np.int64)
            level[pos] = n
            level[neg] = n
            return Network(ei, ej, np.ones(len(ei)), origin=0, level=level,
                           frontier=np.array([2 * r - 1, 2 * r]),
                           exact=lambda k: Fraction(1), family="integer-lattice")
        index = {}
        coords = []

        def idx(pt):
            if pt not in index:
                index[pt] = len(coords)
                coords.append(pt)
            return index[pt]

        origin = tuple([0] * self.d)
        idx(origin)
        shell = [origin]
        ei, ej = [], []
        for dist in range(1, r + 1):
            nxt = set()
            for pt in shell:
                for ax in range(self.d):
                    for s in (-1, 1):
                        q = list(pt)
                        q[ax] += s
                        q = tuple(q)
                        if sum(abs(t) for t in q) == dist:
                            nxt.add(q)
            for q in sorted(nxt):
                idx(q)
            shell = sorted(nxt)
        for pt, i in index.items():
            for ax in range(self.d):
                q = list(pt)
                q[ax] += 1
                q = tuple(q)
                if q in index:
                    ei.append(i)
                    ej.append(index[q])
        level = np.array([sum(abs(t) for t in pt) for pt in coords])
        frontier = np.flatnonzero(level == r)
        return Network(ei, ej, np.ones(len(ei)), origin=0, level=level,
                       frontier=frontier, exact=lambda k: Fraction(1),
                       names=[str(pt) for pt in coords], family="integer-lattice")

    def axis_ray(self, sign=1):
        from .boundary import PathToInfinity
        if self.d == 1:
            fn = (lambda n: 0 if n == 0 else (2 * n - 1 if sign > 0 else 2 * n))
            return PathToInfinity(self, fn, name=f"axis{'+' if sign > 0 else '-'}")
        raise InvalidParameters("axis_ray is only provided for d=1")


@dataclass(frozen=True)
class BinaryTreeGenerator:
    """Rooted binary tree, unit conductances, heap indexing."""

    family: str = field(default="binary-tree", init=False)

    def params(self):
        return {}

    def ball(self, radius):
        if radius < 1:
            raise InvalidParameters("radius must be >= 1")
        r = int(radius)
        n_inner = 2 ** r - 1          # vertices with depth < r have children inside
        parents = np.arange(n_inner)
        ei = np.concatenate([parents, parents])
        ej = np.concatenate([2 * parents + 1, 2 * parents + 2])
        nv = 2 ** (r + 1) - 1
        level = np.floor(np.log2(np.arange(nv) + 1)).astype(np.int64)
        frontier = np.arange(2 ** r - 1, nv)
        return Network(ei, ej, np.ones(len(ei)), origin=0, level=level,
                       frontier=frontier, exact=lambda k: Fraction(1),
                       family="binary-tree")

    def leftmost_path(self):
        from .boundary import PathToInfinity
        return PathToInfinity(self, lambda n: 2 ** n - 1, name="leftmost")


@dataclass(frozen=True)
class FiniteGenerator:
    """Wraps an explicit finite network as a generator.

    Every ball is the network itself, so its vertex ids are the only ones;
    smaller balls are cut as views (``Network.ball_view``).
    """

    net: Network
    family: str = field(default="finite", init=False)

    def params(self):
        return {"n": self.net.n}

    def ball(self, radius):
        if radius < 1:
            raise InvalidParameters("radius must be >= 1")
        return self.net


def generator_for(net_or_gen):
    """Coerce a Network to a FiniteGenerator; pass generators through."""
    if isinstance(net_or_gen, Network):
        return FiniteGenerator(net_or_gen)
    return net_or_gen


def generate_ball(gen, radius) -> Network:
    """Materialize the ball of the given radius for any generator family (a
    finite network is its own ball)."""
    if radius < 1:
        raise InvalidParameters("radius must be >= 1")
    return generator_for(gen).ball(int(radius))


# -- exhaustions and enumerations -------------------------------------------


class Exhaustion:
    """Increasing connected level sets G_1 c G_2 c ..., cut on demand.

    Level r is cut from the current ambient ball, which reaches at least one
    level past r so that the level's boundary is known exactly. A level that
    outgrows the ambient replaces it by ``source.ball(r + 1)``: consecutive
    levels share one ball while they fit, and one ball is held at a time. A
    finite network is its own ambient. Reading ``ambient`` before iterating
    materializes the ball for the deepest radius, which then holds every
    level; during iteration it is the ``net`` of the view just yielded.
    Vertex ids are stable across balls, but only potentials on one ``net``
    combine.
    """

    def __init__(self, source, radii):
        radii = [int(r) for r in radii]
        if not radii or any(r < 1 for r in radii) or any(
                b <= a for a, b in zip(radii, radii[1:])):
            raise InvalidParameters("radii must be a strictly increasing list of ints >= 1")
        self.source = generator_for(source)
        self.radii = radii
        self._ambient = None

    @classmethod
    def build(cls, source, radii):
        return cls(source, radii)

    @property
    def ambient(self) -> Network:
        if self._ambient is None:
            self._ambient = self.source.ball(self.radii[-1] + 1)
        return self._ambient

    def __iter__(self):
        for r in self.radii:
            net = self._ambient
            if net is None or not (net.is_saturated or r < net.level.max()):
                net = self._ambient = self.source.ball(r + 1)
            yield r, net.ball_view(r)

    def __len__(self):
        return len(self.radii)


def default_exhaustion(source, levels):
    """Balls of radius 1..levels (saturating early on finite networks)."""
    if levels < 1:
        raise InvalidParameters("levels must be >= 1")
    return Exhaustion.build(source, range(1, levels + 1))


def doubling_exhaustion(source, max_levels, start=1):
    """Radius schedule start, 2*start, 4*start, ... for divergence triage."""
    radii = [start * 2 ** k for k in range(max_levels)]
    return Exhaustion.build(source, radii)


def enumerate_vertices(net: Network):
    """BFS order from the origin, ties broken by ascending vertex index.

    Returns the enumeration x_1, x_2, ... (origin excluded). Every prefix,
    together with the origin, induces a connected subgraph because BFS only
    reaches vertices adjacent to already-visited ones.
    """
    indptr, indices = net.adjacency.indptr, net.adjacency.indices
    seen = np.zeros(net.n, dtype=bool)
    seen[net.origin] = True
    order = [net.origin]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        nbrs = np.sort(indices[indptr[v]:indptr[v + 1]])
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                order.append(int(w))
    return order[1:]


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
    if "edges" in spec:
        return build_finite([tuple(e) for e in spec["edges"]],
                            origin=spec.get("origin", 0))
    family = spec.get("family")
    if family not in FAMILIES:
        raise InvalidParameters(f"unknown family {family!r}")
    params = dict(spec.get("params", {}))
    if family == "integer-lattice" and "d" not in params and "dim" in params:
        params["d"] = params.pop("dim")
    try:
        return FAMILIES[family](**params)
    except TypeError as e:
        raise InvalidParameters(str(e)) from None
