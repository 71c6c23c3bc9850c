import gc
import weakref
from collections import deque

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from resbdy import _hifi
from resbdy import (BinaryTreeGenerator, Exhaustion, GeometricHalfLineGenerator,
                    IntegerLatticeGenerator, LadderGenerator, Network,
                    build_finite, default_exhaustion, doubling_exhaustion,
                    enumerate_vertices, generator_from_spec, monopole,
                    royden_split)
from resbdy.errors import (DisconnectedGraph, InvalidParameters,
                           NonpositiveConductance, SelfLoop)
from tests.conftest import random_edge_list


def test_triangle_total_conductance(triangle):
    assert np.allclose(triangle.c_of, [2.0, 2.0, 2.0])


def test_path_total_conductance(path3):
    assert np.allclose(path3.c_of, [1.0, 2.0, 1.0])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_finite([(0, 0, 1), (0, 1, 1)])


def test_nonpositive_conductance_rejected():
    with pytest.raises(NonpositiveConductance):
        build_finite([(0, 1, 0.0)])
    with pytest.raises(NonpositiveConductance):
        build_finite([(0, 1, -2.0)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        build_finite([(0, 1, 1), (2, 3, 1)])


def test_parallel_edges_merge_by_summing():
    net = build_finite([(0, 1, 1), (1, 0, 2)])
    assert np.allclose(net.ec, [3.0])


def test_ladder_ball_radius_one():
    net = LadderGenerator(5, 0.9).ball(1)
    assert net.n == 4  # x0, y0, x1, y1
    got = {(int(a), int(b)): float(c) for a, b, c in zip(net.ei, net.ej, net.ec)}
    assert got[(0, 2)] == 5.0      # x0 - x1
    assert got[(0, 1)] == 1.0      # x0 - y0, beta^0
    assert got[(2, 3)] == pytest.approx(0.9)  # x1 - y1


def test_halfline_ball_conductances():
    net = GeometricHalfLineGenerator(2).ball(3)
    assert net.n == 4
    assert np.allclose(sorted(net.ec), [2.0, 4.0, 8.0])


def test_binary_tree_ball():
    net = BinaryTreeGenerator().ball(2)
    assert net.n == 7
    assert np.allclose(net.ec, 1.0)


def test_ladder_parameter_validation():
    with pytest.raises(InvalidParameters):
        LadderGenerator(0.5, 0.9)     # alpha must exceed 1
    with pytest.raises(InvalidParameters):
        LadderGenerator(5, 1.5)       # beta above 1
    with pytest.raises(InvalidParameters):
        LadderGenerator(5, 0.0)
    LadderGenerator(5, 1.0)           # boundary case allowed


def test_ladder_exhaustion_sizes():
    exh = default_exhaustion(LadderGenerator(5, 0.9), 3)
    sizes = [len(view.vertices) for _, view in exh]
    assert sizes == [2 * (k + 1) for k in (1, 2, 3)]


def test_exhaustion_monotone_and_saturating(path3):
    exh = default_exhaustion(path3, 5)
    prev = set()
    for _, view in exh:
        cur = set(view.vertices.tolist())
        assert prev <= cur
        prev = cur
    assert prev == {0, 1, 2}


def test_exhaustion_level_zero_rejected(path3):
    with pytest.raises(InvalidParameters):
        default_exhaustion(path3, 0)


def test_enumeration_path(path3):
    assert enumerate_vertices(path3) == [1, 2]


def test_enumeration_star_ascending(star4):
    assert enumerate_vertices(star4) == [1, 2, 3]


def test_enumeration_ladder_tie_break():
    # the rung partner y0 carries index 1 and wins the tie against x1 (index 2)
    net = LadderGenerator(5, 0.9).ball(3)
    enum = enumerate_vertices(net)
    assert enum[0] == 1 and enum[1] == 2


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, a):
        while self.p[a] != a:
            self.p[a] = self.p[self.p[a]]
            a = self.p[a]
        return a

    def union(self, a, b):
        self.p[self.find(a)] = self.find(b)


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2 ** 31))
def test_enumeration_prefixes_connected(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    enum = enumerate_vertices(net)
    assert sorted(enum + [net.origin]) == list(range(net.n))
    for k in range(1, len(enum) + 1):
        keep = set(enum[:k]) | {net.origin}
        uf = _UnionFind(net.n)
        for a, b in zip(net.ei, net.ej):
            if int(a) in keep and int(b) in keep:
                uf.union(int(a), int(b))
        roots = {uf.find(v) for v in keep}
        assert len(roots) == 1



def reference_bfs(edges, origin):
    """Levels and visiting order of a BFS from origin that takes each
    vertex's neighbours in ascending id order."""
    nbrs = {}
    for a, b, _ in edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    level, order, queue = {origin: 0}, [], deque([origin])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(nbrs[v]):
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    return level, order


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2 ** 31))
def test_levels_and_enumeration_are_the_ascending_bfs(n, seed):
    # vertex ids permuted, so that BFS ties across parents come in any order
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n).tolist()
    edges = [(ids[a], ids[b], c) for a, b, c in random_edge_list(rng, n)]
    origin = int(rng.integers(0, n))
    net = build_finite(edges, origin=origin)
    level, order = reference_bfs(edges, origin)
    assert net.level.tolist() == [level[v] for v in range(n)]
    assert enumerate_vertices(net) == order[1:]

@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2 ** 31))
def test_cached_conductance_matches_recompute(n, seed):
    rng = np.random.default_rng(seed)
    net = build_finite(random_edge_list(rng, n))
    recomputed = np.zeros(net.n)
    np.add.at(recomputed, net.ei, net.ec)
    np.add.at(recomputed, net.ej, net.ec)
    assert np.array_equal(recomputed, net.c_of)
    # and any other accumulation order agrees to roundoff
    alt = np.zeros(net.n)
    for a, b, c in zip(net.ei, net.ej, net.ec):
        alt[a] += c
        alt[b] += c
    assert np.allclose(alt, net.c_of, rtol=1e-14)


def test_exact_conductances_are_served_at_their_conversion_precision():
    # 1/3 rounds differently at every precision, so an entry served at
    # another precision than it was converted at shows
    net = build_finite([(0, 1, "1/3"), (1, 2, 5)])
    for dps in (20, 60):
        mpf = _hifi.MPField(dps).number
        third = net.exact_conductances([0], mpf)[0]
        assert type(third) is mpf and third == mpf(1) / 3
    # the precision of mpmath's global mpf moves with mp.mp
    thirds = []
    for dps in (20, 60, 20):
        with mp.workdps(dps):
            thirds.append(net.exact_conductances([0], mp.mpf)[0])
            assert thirds[-1] == mp.mpf(1) / 3
    assert thirds[0] != thirds[1] and thirds[0] is thirds[2]


def _count_conversions(net):
    """The edge ids whose exact conductance ``net`` forms from now on."""
    calls, exact = [], net.exact_conductance
    net.exact_conductance = lambda k: calls.append(k) or exact(k)
    return calls


def test_balls_of_a_generator_convert_each_edge_once():
    gen = LadderGenerator(5, 1)
    mpf = _hifi.MPField(50).number
    small, big = gen.ball(10), gen.ball(25)
    edges = np.arange(len(big.ei))
    seen = _count_conversions(small)
    small.exact_conductances(np.arange(len(small.ei)), mpf)
    assert sorted(seen) == list(range(len(small.ei)))
    # the larger ball converts only the edges the smaller one lacks
    new = _count_conversions(big)
    got = big.exact_conductances(edges, mpf)
    old_pairs = set(zip(small.ei.tolist(), small.ej.tolist()))
    assert sorted(new) == [k for k in edges.tolist()
                           if (big.ei[k], big.ej[k]) not in old_pairs]
    assert len(new) == len(big.ei) - len(small.ei)
    # and every value is the fresh conversion's, bit for bit
    assert all(type(x) is mpf for x in got)
    fresh = [_hifi.to_mpf(big.exact_conductance(k), mpf)._mpf_
             for k in edges.tolist()]
    assert [x._mpf_ for x in got] == fresh
    new.clear()
    assert big.exact_conductances(edges, mpf) == got and not new
    # a memo holds no field, so equality, hash and repr do not see it
    twin = LadderGenerator(5, 1)
    assert gen == twin and hash(gen) == hash(twin) and repr(gen) == repr(twin)
    assert gen.params() == {"alpha": 5, "beta": 1}


def test_conversions_are_kept_apart_by_type_precision_and_generator():
    # 0.9^k rounds differently at every precision
    gen = LadderGenerator(5, 0.9)
    net = gen.ball(12)
    edges = np.arange(len(net.ei))
    calls = _count_conversions(net)

    def converted(field):
        calls.clear()
        out = net.exact_conductances(edges, field)
        count = len(calls)
        assert all(type(x) is field for x in out)
        assert [x._mpf_ for x in out] == [
            _hifi.to_mpf(net.exact_conductance(k), field)._mpf_
            for k in edges.tolist()]
        return count, out

    for dps in (20, 60):
        assert converted(_hifi.MPField(dps).number)[0] == len(edges)
    # mpmath's global mpf: an entry per precision it had when asked
    with mp.workdps(20):
        assert converted(mp.mpf)[0] == len(edges)
    with mp.workdps(60):
        n60, at60 = converted(mp.mpf)
        assert n60 == len(edges)
    with mp.workdps(20):
        assert converted(mp.mpf)[0] == 0
    with mp.workdps(60):
        assert converted(mp.mpf) == (0, at60)
    # another generator, other conductances: nothing is shared
    other = LadderGenerator(5, 1).ball(12)
    assert other._converted is not net._converted
    calls = _count_conversions(other)
    rungs = other.exact_conductances(edges, _hifi.MPField(20).number)
    assert sorted(calls) == edges.tolist() and rungs[-1] == 1


def test_a_finite_network_keeps_its_own_conversions():
    # the pair (0, 1) twice: a memo keyed by edge id keeps both apart
    raw = Network([0, 1, 1], [1, 0, 2], [0.25, 0.75, 2.0])
    assert raw.exact_conductances([0, 1, 2]) == [0.25, 0.75, 2]
    mpf = _hifi.MPField(30).number
    nets = [build_finite([(0, 1, "1/3"), (1, 2, 5)]) for _ in range(2)]
    for net in nets:
        calls = _count_conversions(net)
        assert net.exact_conductances([0, 1], mpf) == [mpf(1) / 3, 5]
        assert sorted(calls) == [0, 1]
    assert nets[0]._converted is not nets[1]._converted
    assert nets[0].ball(4)._converted is nets[0]._converted


def test_generator_from_spec_roundtrip():
    gen = generator_from_spec({"family": "ladder", "params": {"alpha": 5, "beta": 0.9}})
    assert isinstance(gen, LadderGenerator)
    net = generator_from_spec({"edges": [[0, 1, 1], [1, 2, 1]], "origin": 0})
    assert net.n == 3
    with pytest.raises(InvalidParameters):
        generator_from_spec({"family": "moebius"})


def test_lattice_indexing_stable():
    gen = IntegerLatticeGenerator(1)
    small, big = gen.ball(3), gen.ball(6)
    # same vertex keeps its index across radii
    assert small.level[5] == big.level[5]
    assert small.n == 7 and big.n == 13
    gen2 = IntegerLatticeGenerator(2)
    b2 = gen2.ball(2)
    assert b2.n == 13  # 1 + 4 + 8 lattice points within L1 distance 2


@pytest.mark.parametrize("gen", [IntegerLatticeGenerator(1), IntegerLatticeGenerator(2),
                                 LadderGenerator(5, 0.9), BinaryTreeGenerator()])
def test_doubling_levels_are_cut_from_their_own_ball(gen):
    exh = doubling_exhaustion(gen, 4)
    for r, view in exh:
        assert view.net.n == gen.ball(r + 1).n
        assert np.array_equal(view.vertices, np.flatnonzero(view.net.level <= r))


def test_linear_levels_are_cut_from_their_own_ball():
    gen = LadderGenerator(5, 0.9)
    for r, view in default_exhaustion(gen, 5):
        assert view.net.n == gen.ball(r + 1).n
        assert view.net.level.max() == r + 1
        assert np.array_equal(view.vertices, np.flatnonzero(view.net.level <= r))


def test_second_pass_yields_the_same_levels():
    exh = default_exhaustion(IntegerLatticeGenerator(1), 8)
    first = [(r, view.vertices) for r, view in exh]
    second = [(r, view.vertices) for r, view in exh]
    assert [r for r, _ in first] == [r for r, _ in second] == list(range(1, 9))
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(first, second))


def test_a_dropped_level_frees_its_ball():
    # the exhaustion keeps no ball: once the caller drops the last view,
    # its ball is gone
    exh = doubling_exhaustion(IntegerLatticeGenerator(1), 6)
    for _, view in exh:
        pass
    ball = weakref.ref(view.net)
    del view
    gc.collect()
    assert ball() is None


def test_finite_network_keeps_one_ambient(grid44):
    exh = default_exhaustion(grid44, 3)
    assert [r for r, _ in exh] == [1, 2, 3]
    assert all(view.net is grid44 for _, view in exh)


def test_exhaustion_radii_must_increase():
    for radii in ([], [0, 1], [2, 2], [3, 1]):
        with pytest.raises(InvalidParameters):
            Exhaustion.build(LadderGenerator(5, 0.9), radii)


def test_view_membership_is_bounds_checked():
    view = IntegerLatticeGenerator(1).ball(3).ball_view(2)
    assert 0 in view and 4 in view and view.is_interior(0)
    assert not view.is_interior(3) and 3 in view   # +2 lies on bd
    for x in (-1, -3, 5, 6, 7, 100):
        assert x not in view and not view.is_interior(x)


FAMILIES = [LadderGenerator(5, 0.9), GeometricHalfLineGenerator(2),
            IntegerLatticeGenerator(1), IntegerLatticeGenerator(2),
            IntegerLatticeGenerator(3), BinaryTreeGenerator()]


@pytest.mark.parametrize("gen", FAMILIES, ids=repr)
def test_a_ball_frontier_is_its_top_level(gen):
    for r in range(1, 6):
        net = gen.ball(r)
        assert net.origin == 0 and net.family == gen.family
        assert net.level.max() == r
        assert np.array_equal(net.frontier, np.flatnonzero(net.level == r))
    with pytest.raises(InvalidParameters, match="radius"):
        gen.ball(0)


def _l1_ball(d, r):
    """The points of Z^d with L1 norm <= r, coordinate by coordinate."""
    if d == 0:
        return [()]
    return [(a, *p) for a in range(-r, r + 1) for p in _l1_ball(d - 1, r - abs(a))]


# in Z^28 the radius-1 ball's coordinate keys (base 3) fit int64, the
# radius-2 ball's (base 5) do not
@pytest.mark.parametrize("d, radius", [(2, 4), (3, 3), (4, 2), (28, 2)])
def test_lattice_ball_is_its_definition(d, radius):
    # the points of L1 norm <= r by (norm, coordinates), with an edge to
    # each one's successor on each axis, ordered by that point's id and axis
    for r in range(1, radius + 1):
        pts = sorted(_l1_ball(d, r), key=lambda p: (sum(map(abs, p)), p))
        ids = {p: k for k, p in enumerate(pts)}
        edges = [(k, ids[q]) for k, p in enumerate(pts) for ax in range(d)
                 for q in [p[:ax] + (p[ax] + 1,) + p[ax + 1:]] if q in ids]
        net = IntegerLatticeGenerator(d).ball(r)
        assert net.names == [str(p) for p in pts]
        assert net.level.tolist() == [sum(map(abs, p)) for p in pts]
        assert list(zip(net.ei.tolist(), net.ej.tolist())) == [
            (min(e), max(e)) for e in edges]
        assert np.array_equal(net.ec, np.ones(len(edges)))


def test_lattice_names_are_formatted_when_first_read(monkeypatch):
    # formatting every point's name was half of a Z^2 ball's build
    import resbdy.network as network
    formatted = []

    def counting_str(x):
        formatted.append(x)
        return str(x)
    monkeypatch.setattr(network, "str", counting_str, raising=False)
    net = IntegerLatticeGenerator(2).ball(3)
    assert formatted == []
    pts = sorted(_l1_ball(2, 3), key=lambda p: (sum(map(abs, p)), p))
    assert net.names == [str(p) for p in pts]
    assert len(formatted) == len(pts)
    assert net.names is net.names and len(formatted) == len(pts)


def test_a_network_is_its_own_ball(grid44):
    assert grid44.ball(1) is grid44 and grid44.ball(9) is grid44
    with pytest.raises(InvalidParameters):
        grid44.ball(0)


def _record_balls(monkeypatch, cls):
    balls = []
    ball = cls.ball

    def recording(self, radius):
        balls.append(ball(self, radius))
        return balls[-1]

    monkeypatch.setattr(cls, "ball", recording)
    return balls


def test_exhaustion_balls_build_no_adjacency(monkeypatch):
    z1_balls = _record_balls(monkeypatch, IntegerLatticeGenerator)
    monopole(IntegerLatticeGenerator(1), levels=12, lane="float64")
    line_balls = _record_balls(monkeypatch, GeometricHalfLineGenerator)
    royden_split(GeometricHalfLineGenerator(2), 1, levels=20, lane="float64")
    assert z1_balls and line_balls
    for net in z1_balls + line_balls:
        assert "adjacency" not in vars(net) and "c_of" not in vars(net)
