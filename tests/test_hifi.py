"""The high-precision lane: sparse elimination against a dense exact oracle,
componentwise accuracy of the mp field, and mpmath precision scoped to each
step."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resbdy import (LadderGenerator, Network, boundary_sum_harmonic,
                    build_finite, build_onb, entries_E_via_evaluation, gram_product_check,
                    royden_split, solve_dipole_level)
from resbdy import SubgraphView, _hifi, solver
from resbdy.energy import window_edges
from resbdy.errors import SingularSystem
from resbdy.ladder import ladder_harmonic


def dense_fraction_solve(net, window, rhs, unknowns):
    """Independent oracle: dense window Laplacian, Gauss-Jordan in Fractions."""
    idx = {v: i for i, v in enumerate(unknowns)}
    n = len(unknowns)
    A = [[Fraction(0)] * n + [Fraction(rhs.get(v, 0))] for v in unknowns]
    for k in np.flatnonzero(window.edge_mask):
        a, b = int(net.ei[k]), int(net.ej[k])
        c = net.exact_conductance(int(k))
        for p, q in ((a, b), (b, a)):
            if p in idx:
                A[idx[p]][idx[p]] += c
                if q in idx:
                    A[idx[p]][idx[q]] -= c
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return {v: A[i][n] / A[i][i] for i, v in enumerate(unknowns)}


@st.composite
def exact_networks(draw):
    """Connected networks with Fraction conductances spanning up to ~1e26.

    Vertex 2 hangs off vertex 1 and no extra edge touches the origin, so the
    graph has depth >= 2 and its radius-(depth - 1) ball has a boundary.
    """
    n = draw(st.integers(min_value=4, max_value=9))

    def conductance():
        return (Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
                * Fraction(10) ** draw(st.integers(-12, 12)))

    edges = [(0, 1, conductance()), (1, 2, conductance())]
    for v in range(3, n):
        edges.append((draw(st.integers(0, v - 1)), v, conductance()))
    for _ in range(draw(st.integers(0, n))):
        a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        if a != b:
            edges.append((a, b, conductance()))
    return build_finite(edges)


SPREAD_1E24 = build_finite([(0, 1, Fraction(1, 10 ** 12)), (1, 2, Fraction(10 ** 12)),
                            (2, 3, Fraction(3, 7)), (1, 3, Fraction(10 ** 9, 7)),
                            (3, 4, Fraction(1, 10 ** 11)), (2, 4, 1)])


@given(exact_networks())
@example(SPREAD_1E24)
def test_sparse_elimination_matches_dense_fraction_oracle(net):
    o = net.origin
    for bc in ("free", "wired"):
        window = (net.full_view() if bc == "free"
                  else net.ball_view(int(net.level.max()) - 1))
        if bc == "free":
            drop, pin = (), o
            rhs = {int(window.vertices[-1]): 1, o: -1}
        else:
            # a held vertex outside the window is ignored
            outside = int(np.flatnonzero(~window.mask)[0])
            drop, pin = [*window.bd.tolist(), outside], None
            rhs = {int(window.interior[-1]): 1}
        held = [*drop, *([] if pin is None else [pin])]
        unknowns = [int(v) for v in window.vertices if v not in held]
        sol = dict(zip(window.vertices.tolist(),
                       _hifi.hi_solve(net, window, rhs, dirichlet_zero=drop,
                                      pin=pin, field=_hifi.FractionField())))
        oracle = dense_fraction_solve(net, window, rhs, unknowns)
        assert sol.keys() == set(window.vertices.tolist())
        for v in unknowns:
            assert sol[v] == oracle[v], (bc, v)
        for v in held:
            assert sol.get(v, 0) == 0
        # the mp field at its automatic precision agrees to far beyond float64
        dps = _hifi.auto_dps(net, window.edge_mask, len(window.vertices))
        with mp.workdps(dps):
            hi = dict(zip(window.vertices.tolist(),
                          _hifi.hi_solve(net, window, rhs, dirichlet_zero=drop,
                                         pin=pin, field=_hifi.MPField(dps))))
            scale = max(abs(_hifi.to_mpf(oracle[v])) for v in unknowns)
            for v in unknowns:
                assert abs(hi[v] - _hifi.to_mpf(oracle[v])) <= scale * mp.mpf(10) ** -30
        # the float64 lane, where it is picked, is right to 1e-10 relative
        if solver.pick_lane(net, window) == "float64":
            x = dict(zip(window.vertices.tolist(),
                         solver._solve_float64(window, held, rhs)))
            scale = max(abs(float(oracle[v])) for v in unknowns)
            for v in unknowns:
                assert abs(x[v] - float(oracle[v])) <= 1e-10 * scale, (bc, v)
            assert all(x[v] == 0 for v in held if v in window)



PARALLEL = [(0, 1, 0.3), (1, 0, 0.7), (1, 2, 1.5), (1, 3, 2.5), (2, 3, 0.9),
            (2, 4, 1.1), (3, 4, 0.6), (4, 5, 1.3)]


@pytest.mark.parametrize("lane", ["float64", "mp", "fraction"])
def test_grounded_system_adds_parallel_edges(lane):
    # the pair (0, 1) twice, as a Network keeps it; build_finite merges it
    raw = Network(*zip(*PARALLEL))
    once = build_finite(PARALLEL)
    assert len(raw.ei) == len(once.ei) + 1
    # free on the whole network: both copies run to the pin; wired on the
    # radius-2 ball: both copies join two unknowns, and the boundary {2, 3}
    # holds the edge (2, 3) between two held vertices
    for bc, x, view in (("free", 5, lambda net: net.full_view()),
                        ("wired", 1, lambda net: net.ball_view(2))):
        if bc == "wired":
            assert view(raw).bd.tolist() == [2, 3]
        got, want = (solve_dipole_level(view(net), x, bc=bc, lane=lane).w
                     for net in (raw, once))
        if lane == "fraction":
            assert got.tolist() == want.tolist()
        else:
            got, want = got.astype(float), want.astype(float)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

LADDER_1 = LadderGenerator(5, 1.0)
R60 = LADDER_1.ball(61).ball_view(60)
R300 = LADDER_1.ball(301).ball_view(300)
CASES = ["free", "wired", "mixed-sign free", "negative-only wired"]


def ladder_case(window, case):
    """The keyword arguments of one of ``CASES`` on a ladder(5, 1) window."""
    o = window.net.origin
    x1, x2 = LADDER_1.x(1), LADDER_1.x(2)
    return {"free": dict(rhs={x1: 1, o: -1}, pin=o),
            "wired": dict(rhs={x1: 1, o: -1}, dirichlet_zero=window.bd),
            "mixed-sign free": dict(rhs={x1: 1, x2: -1}, pin=o),
            "negative-only wired": dict(rhs={x2: -1}, dirichlet_zero=window.bd)}[case]


def precisions(window, kw, dps):
    """Each unknown's precision in digits, as ``hi_solve`` picks it."""
    held = [*kw.get("dirichlet_zero", ()), *([kw["pin"]] if "pin" in kw else [])]
    with mp.workdps(dps):
        _, g, edges, _ = _hifi.grounded_system(window, held, kw["rhs"], mp.mpf)
        return _hifi.unknown_dps(window, g, edges, dps)


@pytest.mark.parametrize("case", CASES)
def test_mp_solve_is_componentwise_accurate(case):
    # conductances 1 .. 5^60; an elimination that subtracts loses ~40 of the
    # 86 digits in the free solves. Each unknown runs at its own precision,
    # and back-substitution reads the entries eliminated after it (the near
    # ones, at the lowest precision), so every entry is right to that one
    net = R60.net
    kw = ladder_case(R60, case)
    exact = dict(zip(R60.vertices.tolist(),
                     _hifi.hi_solve(net, R60, field=_hifi.FractionField(), **kw)))
    dps = _hifi.auto_dps(net, R60.edge_mask, len(R60.vertices))
    assert dps == 86
    p = precisions(R60, kw, dps)
    assert p.max() == dps and p.min() == 45
    sol = dict(zip(R60.vertices.tolist(),
                   _hifi.hi_solve(net, R60, field=_hifi.MPField(dps), **kw)))
    with mp.workdps(2 * dps):
        tol = mp.mpf(10) ** -(int(p.min()) - 5)
        for v, e in exact.items():
            ref = _hifi.to_mpf(e)
            assert abs(sol[v] - ref) <= abs(ref) * tol, (case, v)


@pytest.mark.parametrize("window", [R60, R300], ids=["R60", "R300"])
@pytest.mark.parametrize("case", CASES)
def test_mp_edge_currents_are_accurate(case, window, monkeypatch):
    # every edge current c_e (x_a - x_b) keeps an error of at most
    # 10^-40 c_min max|x|, as at the field's precision throughout; the
    # reference runs every unknown at twice the field's precision
    net = window.net
    kw = ladder_case(window, case)
    dps = _hifi.auto_dps(net, window.edge_mask, len(window.vertices))
    sol = _hifi.hi_solve(net, window, field=_hifi.MPField(dps), **kw)
    with monkeypatch.context() as m:
        m.setattr(_hifi, "unknown_dps",
                  lambda window, g, edges, ceiling: np.full(len(g), ceiling))
        ref = _hifi.hi_solve(net, window, field=_hifi.MPField(2 * dps), **kw)
    c, a, b = window_edges(window, Fraction)
    with mp.workdps(2 * dps):
        c = [_hifi.to_mpf(ce) for ce in c]
        bound = min(c) * max(abs(r) for r in ref) * mp.mpf(10) ** -40
        worst = max(abs(ce * ((sol[i] - sol[j]) - (ref[i] - ref[j])))
                    for ce, i, j in zip(c, a.tolist(), b.tolist()))
        assert worst <= bound, (case, mp.nstr(worst / bound, 3))


@pytest.mark.parametrize("field", [_hifi.FractionField(), _hifi.MPField(30)])
def test_free_solve_on_disconnected_window_is_singular(field):
    # the path 0-1-2-3-4 seen through {0, 1, 3, 4}: {3, 4} has no path to the pin
    net = build_finite([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
    window = SubgraphView(net, [0, 1, 3, 4])
    with _hifi.workdps(field.dps), pytest.raises(SingularSystem):
        _hifi.hi_solve(net, window, {1: 1, 0: -1}, pin=0, field=field)


def _assert_dps_kept(fn):
    """Run fn at an unusual precision and check it leaves mp.mp.dps alone."""
    saved = mp.mp.dps
    try:
        mp.mp.dps = 23
        out = fn()
        assert mp.mp.dps == 23
    finally:
        mp.mp.dps = saved
    return out


def test_hi_solve_restores_the_precision():
    # no enclosing workdps: hi_solve sets the precision unknown by unknown
    # and restores the caller's, also when it raises mid-elimination
    saved = mp.mp.prec
    try:
        mp.mp.dps = 23
        prec = mp.mp.prec
        net = build_finite([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
        with pytest.raises(SingularSystem):
            _hifi.hi_solve(net, SubgraphView(net, [0, 1, 3, 4]), {1: 1, 0: -1},
                           pin=0, field=_hifi.MPField(30))
        assert mp.mp.prec == prec
        dps = _hifi.auto_dps(R300.net, R300.edge_mask, len(R300.vertices))
        x1, o = LADDER_1.x(1), R300.net.origin
        sol = _hifi.hi_solve(R300.net, R300, {x1: 1, o: -1}, dirichlet_zero=R300.bd,
                             field=_hifi.MPField(dps))
        assert mp.mp.prec == prec
        assert sol[R300.index(x1)] > 0
    finally:
        mp.mp.prec = saved


def test_mp_precision_is_not_leaked():
    deep = LadderGenerator(5, 1.0).ball(301).ball_view(300)
    pot = _assert_dps_kept(lambda: solve_dipole_level(deep, 0, bc="wired", rhs={0: 1}))
    assert pot.w is not None and pot.dps > 200

    gen = LadderGenerator(5, 0.9)
    split = _assert_dps_kept(lambda: royden_split(gen, 2, levels=20, tol=1e-6))
    assert split.h.w is not None and split.h.dps == split.v.dps

    onb = _assert_dps_kept(lambda: build_onb(gen, 6))
    assert onb.field == "mp" and onb.dps > 23

    lh = ladder_harmonic(5, 0.9, 20)
    rep = _assert_dps_kept(
        lambda: boundary_sum_harmonic(gen, lh.value, gen.x(1), levels=12))
    assert rep.sums


def test_onb_checks_run_at_construction_precision():
    onb = build_onb(LadderGenerator(5, 0.9), 6)
    devs = []
    for dps in (15, 400):
        with mp.workdps(dps):
            devs.append((entries_E_via_evaluation(onb)[1], gram_product_check(onb)))
    assert devs[0] == devs[1]

