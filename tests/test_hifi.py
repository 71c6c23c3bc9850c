"""The high-precision lane: sparse elimination against a dense exact oracle,
componentwise accuracy of the mp field, and mpmath precision scoped to each
step."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resbdy import (LadderGenerator, boundary_sum_harmonic, build_finite,
                    build_onb, entries_E_via_evaluation, gram_product_check,
                    royden_split, solve_dipole_level)
from resbdy import SubgraphView, _hifi
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
            drop, pin = window.bd, None
            rhs = {int(window.interior[-1]): 1}
        dropped = {int(v) for v in drop}
        unknowns = [int(v) for v in window.vertices if v != pin and v not in dropped]
        sol = _hifi.hi_solve(net, window, rhs, dirichlet_zero=drop, pin=pin,
                             field=_hifi.FractionField())
        oracle = dense_fraction_solve(net, window, rhs, unknowns)
        for v in unknowns:
            assert sol[v] == oracle[v], (bc, v)
        for v in dropped:
            assert sol[v] == 0
        if pin is not None:
            assert sol[pin] == 0
        # the mp field at its automatic precision agrees to far beyond float64
        dps = _hifi.auto_dps(net, window.edge_mask, len(window.vertices))
        with mp.workdps(dps):
            hi = _hifi.hi_solve(net, window, rhs, dirichlet_zero=drop, pin=pin,
                                field=_hifi.MPField(dps))
            scale = max(abs(_hifi.to_mpf(oracle[v])) for v in unknowns)
            for v in unknowns:
                assert abs(hi[v] - _hifi.to_mpf(oracle[v])) <= scale * mp.mpf(10) ** -30


LADDER_1 = LadderGenerator(5, 1.0)
R60 = LADDER_1.ball(61).ball_view(60)


@pytest.mark.parametrize("case", ["free", "wired", "mixed-sign free",
                                  "negative-only wired"])
def test_mp_solve_is_componentwise_accurate(case):
    # conductances 1 .. 5^60; an elimination that subtracts loses ~40 of the
    # 86 digits in the free solves
    net, o = R60.net, R60.net.origin
    x1, x2 = LADDER_1.x(1), LADDER_1.x(2)
    kw = {"free": dict(rhs={x1: 1, o: -1}, pin=o),
          "wired": dict(rhs={x1: 1, o: -1}, dirichlet_zero=R60.bd),
          "mixed-sign free": dict(rhs={x1: 1, x2: -1}, pin=o),
          "negative-only wired": dict(rhs={x2: -1}, dirichlet_zero=R60.bd)}[case]
    exact = _hifi.hi_solve(net, R60, field=_hifi.FractionField(), **kw)
    dps = _hifi.auto_dps(net, R60.edge_mask, len(R60.vertices))
    assert dps == 86
    with mp.workdps(dps):
        sol = _hifi.hi_solve(net, R60, field=_hifi.MPField(dps), **kw)
    with mp.workdps(2 * dps):
        for v, e in exact.items():
            ref = _hifi.to_mpf(e)
            assert abs(sol[v] - ref) <= abs(ref) * mp.mpf(10) ** -(dps - 5), (case, v)


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


def test_mp_precision_is_not_leaked():
    deep = LadderGenerator(5, 1.0).ball(301).ball_view(300)
    pot = _assert_dps_kept(lambda: solve_dipole_level(deep, 0, bc="wired", rhs={0: 1}))
    assert pot.hi is not None and pot.dps > 200

    gen = LadderGenerator(5, 0.9)
    split = _assert_dps_kept(lambda: royden_split(gen, 2, levels=20, tol=1e-6))
    assert split.h.hi is not None and split.h.dps == split.v.dps

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

