"""The high-precision lane: sparse elimination against a dense exact oracle,
the raw-number elimination against the number type's own operators,
componentwise accuracy of the mp field, and mp numbers that carry their own
precision, whatever mpmath's global one is."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resbdy import (Exhaustion, GeometricHalfLineGenerator, LadderGenerator,
                    Network, boundary_sum_harmonic, build_finite, build_onb,
                    energy, entries_E_via_evaluation, entries_M_via_laplacian,
                    gauss_green_verify, gram_product_check,
                    kronecker_sum_check, reconstruction_check, royden_split,
                    solve_dipole_level)
from resbdy import SubgraphView, _hifi, boundary, solver
from resbdy.energy import potential_difference, window_edges
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
                                      pin=pin, field=_hifi.FractionField())[0]))
        oracle = dense_fraction_solve(net, window, rhs, unknowns)
        assert sol.keys() == set(window.vertices.tolist())
        for v in unknowns:
            assert sol[v] == oracle[v], (bc, v)
        for v in held:
            assert sol.get(v, 0) == 0
        # the mp field at its fixed precision agrees to far beyond float64
        field = _hifi.MPField(_hifi.EDGE_SUM_DPS)
        hi = dict(zip(window.vertices.tolist(),
                      _hifi.hi_solve(net, window, rhs, dirichlet_zero=drop,
                                     pin=pin, field=field)[0]))
        exact = {v: _hifi.to_mpf(oracle[v], field.number) for v in unknowns}
        scale = max(abs(x) for x in exact.values())
        for v in unknowns:
            assert abs(hi[v] - exact[v]) <= scale * field.number(10) ** -30
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
LADDER_09 = LadderGenerator(5, 0.9)
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


P = _hifi.EDGE_SUM_DPS


def mp_solve(window, dps, **kw):
    """``hi_solve`` on a ladder window in an MPField of ``dps`` digits."""
    return _hifi.hi_solve(window.net, window, field=_hifi.MPField(dps), **kw)


@given(exact_networks())
@example(SPREAD_1E24)
def test_fraction_currents_are_exact(net):
    # the Fraction field carries the same differences, exactly
    window = net.full_view()
    o = net.origin
    x, i = _hifi.hi_solve(net, window, {int(window.vertices[-1]): 1, o: -1},
                          pin=o, field=_hifi.FractionField())
    c, a, b = window_edges(window, Fraction)
    assert list(i) == list(c * (x[a] - x[b]))


def operator_solve(window, field, rhs, dirichlet_zero=(), pin=None):
    """``hi_solve``'s elimination as it ran on the number type's own
    operators, kept as the reference for the one on raw numbers: (x, i)."""
    held = list(dirichlet_zero) + ([] if pin is None else [pin])
    live, g, (u, v, c), b = _hifi.grounded_system(window, held, rhs,
                                                  field.number)
    verts = window.vertices[live]
    order = np.lexsort((verts, window.net.level[verts]))[::-1]
    n = len(order)
    elim = np.full(len(window.vertices), -1, dtype=np.int64)
    elim[live[order]] = np.arange(n)
    cond = [{} for _ in range(n)]
    for i, j, cij in zip(elim[live][u].tolist(), elim[live][v].tolist(), c):
        cond[min(i, j)][max(i, j)] = cij
    g, x = g[order].tolist(), b[order].tolist()
    weights, diff = [None] * n, [None] * n
    for k in range(n):
        row = sorted(cond[k].items())
        gk = piv = g[k]
        for _, c in row:
            piv = piv + c
        r = 1 / piv
        ts = [(i, c * r) for i, c in row]
        bk = x[k]
        for a, (i, t) in enumerate(ts):
            if gk:
                g[i] = g[i] + t * gk
            if bk:
                x[i] = x[i] + t * bk
            for j, c in row[a + 1:]:
                old = cond[i].get(j)
                cond[i][j] = t * c if old is None else old + t * c
        x[k], g[k], weights[k] = bk * r, gk * r, ts
    for k in range(n - 1, -1, -1):
        ts, y, q = weights[k], x[k], g[k]
        s = y
        for j, t in ts:
            s = s + t * x[j]
        diff[k] = {}
        for m, _ in ts:
            d = y - q * x[m] if q else y
            for j, t in ts:
                if j < m:
                    d = d + t * diff[j][m]
                elif j > m:
                    d = d - t * diff[m][j]
            diff[k][m] = d
        x[k] = s
    c, ea, eb = window_edges(window, field.number)
    zero, i = field.number(0), np.empty(len(c), dtype=object)
    for e, (ce, p, q) in enumerate(zip(c, elim[ea], elim[eb])):
        if p < 0:
            i[e] = zero if q < 0 else -(ce * x[q])
        elif q < 0:
            i[e] = ce * x[p]
        else:
            i[e] = ce * diff[p][q] if p < q else -(ce * diff[q][p])
    sol = np.full(len(window.vertices), zero, dtype=object)
    sol[live[order]] = x
    return sol, i


HALF_LINE = GeometricHalfLineGenerator(2).ball(41).ball_view(40)


@pytest.mark.parametrize("window, case", [
    *((w, case) for w in (R60, R300) for case in CASES),
    (HALF_LINE, "free"), (HALF_LINE, "wired")],
    ids=[*(f"R{r}-{case}" for r in (60, 300) for case in CASES),
         "half-line-free", "half-line-wired"])
def test_raw_elimination_keeps_the_operators_bits(window, case):
    # the raw-number arithmetic calls what mpf's operators call, at the
    # same precision and rounding: every value and current keeps its bits
    if window is HALF_LINE:
        o, x = window.net.origin, 3
        kw = {"free": dict(rhs={x: 1, o: -1}, pin=o),
              "wired": dict(rhs={x: 1}, dirichlet_zero=window.bd)}[case]
    else:
        kw = ladder_case(window, case)
    field = _hifi.MPField(P)
    got = _hifi.hi_solve(window.net, window, field=field, **kw)
    want = operator_solve(window, field, **kw)
    assert type(got[0][0]) is field.number
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("case", CASES)
def test_mp_solve_is_componentwise_accurate(case):
    # conductances 1 .. 5^60; an elimination that subtracts loses ~40 digits
    # in the free solves, this one a few units in the last place
    net = R60.net
    kw = ladder_case(R60, case)
    exact = dict(zip(R60.vertices.tolist(),
                     _hifi.hi_solve(net, R60, field=_hifi.FractionField(), **kw)[0]))
    sol = dict(zip(R60.vertices.tolist(), mp_solve(R60, P, **kw)[0]))
    # the reference and every difference (its left operand) at 2P digits
    mpf2 = _hifi.MPField(2 * P).number
    tol = mpf2(10) ** -(P - 5)
    for v, e in exact.items():
        ref = _hifi.to_mpf(e, mpf2)
        assert abs(ref - sol[v]) <= abs(ref) * tol, (case, v)


def assert_currents_accurate(window, kw):
    """Every current of the P-digit solve matches the same solve at 2P
    digits to within 10^-(P - 8) of itself."""
    _, i = mp_solve(window, P, **kw)
    _, ref = mp_solve(window, 2 * P, **kw)
    # each difference at 2P digits, the precision of its left operand
    tol = _hifi.MPField(2 * P).number(10) ** -(P - 8)
    worst = max(abs(r - a) / abs(r) if r else abs(a) for a, r in zip(i, ref))
    assert worst <= tol, mp.nstr(worst, 3)


@pytest.mark.parametrize("window", [R60, R300], ids=["R60", "R300"])
@pytest.mark.parametrize("case", CASES)
def test_mp_edge_currents_are_accurate(case, window):
    # conductances 1 .. 5^300; each current is right relative to itself
    assert_currents_accurate(window, ladder_case(window, case))


@pytest.mark.parametrize("window", [LADDER_1.ball(2501).ball_view(2500),
                                    LADDER_09.ball(211).ball_view(210)],
                         ids=["ladder(5,1)-R2500", "ladder(5,0.9)-R210"])
@pytest.mark.parametrize("case", ["free", "wired"])
def test_mp_edge_currents_are_accurate_on_deep_windows(window, case):
    # criterion 9's windows: conductances up to 5^2500, and rungs down to
    # 0.9^210 on ladder(5, 0.9)
    assert_currents_accurate(window, ladder_case(window, case))


def test_mp_edge_sums_read_the_currents(monkeypatch):
    # ladder(5, 1) at R=500: the float mirror overflows (5^500 > 1e308), and
    # sums formed from values at P digits would lose all of them; each value
    # matches the same computation run at 2P digits throughout
    gen = LADDER_1
    ambient = gen.ball(501)
    window = ambient.ball_view(500)
    x = gen.x(1)
    assert not np.isfinite(window.net.ec[window.edge_mask]).all()

    def sums():
        v = solve_dipole_level(window, x, bc="free", lane="mp")
        f = solve_dipole_level(window, x, bc="wired", lane="mp")
        h = potential_difference(v, f)
        gg = gauss_green_verify(h, v, (250, 499))
        bs = boundary_sum_harmonic(gen, lambda u: float(u % 2), x, lane="mp")
        return [energy(v, v), energy(f, f), energy(h, h),
                *gg.interior, *gg.boundary,
                *gg.window_energies, *bs.sums]

    monkeypatch.setattr(boundary, "default_exhaustion",
                        lambda source, levels: Exhaustion.build(source, [500]))
    got = sums()
    monkeypatch.setattr(_hifi, "EDGE_SUM_DPS", 2 * P)
    ref = sums()
    assert np.isfinite(got).all()
    assert np.all(np.abs(np.subtract(got, ref)) <= 1e-40 * np.abs(ref)), \
        (got, ref)


@pytest.mark.parametrize("field", [_hifi.FractionField(), _hifi.MPField(30)])
def test_free_solve_on_disconnected_window_is_singular(field):
    # the path 0-1-2-3-4 seen through {0, 1, 3, 4}: {3, 4} has no path to the pin
    net = build_finite([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
    window = SubgraphView(net, [0, 1, 3, 4])
    with pytest.raises(SingularSystem):
        _hifi.hi_solve(net, window, {1: 1, 0: -1}, pin=0, field=field)


def _at_caller_precisions(fn):
    """fn() run with mpmath's global precision at 5 and at 200 digits: both
    results, each run checked to leave that precision as it found it."""
    saved = mp.mp.dps
    out = []
    try:
        for dps in (5, 200):
            mp.mp.dps = dps
            out.append(fn())
            assert mp.mp.dps == dps
    finally:
        mp.mp.dps = saved
    return out


def _bits(x):
    """x as data that compares equal only when it is bit for bit the same:
    a number array by its dtype and bytes, or by each entry's type and mpf
    mantissa and exponent (a Fraction by its value); a tuple part by part."""
    if isinstance(x, tuple):
        return [_bits(part) for part in x]
    x = np.asarray(x)
    if x.dtype != object:
        return x.dtype.str, x.shape, x.tobytes()
    return x.shape, [(type(v), getattr(v, "_mpf_", v)) for v in x.ravel()]


def test_hi_solve_never_touches_the_global_precision():
    # a solve that raises mid-elimination and one that returns both leave
    # mpmath's global precision where the caller set it
    saved = mp.mp.prec
    try:
        mp.mp.dps = 23
        prec = mp.mp.prec
        net = build_finite([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
        with pytest.raises(SingularSystem):
            _hifi.hi_solve(net, SubgraphView(net, [0, 1, 3, 4]), {1: 1, 0: -1},
                           pin=0, field=_hifi.MPField(30))
        assert mp.mp.prec == prec
        x1, o = LADDER_1.x(1), R300.net.origin
        sol, _ = _hifi.hi_solve(R300.net, R300, {x1: 1, o: -1},
                                dirichlet_zero=R300.bd, field=_hifi.MPField(P))
        assert mp.mp.prec == prec
        assert sol[R300.index(x1)] > 0
    finally:
        mp.mp.prec = saved


def test_mp_precision_is_not_leaked():
    # every call gives the same bits at caller precisions of 5 and 200
    # digits, in the lane's own mpf type
    mpf = _hifi.MPField(P).number
    deep = LadderGenerator(5, 1.0).ball(301).ball_view(300)
    for lane, window, number in (("mp", deep, mpf), ("fraction", R60, Fraction)):
        pots = _at_caller_precisions(lambda: solve_dipole_level(
            window, 0, bc="wired", rhs={0: 1}, lane=lane))
        assert type(pots[0].w[0]) is number and type(pots[0].i[0]) is number
        a, b = ([_bits(p.w), _bits(p.i)] for p in pots)
        assert a == b

    gen = LadderGenerator(5, 0.9)
    splits = _at_caller_precisions(
        lambda: royden_split(gen, 2, levels=20, tol=1e-6))
    assert type(splits[0].h.w[0]) is mpf and splits[0].h.i is not None
    a, b = ([repr(s.to_dict()), _bits(s.h.w), _bits(s.h.i)] for s in splits)
    assert a == b

    checks = (entries_M_via_laplacian, entries_E_via_evaluation,
              gram_product_check, kronecker_sum_check, reconstruction_check)

    def onb_run():
        onb = build_onb(gen, 6)
        assert onb.field == "mp" and type(onb._flows[0, 0]) is mpf
        return [_bits((*onb._work, onb._flows, onb.M, onb.E, onb.orth_dev,
                       onb.pivot_min)), *(_bits(check(onb)) for check in checks)]
    a, b = _at_caller_precisions(onb_run)
    assert a == b

    lh = ladder_harmonic(5, 0.9, 20)
    reps = _at_caller_precisions(
        lambda: boundary_sum_harmonic(gen, lh.value, gen.x(1), levels=12))
    assert reps[0].sums
    assert repr(reps[0].to_dict()) == repr(reps[1].to_dict())


def test_onb_checks_run_at_construction_precision():
    onb = build_onb(LadderGenerator(5, 0.9), 6)
    devs = []
    for dps in (15, 400):
        with mp.workdps(dps):
            devs.append((entries_E_via_evaluation(onb)[1], gram_product_check(onb)))
    assert devs[0] == devs[1]

