"""The window edge sums (``edge_currents`` with ``current_energy`` and
``flow_laplacian``) in float64, mp and Fraction, with Fraction as the oracle:
the finite Gauss-Green identity holds exactly, and the other fields agree
with the exact sums to their precision. The products (``_product``) round
each mp sum once and leave float64 and Fraction to ``@``."""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from resbdy import LadderGenerator, Potential, _hifi, solve_dipole_level
from resbdy.energy import (_product, current_energy, edge_currents,
                           flow_laplacian)
from tests.test_hifi import exact_networks

MP_DPS = 40
RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 3))


def _objects(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _sums(window, u, v):
    """(c, a, b, E(u, v), Lap v) over the window's edge currents of the
    values u and v, in the field ``edge_currents`` takes them in."""
    c, a, b, (iu, iv) = edge_currents(window, Potential(window, u),
                                      Potential(window, v))
    return c, a, b, current_energy(c, iu, iv), flow_laplacian(a, b, iv, len(v))


def _windows(net):
    """The whole network and its radius-(depth - 1) ball, which has edges
    leaving it."""
    return [net.full_view(), net.ball_view(int(net.level.max()) - 1)]


@given(exact_networks(), st.data())
def test_edge_sums_agree_across_fields(net, data):
    for window in _windows(net):
        n = len(window.vertices)
        u, v = (_objects(data.draw(st.lists(RATIONALS, min_size=n, max_size=n)))
                for _ in range(2))
        c, a, b, e, lap = _sums(window, u, v)
        # finite Gauss-Green: E(u, v) = sum_x u(x) (Lap v)(x), exactly
        assert sum(u * lap) == e
        assert sum(lap) == 0
        # error scales: each field rounds the inputs and every product once
        absu, absv = np.abs(u), np.abs(v)
        e_scale = sum(c * (absu[a] + absu[b]) * (absv[a] + absv[b]))
        lap_scale = np.zeros(n, dtype=object)
        np.add.at(lap_scale, a, c * (absv[a] + absv[b]))
        np.add.at(lap_scale, b, c * (absv[a] + absv[b]))

        mpf = _hifi.MPField(MP_DPS).number
        to_mp = np.vectorize(lambda x: _hifi.to_mpf(x, mpf), otypes=[object])
        _, _, _, em, lapm = _sums(window, to_mp(u), to_mp(v))
        tol = mpf(10) ** -(MP_DPS - 5)
        assert abs(em - _hifi.to_mpf(e, mpf)) <= tol * e_scale
        for x in range(n):
            assert abs(lapm[x] - lap[x]) <= tol * lap_scale[x]

        _, _, _, ef, lapf = _sums(window, u.astype(float), v.astype(float))
        assert abs(ef - e) <= 1e-12 * e_scale
        for x in range(n):
            assert abs(lapf[x] - lap[x]) <= 1e-12 * lap_scale[x]

        # an exact potential carrying its currents, paired with a float64
        # one: both currents are read in float64
        exact = Potential(window, u, i=c * (u[a] - u[b]))
        cf, _, _, (iu, iv) = edge_currents(window, exact,
                                           Potential(window, v.astype(float)))
        assert cf.dtype == iu.dtype == iv.dtype == float
        assert abs(current_energy(cf, iu, iv) - e) <= 1e-12 * e_scale


def test_laplacian_adds_flows_edge_by_edge():
    # at EDGE_SUM_DPS the order of the additions shows in the last digits
    gen = LadderGenerator(5, 0.9)
    window = gen.ball(31).ball_view(30)
    u = solve_dipole_level(window, gen.x(2), bc="free", lane="mp")
    for pot in (u, Potential(window, u.w.astype(float))):
        _, a, b, (flows,) = edge_currents(window, pot)
        lap = flow_laplacian(a, b, flows, len(pot.w))
        ref = [0] * len(pot.w)
        for flow, ak, bk in zip(flows, a, b):
            ref[ak] = ref[ak] + flow
            ref[bk] = ref[bk] - flow
        assert list(lap) == ref


# -- products: every mp sum rounded once --------------------------------------

MP50 = _hifi.MPField(_hifi.EDGE_SUM_DPS).number


def _exact(x):
    """An mpf as the Fraction it is."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _rounded_once(got, exact):
    """Whether got lies within half an ulp of the exact value: rounding to
    nearest at p bits moves a number by at most 2^-p of itself."""
    return abs(_exact(got) - exact) <= abs(exact) / 2 ** MP50.context.prec


def _exact_dot(u, v):
    return sum((_exact(a) * _exact(b) for a, b in zip(u, v)), Fraction(0))


@st.composite
def cancelling_products(draw):
    """(A, x): an mp matrix and vector whose products span under 2P bits
    (2^120 to 2^400), where every row also holds the negation of some of
    its terms, in any order, so its sum cancels."""
    def number():
        man = draw(st.integers(2 ** 100, 2 ** 160)) * draw(st.sampled_from([-1, 1]))
        return MP50.context.ldexp(MP50(man), draw(st.integers(-40, 40)))
    n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    x = [number() for _ in range(n)]
    A = [[number() for _ in range(n)] for _ in range(rows)]
    back = draw(st.lists(st.integers(0, n - 1), max_size=n))
    order = draw(st.permutations(range(n + len(back))))
    x = [(x + [x[k] for k in back])[k] for k in order]
    A = [[(row + [-row[k] for k in back])[k] for k in order] for row in A]
    return np.array(A, dtype=object), _objects(x)


@given(cancelling_products())
def test_product_rounds_each_mp_sum_once(terms):
    A, x = terms
    got = _product(A, x)
    for row, entry in zip(A, got):
        assert _rounded_once(entry, _exact_dot(row, x))
        assert _product(row, x) == entry
    # x @ A^T takes the same sums
    assert list(_product(x, A.T)) == list(got)


@given(cancelling_products())
def test_product_is_the_contexts_fdot_bit_for_bit(terms):
    A, x = terms
    fdot = MP50.context.fdot
    for row, entry in zip(A, _product(A, x)):
        assert entry._mpf_ == fdot(list(row), list(x))._mpf_
    # an entry that is no mpf is left to fdot, which converts it
    y = _objects(list(x[:-1]) + [3])
    assert _product(A[0], y)._mpf_ == fdot(list(A[0]), list(y))._mpf_


def test_product_rounds_a_cancelling_sum_once():
    third = MP50(1) / 3
    u = _objects([third, MP50(10) ** -40 / 7, -third])
    v = _objects([MP50(3), MP50(1), MP50(3)])
    exact = _exact_dot(u, v)
    assert _rounded_once(_product(u, v), exact)
    assert _rounded_once(_product(np.stack([u, v]), v)[0], exact)
    # rounding after each term keeps about 36 bits of the small one
    assert not _rounded_once(u @ v, exact)


def test_product_keeps_a_nan():
    nan = MP50("nan")
    u = _objects([MP50(1), nan, MP50(2)])
    v = _objects([MP50(3), MP50(4), MP50(5)])
    isnan = MP50.context.isnan
    assert isnan(_product(u, v)) and isnan(_product(v, u))
    rows = _product(np.stack([u, v]), v)
    assert isnan(rows[0]) and rows[1] == 50
    c = _objects([MP50(2)] * 3)
    assert isnan(current_energy(c, u, v)) and isnan(current_energy(c, v, u))


@given(st.lists(st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS),
                min_size=1, max_size=6))
def test_fraction_products_are_exact_as_before(rows):
    A = np.array([r[:2] for r in rows], dtype=object)
    x, c = (_objects([r[k] for r in rows]) for k in (2, 3))
    assert list(_product(A.T, x)) == list(A.T @ x)
    assert list(_product(x, A)) == list(x @ A)
    assert _product(x, x) == x @ x
    c = np.where(c == 0, Fraction(1), c)
    assert current_energy(c, x, A[:, 0]) == np.sum(x * A[:, 0] / c, initial=0)


def test_float64_products_keep_their_bits():
    rng = np.random.default_rng(7)
    A, x = rng.standard_normal((9, 40)), rng.standard_normal(40)
    c = rng.uniform(0.1, 10.0, 40)
    assert _product(A, x).tobytes() == (A @ x).tobytes()
    assert _product(x, A.T).tobytes() == (x @ A.T).tobytes()
    assert _product(x, x) == x @ x
    assert current_energy(c, x, A[0]) == np.sum(x * A[0] / c, initial=0)


def test_current_energy_matches_a_100_digit_sum_on_a_deep_ladder():
    # conductances up to 5^300; summed term by term at 50 digits the
    # energy was off by 1.6e-49 relative
    gen = LadderGenerator(5, 1)
    window = gen.ball(301).ball_view(300)
    v = solve_dipole_level(window, gen.x(2), bc="free", lane="mp")
    c, _, _, (i,) = edge_currents(window, v)
    ref = _hifi.MPField(100).number
    want = sum((ref(x) * ref(x) / ref(cx) for x, cx in zip(i, c)), ref(0))
    assert abs(ref(current_energy(c, i, i)) - want) <= 1e-50 * want
