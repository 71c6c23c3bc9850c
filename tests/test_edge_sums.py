"""The window edge sums (``edge_currents`` with ``current_energy`` and
``flow_laplacian``) in float64, mp and Fraction, with Fraction as the oracle:
the finite Gauss-Green identity holds exactly, and the other fields agree
with the exact sums to their precision."""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from resbdy import LadderGenerator, Potential, _hifi, solve_dipole_level
from resbdy.energy import current_energy, edge_currents, flow_laplacian
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
