"""The window edge sums in float64, mp and Fraction, with Fraction as the
oracle: the finite Gauss-Green identity holds exactly, and the other fields
agree with the exact sums to their precision."""

from fractions import Fraction

import mpmath as mp
import numpy as np
from hypothesis import given, strategies as st

from resbdy import LadderGenerator, _hifi, solve_dipole_level
from resbdy.energy import edge_energy, edge_laplacian, window_edges
from tests.test_hifi import exact_networks

MP_DPS = 40
RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 3))


def _objects(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


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
        c, a, b = window_edges(window, Fraction)
        e = edge_energy(c, a, b, u, v)
        lap = edge_laplacian(c, a, b, v)
        # finite Gauss-Green: E(u, v) = sum_x u(x) (Lap v)(x), exactly
        assert sum(u * lap) == e
        assert sum(lap) == 0
        # error scales: each field rounds the inputs and every product once
        absu, absv = np.abs(u), np.abs(v)
        e_scale = sum(c * (absu[a] + absu[b]) * (absv[a] + absv[b]))
        lap_scale = np.zeros(n, dtype=object)
        np.add.at(lap_scale, a, c * (absv[a] + absv[b]))
        np.add.at(lap_scale, b, c * (absv[a] + absv[b]))

        with mp.workdps(MP_DPS):
            to_mp = np.vectorize(_hifi.to_mpf, otypes=[object])
            cm, am, bm = window_edges(window, mp.mpf)
            um, vm = to_mp(u), to_mp(v)
            em = edge_energy(cm, am, bm, um, vm)
            lapm = edge_laplacian(cm, am, bm, vm)
            tol = mp.mpf(10) ** -(MP_DPS - 5)
            assert abs(em - _hifi.to_mpf(e)) <= tol * e_scale
            for x in range(n):
                assert abs(lapm[x] - lap[x]) <= tol * lap_scale[x]

        cf, af, bf = window_edges(window)
        uf, vf = u.astype(float), v.astype(float)
        assert abs(edge_energy(cf, af, bf, uf, vf) - e) <= 1e-12 * e_scale
        lapf = edge_laplacian(cf, af, bf, vf)
        for x in range(n):
            assert abs(lapf[x] - lap[x]) <= 1e-12 * lap_scale[x]


def test_laplacian_adds_flows_edge_by_edge():
    # at EDGE_SUM_DPS the order of the additions shows in the last digits
    gen = LadderGenerator(5, 0.9)
    window = gen.ball(31).ball_view(30)
    u = solve_dipole_level(window, gen.x(2), bc="free", lane="mp").w
    for field, values in ((mp.mpf, u), (float, u.astype(float))):
        with mp.workdps(_hifi.EDGE_SUM_DPS):
            c, a, b = window_edges(window, field)
            lap = edge_laplacian(c, a, b, values)
            ref = [0] * len(values)
            for ck, ak, bk in zip(c, a, b):
                flow = ck * (values[ak] - values[bk])
                ref[ak] = ref[ak] + flow
                ref[bk] = ref[bk] - flow
        assert list(lap) == ref
