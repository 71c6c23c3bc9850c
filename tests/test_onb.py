import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest

from resbdy import (GeometricHalfLineGenerator, IntegerLatticeGenerator,
                    LadderGenerator, Potential, _hifi, build_finite,
                    build_onb, coefficient_vector, energy,
                    entries_E_via_evaluation, entries_M_via_laplacian,
                    gram_product_check, gram_schmidt, kronecker_sum_check,
                    number_operator, number_pairing_check, p_seminorm,
                    reconstruction_check, solve_dipole_level)
from resbdy.energy import field_of, window_edges
from resbdy.errors import GramDegenerate, InvalidParameters
from resbdy.onb import DEGENERACY_TOL, REORTH_THRESHOLD, _sqrt


def test_single_edge_onb():
    net = build_finite([(0, 1, 1)])
    onb = build_onb(net, 1)
    # ||v_{x_1}||^2 = R(o, x_1) = 1, so eps_1 = v_{x_1}
    assert onb.M[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert onb.E[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert onb.V[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_path3_explicit_gram(path3):
    onb = build_onb(path3, 2)
    # Gram matrix of (v_a, v_b): <v_a, v_a> = 1, <v_a, v_b> = v_b(a) = 1,
    # <v_b, v_b> = 2; Cholesky gives unit pivots
    assert np.allclose(onb.V, [[1.0, 1.0], [1.0, 2.0]], atol=1e-12)
    assert np.allclose(np.diag(onb.M), [1.0, 1.0], atol=1e-12)
    assert np.allclose(onb.E, [[1.0, 0.0], [1.0, 1.0]], atol=1e-12)
    # eps_2 = v_b - v_a (the increment ramp on the second edge)
    eps2 = onb.eps_potential(2)
    assert np.allclose(eps2.at(eps2.window.vertices), [0.0, 0.0, 1.0], atol=1e-10)


def test_inverse_pair(path5):
    onb = build_onb(path5, 4)
    assert np.allclose(onb.E @ onb.M, np.eye(4), atol=1e-9)
    assert np.allclose(onb.M @ onb.E, np.eye(4), atol=1e-9)


def test_orthonormality(grid44):
    onb = build_onb(grid44, 10)
    assert onb.orth_dev <= 1e-9
    for i in (1, 4, 7):
        ei = onb.eps_potential(i)
        assert energy(ei, ei) == pytest.approx(1.0, abs=1e-9)


def test_identity_suite_small_ladder():
    onb = build_onb(LadderGenerator(5, 0.9), 12)
    Mlap, dev_m = entries_M_via_laplacian(onb)
    Eeval, dev_e = entries_E_via_evaluation(onb)
    assert dev_m <= 1e-7
    assert dev_e <= 1e-7
    assert gram_product_check(onb) <= 1e-7
    assert kronecker_sum_check(onb) <= 1e-7
    assert reconstruction_check(onb) <= 1e-8
    assert number_pairing_check(onb) <= 1e-7
    # strict triangularity of the Laplacian entries
    assert np.allclose(np.triu(Mlap, 1), 0.0)


@pytest.mark.parametrize("lane", ["float64", "mp"])
def test_reconstruction_check_keeps_a_nan(path5, lane):
    onb = build_onb(path5, 4, lane=lane)
    Q, M, E, V = onb._work
    E = E.copy()
    # only the last kernel's reconstruction is NaN
    E[-1, 0] = mp.nan if lane == "mp" else np.nan
    onb = dataclasses.replace(onb, _work=(Q, M, E, V))
    assert math.isnan(reconstruction_check(onb))


def test_identity_suite_float64_lane(path5):
    onb = build_onb(path5, 4, lane="float64")
    _, dev_m = entries_M_via_laplacian(onb)
    _, dev_e = entries_E_via_evaluation(onb)
    assert dev_m <= 1e-7 and dev_e <= 1e-7
    assert kronecker_sum_check(onb) <= 1e-7


def test_first_diagonal_entry_is_inverse_norm(path3):
    onb = build_onb(path3, 2)
    v1 = solve_dipole_level(onb.net.full_view(), onb.enumeration[0], bc="free")
    norm = math.sqrt(energy(v1, v1))
    assert onb.M[0, 0] == pytest.approx(1.0 / norm, rel=1e-10)


def test_gram_degenerate_on_duplicate_kernels(path3):
    window = path3.full_view()
    v = solve_dipole_level(window, 1, bc="free")
    with pytest.raises(GramDegenerate):
        gram_schmidt([v, v], [1, 1])


def test_coefficient_vector_of_kernels(path5):
    onb = build_onb(path5, 4)
    window = onb.net.full_view()
    for i, x in enumerate(onb.enumeration):
        v = solve_dipole_level(window, x, bc="free")
        coeffs = coefficient_vector(onb, v)
        assert np.allclose(coeffs, onb.E[i], atol=1e-9)


def test_parseval_truncation(grid44):
    onb = build_onb(grid44, 6)
    rng = np.random.default_rng(3)
    from resbdy import potential_from_values
    for _ in range(5):
        u = potential_from_values(onb.net, rng.standard_normal(onb.net.n),
                                  pinned=True)
        coeffs = coefficient_vector(onb, u)
        assert np.sum(coeffs ** 2) <= energy(u, u) + 1e-9
    # equality when u lies in the kernel span
    combo = (0.7 * onb.eps[:, 0] - 0.2 * onb.eps[:, 3])
    vals = np.zeros(onb.net.n)
    vals[onb.window.vertices] = combo
    u = potential_from_values(onb.net, vals, pinned=True)
    coeffs = coefficient_vector(onb, u)
    assert np.sum(coeffs ** 2) == pytest.approx(energy(u, u), rel=1e-9)


def test_number_operator_eigenvectors():
    e3 = np.zeros(5)
    e3[2] = 1.0
    assert np.allclose(number_operator(e3), 3.0 * e3)
    assert np.allclose(number_operator(np.zeros(4)), 0.0)


def test_p_seminorm_values():
    e_k = np.zeros(6)
    e_k[3] = 1.0  # eps_4
    for p in (0, 1, 2, 3):
        assert p_seminorm(e_k, p) == pytest.approx(4.0 ** (p / 2), rel=1e-12)
    coeffs = np.array([0.5, -0.25, 0.125])
    assert p_seminorm(coeffs, 0) == pytest.approx(
        float(np.linalg.norm(coeffs)), rel=1e-12)
    with pytest.raises(InvalidParameters):
        p_seminorm(coeffs, -1)


def test_p_seminorm_monotone_in_p(rng):
    for _ in range(10):
        coeffs = rng.standard_normal(8)
        vals = [p_seminorm(coeffs, p) for p in range(5)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_nuclear_summability():
    # sum n^{-2} over any truncation stays below pi^2 / 6
    for N in (5, 30, 200):
        s = float(np.sum(1.0 / np.arange(1, N + 1, dtype=float) ** 2))
        assert s < math.pi ** 2 / 6


def test_kronecker_sum_first_entry(path3):
    onb = build_onb(path3, 2)
    Eeval, _ = entries_E_via_evaluation(onb)
    Mlap, _ = entries_M_via_laplacian(onb)
    assert Eeval[0, 0] * Mlap[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_z1_identity_suite_moderate():
    onb = build_onb(IntegerLatticeGenerator(1), 10)
    _, dev_m = entries_M_via_laplacian(onb)
    assert dev_m <= 1e-7
    assert kronecker_sum_check(onb) <= 1e-7


def test_mp_ladder_onb_keeps_the_accuracy_of_sums_rounded_once():
    # with each mp sum rounded after every term the Kronecker sum and the
    # orthonormality were off by 9.3e-41 and 1.0e-40, and the M, E and V
    # deviations were 1.21e-45, 5.65e-46 and 9.03e-51
    onb = build_onb(LadderGenerator(5, 0.9), 30)
    assert kronecker_sum_check(onb) <= 5e-41
    assert onb.orth_dev <= 5e-41
    assert entries_M_via_laplacian(onb)[1] <= 1.21e-45
    assert entries_E_via_evaluation(onb)[1] <= 5.65e-46
    assert gram_product_check(onb) <= 9.03e-51


def test_build_onb_rejects_oversized_N(triangle):
    with pytest.raises(InvalidParameters):
        build_onb(triangle, 5)


# -- the edge-increment construction against the loop it replaced ------------


def _edge_energy(c, a, b, u, v):
    """sum over edges of c (u_a - u_b)(v_a - v_b), formed from the values."""
    return np.sum(c * (u[a] - u[b]) * (v[a] - v[b]), initial=0)


def _reference_gram_schmidt(kernels, enumeration,
                            degeneracy_tol=DEGENERACY_TOL,
                            reorth_threshold=REORTH_THRESHOLD):
    """The earlier construction, for mp and float64 kernels: modified
    Gram-Schmidt with one edge sum of values per inner product. Returns (M,
    E, V, Q, pivot_min), the arrays in the construction field."""
    window = kernels[0].window
    hi = all(k.w.dtype == object for k in kernels)
    K = np.stack([k.w if hi else k.at(window.vertices)
                  for k in kernels], axis=1)
    dot = functools.partial(_edge_energy,
                            *window_edges(window, field_of(K)))
    N = len(kernels)
    V = np.array([[dot(K[:, i], K[:, j]) for j in range(N)]
                  for i in range(N)], dtype=K.dtype)
    Q = np.zeros(K.shape, dtype=K.dtype)
    E = np.zeros((N, N), dtype=K.dtype)
    M = np.zeros((N, N), dtype=K.dtype)

    def project_out(w, n):
        for j in range(n):
            r = dot(Q[:, j], w)
            E[n, j] += r
            w = w - r * Q[:, j]
        return w

    pivot_min = np.inf
    for n in range(N):
        w = project_out(K[:, n], n)
        wn = dot(w, w)
        if n and wn > 0:
            worst = max(abs(dot(Q[:, j], w)) for j in range(n))
            if worst > reorth_threshold * _sqrt(wn):
                w = project_out(w, n)
                wn = dot(w, w)
        if wn <= 0:
            raise GramDegenerate("dependent kernel")
        piv = _sqrt(wn)
        if float(piv) < degeneracy_tol:
            raise GramDegenerate("small pivot")
        pivot_min = min(pivot_min, piv)
        Q[:, n] = w / piv
        E[n, n] = piv
        for k2 in range(n + 1):
            s = 1 if k2 == n else 0
            for j in range(n):
                if E[n, j] and M[j, k2]:
                    s -= E[n, j] * M[j, k2]
            M[n, k2] = s / piv
    return M, E, V, Q, pivot_min


def _kernels_of(onb, lane):
    return [solve_dipole_level(onb.window, x, bc="free", lane=lane)
            for x in onb.enumeration]


@pytest.mark.parametrize("gen, N, lane, rel", [
    (LadderGenerator(5, 0.9), 12, "mp", 1e-44),
    (IntegerLatticeGenerator(2), 10, "float64", 1e-12),
])
def test_gram_schmidt_matches_the_modified_gram_schmidt_loop(gen, N, lane, rel):
    onb = build_onb(gen, N, lane=lane)
    kernels = _kernels_of(onb, lane)
    new = gram_schmidt(kernels, onb.enumeration)
    M, E, V, Q, ref_pivot = _reference_gram_schmidt(kernels, onb.enumeration)
    assert new.field == ("mp" if Q.dtype == object else "float64")
    assert all(got.dtype == Q.dtype for got in new._work)
    for got, want in zip(new._work, (Q, M, E, V)):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))
    if lane == "mp":
        assert new.pivot_min == float(ref_pivot)
    else:
        assert new.pivot_min == pytest.approx(ref_pivot, rel=1e-12)


@pytest.mark.parametrize("lane", ["float64", "mp"])
def test_gram_degenerate_on_duplicate_kernels_with_non_unit_conductances(lane):
    net = build_finite([(0, 1, 2.5), (1, 2, 0.3), (2, 3, 7.0), (1, 3, 0.45)])
    window = net.full_view()
    v = solve_dipole_level(window, 2, bc="free", lane=lane)
    u = solve_dipole_level(window, 1, bc="free", lane=lane)
    with pytest.raises(GramDegenerate):
        gram_schmidt([u, v, v], [1, 2, 2])


def test_float64_pivot_of_nearly_dependent_kernels_is_an_edge_sum():
    # K2 = K1 + 1e-8 phi: the residual's edge sum keeps the pivot to ~1e-8
    # relative, where the Gram route V[n, n] - e.e cancels to 0
    net = build_finite([(0, 1, 2.5), (1, 2, 0.3), (2, 3, 7.0), (1, 3, 0.45),
                        (0, 2, 1.7), (0, 3, 0.9)])
    window = net.full_view()
    k1 = solve_dipole_level(window, 2, bc="free", lane="float64")
    phi = solve_dipole_level(window, 3, bc="free", lane="float64")
    k2 = Potential(window, k1.w + 1e-8 * phi.w)
    onb = gram_schmidt([k1, k2], [2, 3])
    with mp.workdps(50):
        edges = window_edges(window, mp.mpf)
        K1, K2 = (np.array([mp.mpf(float(x)) for x in k.w], dtype=object)
                  for k in (k1, k2))
        e11, e12, e22 = (_edge_energy(*edges, a, b)
                         for a, b in ((K1, K1), (K1, K2), (K2, K2)))
        ref = float(mp.sqrt(e22 - e12 ** 2 / e11))
    assert onb.pivot_min == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("N", [20, 25])
def test_reorthogonalization_keeps_float64_half_line_orthonormal(N):
    # without the second pass the float64 basis drifts to 5e-10 at N=20
    # and to 7e-8 at N=25
    onb = build_onb(GeometricHalfLineGenerator(2), N, lane="float64")
    assert onb.orth_dev <= 1e-9


@pytest.mark.parametrize("N", [20, 25, 30])
def test_float64_basis_is_orthonormal_to_rounding(N):
    # a second pass on every float64 step; one gated by REORTH_THRESHOLD
    # left the half-line basis at 8e-11
    onb = build_onb(GeometricHalfLineGenerator(2), N, lane="float64")
    assert onb.orth_dev <= 1e-13


def test_mp_build_never_formats_an_mpf(monkeypatch):
    # an mpf on the left of an array product formats the whole array
    # through repr() before numpy takes over
    def refuse(self):
        raise AssertionError("an mpf was formatted")
    monkeypatch.setattr(_hifi.MPField(_hifi.EDGE_SUM_DPS).number, "__repr__",
                        refuse)
    onb = build_onb(LadderGenerator(5, 0.9), 8)
    assert onb.field == "mp" and onb.orth_dev <= 1e-9


def test_build_onb_keeps_the_ids_of_a_finite_network():
    # 20 vertices, origin at the far end: the window is a ball inside the path
    path = build_finite([(i, i + 1, 1) for i in range(19)], origin=19)
    onb = build_onb(path, 2)
    assert onb.enumeration == [18, 17]
    assert onb.net is path
    assert np.allclose(onb.V, [[1.0, 1.0], [1.0, 2.0]], atol=1e-12)
    with pytest.raises(InvalidParameters):
        build_onb(path, 5, radius=2)
