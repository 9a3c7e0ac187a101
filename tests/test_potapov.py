"""Unit tests for the fundamental block-matrix machinery."""

import sys
import warnings

import numpy as np
import pytest

from stieltjesmp import MomentSequence, momentseq
from stieltjesmp.potapov import (
    FunctionSamples,
    atomic_decomposition_residual,
    congruence_check,
    fq_matrices,
    potapov_matrix,
    potapov_report,
    psi_polynomial,
    sigma_matrix,
)
from stieltjesmp.resolvent import build_resolvent, monomial_stack, \
    standard_grid
from stieltjesmp.solver import lft_solution, verify_solution
from stieltjesmp.stieltjespairs import AtomicMeasure, StieltjesPair, \
    transform

from conftest import atomic_fixture, kge_fixtures, random_hermitian_sequence


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def scalar_f(fn):
    return FunctionSamples(lambda z: [[fn(z)]], 1)


def test_potapov_matrix_hand_example():
    seq = scalar_seq([1, 1])
    f = scalar_f(lambda z: 1.0 / (1.0 - z))
    P = potapov_matrix(seq, 0, f, 1j, 0)
    expected = np.array([[1.0, (1 + 1j) / 2], [(1 - 1j) / 2, 0.5]])
    assert np.allclose(P, expected, atol=1e-14)
    assert abs(np.linalg.eigvalsh(P).min()) < 1e-14
    P1 = potapov_matrix(seq, 0, f, 1j, 1)
    assert np.allclose(P1, expected, atol=1e-14)
    Pend = potapov_matrix(seq, 0, scalar_f(lambda z: -1.0 / z), 1j, -1)
    assert np.allclose(Pend, 0.0, atol=1e-14)


def test_potapov_matrix_rejects_bad_points():
    seq = scalar_seq([1, 1])
    f = scalar_f(lambda z: -1.0 / z)
    with pytest.raises(ValueError):
        potapov_matrix(seq, 0, f, 2.0, 0)
    with pytest.raises(ValueError):
        potapov_matrix(seq, 0, f, 1j, 3)


def test_sigma_matrix_examples():
    seq = scalar_seq([1, 1])
    f = scalar_f(lambda z: 1.0 / (1.0 - z))
    assert np.allclose(sigma_matrix(seq, 0, f, 1j, 0), 0.0, atol=1e-14)


def test_sigma_invariant_under_generalized_inverse():
    for idx in (1, 3):
        mu, seq, n = kge_fixtures(4, seed=2)[idx]
        R = build_resolvent(seq, n)
        f = FunctionSamples(lambda z: transform(mu, z), seq.q)
        z = 0.7 + 1.3j
        for k, g in ((2 * n, R.Hm), (2 * n + 1, R.Hsm)):
            s_mp = sigma_matrix(seq, n, f, z, k)
            s_g = sigma_matrix(seq, n, f, z, k, ginverse=g)
            assert np.linalg.norm(s_mp - s_g) <= \
                1e-10 * (1 + np.linalg.norm(s_mp))


def test_fq_matrices():
    seq = scalar_seq([1, 1])
    f = scalar_f(lambda z: 1.0 / (1.0 - z))
    z = 0.5 + 0.5j
    F, Q = fq_matrices(seq, 0, f, z, 0)
    assert np.allclose(F, f(z))  # n = 0: T = 0 and u_0 = 0
    mu, seq2, n = kge_fixtures(3, seed=6)[1]
    f2 = FunctionSamples(lambda zz: transform(mu, zz), seq2.q)
    F2, Q2 = fq_matrices(seq2, n, f2, z, 2 * n)
    p = (n + 1) * seq2.q
    assert np.array_equal(Q2[:p, :p],
                          np.asarray(potapov_matrix(seq2, n, f2, z, 2 * n)
                                     [:p, :p]))
    # decomposition F(z) = Psi(z) + E(z) f(z) E*(conj z)
    psi = psi_polynomial(seq2, n, 0)
    E = monomial_stack(seq2.q, n, z)
    Ebar = monomial_stack(seq2.q, n, np.conj(z))
    rhs = psi(z) + E @ f2(z) @ Ebar.conj().T
    assert np.linalg.norm(F2 - rhs) <= 1e-12 * (1 + np.linalg.norm(F2))


def test_fq_matrices_rejects_real_points_before_dividing():
    seq = scalar_seq([1, 1])
    f = scalar_f(lambda z: 1.0 / (1.0 - z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="off R"):
            fq_matrices(seq, 0, f, 2.5, 0)


def test_psi_polynomial_examples():
    assert np.allclose(psi_polynomial(scalar_seq([1, 1]), 0, 0)(2.3), 0.0)
    # odd case at n = 0 reduces to the constant y_{0,0} - alpha u_0 = s_0,
    # matching the decomposition F_1(z) = Psi_1(z) + (z - alpha) f(z)
    assert np.allclose(psi_polynomial(scalar_seq([1, 1]), 0, 1)(2.3), 1.0)
    psi = psi_polynomial(scalar_seq([1, 1, 1]), 1, 0)
    assert np.allclose(psi(0.0), [[0.0, 1.0], [1.0, 1.0]])
    rng = np.random.default_rng(5)
    seq = random_hermitian_sequence(rng, 2, 3, alpha=0.2)
    for parity in (0, 1):
        psi = psi_polynomial(seq, 1, parity)
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            val = psi(x)
            assert np.linalg.norm(val - val.conj().T) <= \
                1e-12 * (1 + np.linalg.norm(val))


def test_congruence_check_residuals(rng):
    seq = random_hermitian_sequence(rng, 2, 3, alpha=0.6)
    gamma = np.eye(2)
    mu = AtomicMeasure(0.6, 2, [(1.5, np.eye(2))])
    f = FunctionSamples(lambda z: gamma + transform(mu, z), 2)
    out = congruence_check(seq, 1, f, 1.0 + 1.0j)
    assert out and all(v <= 1e-10 for v in out.values())


def test_congruence_level_zero_p_equals_q():
    seq = scalar_seq([1, 1])
    f = scalar_f(lambda z: 1.0 / (1.0 - z))
    z = 0.3 + 0.9j
    P = potapov_matrix(seq, 0, f, z, 0)
    _, Q = fq_matrices(seq, 0, f, z, 0)
    assert np.allclose(P, Q)
    # corner compression of P_0 is [[s_0, f], [f*, Im f / Im z]]
    out = congruence_check(seq, 0, f, z)
    assert out["compression_even"] <= 1e-14
    assert out["compression_odd"] <= 1e-14


def test_potapov_report_positive_and_negative():
    mu = AtomicMeasure(0.0, 1, [(1.0, [[1.0]])])
    seq = scalar_seq([1, 1])
    good = FunctionSamples(lambda z: transform(mu, z), 1)
    grid = standard_grid(0.0)
    rep = potapov_report(seq, 0, good, grid)
    assert rep.passed
    assert len(rep.points) == 24
    bad_seq = scalar_seq([1, 0])
    rep2 = potapov_report(bad_seq, 0, good, grid)
    assert not rep2.passed
    d = rep.to_dict()
    assert d["passed"] and len(d["lambda_min_even"]) == 24


def test_atomic_decomposition_exact():
    rng = np.random.default_rng(77)
    for q, n, alpha in ((1, 1, 0.0), (2, 1, 0.5), (2, 0, -1.0)):
        mu, seq = atomic_fixture(rng, q, n, alpha)
        for z in (0.4 + 1.1j, alpha - 1.0 - 2.0j):
            for k in (2 * n, 2 * n + 1):
                assert atomic_decomposition_residual(seq, n, mu, z, k) \
                    <= 1e-12


def test_conjugate_reflection_handle():
    f = scalar_f(lambda z: 1.0 / (1.0 - z))
    g = f.conjugate_reflection()
    z = 0.2 + 0.7j
    assert np.allclose(g(z), f(np.conj(z)).conj().T)


def test_potapov_report_evaluates_f_once_per_point():
    mu, seq = atomic_fixture(np.random.default_rng(21), 2, 1, 0.5)
    calls = []

    def evaluator(z):
        calls.append(z)
        return transform(mu, z)

    grid = standard_grid(0.5)
    rep = potapov_report(seq, 1, FunctionSamples(evaluator, 2), grid)
    assert rep.passed
    assert calls == grid


def test_verify_solution_assembles_hankel_matrices_once(monkeypatch):
    # Count through every module namespace that holds the name, so that
    # calls made from any module of the package are seen.
    calls = []
    original = momentseq.block_hankel

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name == "stieltjesmp" or name.startswith("stieltjesmp.")) \
                and getattr(mod, "block_hankel", None) is original:
            monkeypatch.setattr(mod, "block_hankel", counting)
    mu, seq = atomic_fixture(np.random.default_rng(22), 2, 1, -1.0)
    q = seq.q
    S = lft_solution(build_resolvent(seq, 1),
                     StieltjesPair.constant(np.zeros((q, q)), np.eye(q)))
    grid = standard_grid(seq.alpha)
    for candidate in (mu, S):
        counts = []
        for points in (grid[:4], grid):
            calls.clear()
            assert verify_solution(seq, 1, candidate, points)["valid"]
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def test_potapov_report_matches_potapov_matrix():
    rng = np.random.default_rng(23)
    patterns = [dict(), dict(ranks=[1]), dict(include_endpoint=True),
                dict(natoms=1)]
    for q in (1, 2, 3, 5, 8):
        for n in (0, 1, 2):
            for j, pattern in enumerate(patterns):
                alpha = (0.0, 0.5, -1.0)[(q + n + j) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **pattern)
                f = FunctionSamples(lambda z: transform(mu, z), q)
                grid = standard_grid(alpha)
                rep = potapov_report(seq, n, f, grid)
                for i, z in enumerate(grid):
                    for k, lmin in ((2 * n, rep.lmin_even),
                                    (2 * n + 1, rep.lmin_odd),
                                    (-1, rep.lmin_endpoint)):
                        P = potapov_matrix(seq, n, f, z, k)
                        lam = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
                        assert abs(lmin[i] - lam.min()) <= \
                            1e-12 * (1.0 + np.linalg.norm(P))


def test_potapov_report_calls_eigvalsh_once_per_k(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    mu, seq = atomic_fixture(np.random.default_rng(24), 2, 1, 0.5)
    f = FunctionSamples(lambda z: transform(mu, z), 2)
    grid = standard_grid(0.5)
    for points in (grid[:1], grid[:4], grid):
        calls.clear()
        assert potapov_report(seq, 1, f, points).passed
        assert 0 < len(calls) <= 3
        assert all(shape[0] == len(points) for shape in calls)


def test_atomic_decomposition_residual_on_arrays():
    mu, seq = atomic_fixture(np.random.default_rng(25), 3, 1, -1.0)
    zs = np.array(standard_grid(-1.0)[:6])
    for k in (2, 3):
        res = atomic_decomposition_residual(seq, 1, mu, zs, k)
        assert res.shape == (6,)
        for z, r in zip(zs, res):
            one = atomic_decomposition_residual(seq, 1, mu, z, k)
            assert np.ndim(one) == 0
            assert abs(r - one) <= 1e-15 and r <= 1e-12
