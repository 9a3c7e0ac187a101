"""Unit tests for the fundamental block-matrix machinery."""

import re
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from stieltjesmp import MomentSequence, ToleranceConfig, momentseq
from stieltjesmp.matcore import _fro
from stieltjesmp.potapov import _adjoint, _coupling, _im_quotient, \
    potapov_report
from stieltjesmp.resolvent import build_resolvent, standard_grid
from stieltjesmp.solver import lft_solution, verify_solution
from stieltjesmp.stieltjespairs import AtomicMeasure, StieltjesPair, \
    moments_of, transform

from conftest import WEIGHT_PATTERNS, atomic_fixture, kge_fixtures, \
    random_hermitian_sequence, scalar_seq
from identities import _column_data, atomic_decomposition_residual, \
    congruence_check, conjugate_reflection, \
    decomposition_residual_per_atom, fq_matrices, fundamental_corner, \
    monomial_stack, potapov_matrix, psi_polynomial, reflexive_inverses, \
    sigma_matrix


def scalar_f(fn):
    """The 1 x 1 matrix function of a point with value fn(z)."""
    return lambda z: np.array([[fn(z)]], dtype=complex)


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


def test_p_odd_is_p_even_of_the_shifted_sequence():
    # P_2n+1[f](z) of a sequence is P_2n[(z - alpha) f(z) + s_0](z) of its
    # right-alpha-shifted sequence: the corner Hs_n is H_n of the shifted
    # sequence, the column -alpha u_n - y_{0,n} its u_n minus v s_0, and
    # the diagonal block is unchanged as s_0 is Hermitian.  Both sides
    # are assembled by the oracle from the definitions.
    worst = 0.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for q in (1, 2, 3):
            for n in (0, 1, 2):
                for alpha in (0.0, 0.5, -1.0):
                    mu, seq = atomic_fixture(rng, q, n, alpha)
                    shifted = momentseq.shift_right(seq)
                    f = partial(transform, mu)

                    def g(z, f=f, alpha=alpha, s0=seq.moments[0]):
                        return (z - alpha) * f(z) + s0

                    for z in standard_grid(alpha):
                        odd = potapov_matrix(seq, n, f, z, 2 * n + 1)
                        even = potapov_matrix(shifted, n, g, z, 2 * n)
                        worst = max(worst, np.linalg.norm(odd - even)
                                    / np.linalg.norm(odd))
    assert worst <= 1e-14


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
        f = partial(transform, mu)
        z = 0.7 + 1.3j
        for k, g in zip((2 * n, 2 * n + 1), reflexive_inverses(R)):
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
    f2 = partial(transform, mu)
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
    out = congruence_check(seq, 1, lambda z: gamma + transform(mu, z),
                           1.0 + 1.0j)
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
    grid = standard_grid(0.0)
    good = transform(mu, np.array(grid))
    rep = potapov_report(seq, 0, good, grid)
    assert rep.passed
    assert len(rep.points) == 24
    bad_seq = scalar_seq([1, 0])
    rep2 = potapov_report(bad_seq, 0, good, grid)
    assert not rep2.passed
    d = rep.to_dict()
    assert d["passed"] and len(d["sigma_min_even"]) == 24


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
    g = conjugate_reflection(f)
    z = 0.2 + 0.7j
    assert np.allclose(g(z), f(np.conj(z)).conj().T)


def test_potapov_report_refuses_misshaped_and_nonfinite_values():
    mu, seq = atomic_fixture(np.random.default_rng(21), 2, 1, 0.5)
    grid = standard_grid(0.5)
    fz = transform(mu, np.array(grid))
    assert potapov_report(seq, 1, fz, grid).passed
    for bad in (fz[:-1], fz[:, :1], fz[0], fz.reshape(len(grid), 4),
                np.concatenate([fz, fz])):
        with pytest.raises(ValueError, match="shape"):
            potapov_report(seq, 1, bad, grid)
    # A function of scalars gives one number per point, not a 1 x 1
    # matrix; its values are refused rather than broadcast.
    scalar = scalar_seq([1, 1])
    grid0 = standard_grid(0.0)
    values = np.array([1.0 / (1.0 - z) for z in grid0])
    with pytest.raises(ValueError, match="shape"):
        potapov_report(scalar, 0, values, grid0)
    assert potapov_report(scalar, 0, values[:, None, None], grid0).passed
    # A value that is not finite is refused, naming the first such point.
    for value in (np.nan, np.inf, complex(0.0, -np.inf)):
        for first, later in ((0, 5), (3, 23), (17, 18)):
            bad = fz.copy()
            bad[later] = value
            bad[first, 1, 0] = value
            name = re.escape(f"f({grid[first]}) is not finite")
            with pytest.raises(ValueError, match=name):
                potapov_report(seq, 1, bad, grid)


def test_verify_solution_assembles_hankel_matrices_once(monkeypatch):
    # Count through every module namespace that holds the name, so that
    # calls made from any module of the package are seen.  Only the
    # stacks of seq and of its shifted sequence count: the decomposition
    # residual assembles the corner of the atoms' moments on each call.
    calls = []
    original = momentseq.block_hankel

    def counting(s, n):
        calls.append((s, n))
        return original(s, n)

    for name, mod in list(sys.modules.items()):
        if (name == "stieltjesmp" or name.startswith("stieltjesmp.")) \
                and getattr(mod, "block_hankel", None) is original:
            monkeypatch.setattr(mod, "block_hankel", counting)
    mu, seq = atomic_fixture(np.random.default_rng(22), 2, 1, -1.0)
    q = seq.q
    pair = StieltjesPair.constant(np.zeros((q, q)), np.eye(q))
    S = lft_solution(build_resolvent(seq, 1), pair)
    # The same data under another sequence object, with data of its own.
    other = MomentSequence(seq.alpha, q, seq.moments)
    S_other = lft_solution(build_resolvent(other, 1), pair)
    assert S_other.resolvent.data is not S.resolvent.data
    grid = standard_grid(seq.alpha)
    own = (seq.moments, momentseq.shift_right(seq).moments)
    # While S holds the Hankel data of seq, every check on seq reads it,
    # whatever the candidate, and so does a report on any grid.
    for candidate in (mu, S, S_other):
        calls.clear()
        assert verify_solution(seq, 1, candidate)["valid"]
        for points in (grid[:4], grid):
            z = np.array(points)
            fz = transform(mu, z) if candidate is mu else candidate(z)
            assert potapov_report(seq, 1, fz, points).passed
        assert not [n for s, n in calls
                    if any(np.array_equal(s, o) for o in own)]


def _schur_oracle(P, q, tau):
    """lambda_min of the Hermitian part of Sigma^tau = d - c* (H + tau
    I)^-1 c for P = [[H, c], [c*, d]], solved with a Cholesky factor of
    H + tau I; lambda_min(H) where H + tau I is not positive definite.
    (An explicit inverse of H + tau I loses up to eps cond(H + tau I)
    when H is singular, far above the 1e-12 this oracle is held to.)"""
    p = P.shape[0] - q
    H, c, d = P[:p, :p], P[:p, p:], P[p:, p:]
    hmin = np.linalg.eigvalsh(H).min()
    if hmin + tau <= 0.0:
        return hmin
    Y = np.linalg.solve(np.linalg.cholesky(H + tau * np.eye(p)), c)
    return np.linalg.eigvalsh(0.5 * (d + d.conj().T) - Y.conj().T @ Y).min()


def test_potapov_report_refuses_a_nonfinite_grid_point():
    # A grid point that is not finite is refused by name, whatever the
    # values there, rather than reported as a failed test.
    mu = AtomicMeasure(0.0, 1, [(0.5, [[1.0]]), (2.0, [[0.5]])])
    seq = moments_of(mu, 3)
    assert potapov_report(seq, 1, transform(mu, [1j, 2j]), [1j, 2j]).passed
    for bad in (complex(0.0, np.inf), complex(np.nan, 1.0),
                complex(np.inf, 1.0)):
        grid = [1j, bad, 2j]
        fz = transform(mu, np.array([1j, 3j, 2j]))
        with pytest.raises(ValueError, match=re.escape(
                f"grid point {bad} is not finite")):
            potapov_report(seq, 1, fz, grid)
    with pytest.raises(ValueError, match="grid point"):
        potapov_report(seq, 1, transform(mu, [1j]), [complex("infj")])


def test_potapov_report_decides_on_the_schur_complement(monkeypatch):
    shapes = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    rng = np.random.default_rng(23)
    patterns = [dict(), dict(ranks=[1]), dict(include_endpoint=True),
                dict(natoms=1)]
    outcomes = set()
    for q in (1, 2, 3, 5, 8):
        for n in (0, 1, 2):
            for j, pattern in enumerate(patterns):
                alpha = (0.0, 0.5, -1.0)[(q + n + j) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **pattern)
                held = seq.hankel()   # every call below reads it
                grid = standard_grid(alpha)
                eps = 10.0 ** rng.uniform(-12.0, -1.0)
                for shift in (0.0, eps, -eps):
                    def f(z, s=shift):
                        return transform(mu, z) + s * np.eye(q)
                    fz = np.array([f(z) for z in grid])
                    shapes.clear()
                    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
                    rep = potapov_report(seq, n, fz, grid)
                    monkeypatch.setattr(np.linalg, "eigvalsh", original)
                    assert shapes and \
                        all(shape == (len(grid), q, q) for shape in shapes)
                    every = True
                    for k, smin in ((2 * n, rep.smin_even),
                                    (2 * n + 1, rep.smin_odd),
                                    (-1, rep.smin_endpoint)):
                        P = np.stack([potapov_matrix(seq, n, f, z, k)
                                      for z in grid])
                        scale = 1.0 + np.linalg.norm(P, axis=(1, 2))
                        tau = seq.tol.tol_psd * scale
                        lam = original(0.5 * (P + P.conj().transpose(
                            0, 2, 1))).min(axis=1)
                        ok = lam >= -tau
                        assert np.array_equal(np.array(smin) >= -tau, ok)
                        every = every and ok.all()
                        if shift:
                            continue
                        for i, z in enumerate(grid):
                            if k == -1:
                                S = sigma_matrix(seq, n, f, z, k)
                                ref = original(0.5 * (S + S.conj().T)).min()
                            else:
                                ref = _schur_oracle(P[i], q, tau[i])
                            assert abs(smin[i] - ref) <= 1e-12 * scale[i]
                    assert rep.passed == every
                    outcomes.add(every)
    assert outcomes == {True, False}


def test_potapov_report_reads_an_indefinite_hankel_corner():
    # H_1 = [[1, 0], [0, -1]] of (1, 0, -1, 0), and Hs_0 = s_1 - alpha s_0
    # = -1 of (1, -1): P_2 and P_1 fail at every point, and the report
    # gives lambda_min of the Hankel corner, -1.
    f = scalar_f(lambda z: -1.0 / z)
    grid = standard_grid(0.0)
    for values, n, k in (([1, 0, -1, 0], 1, 2), ([1, -1], 0, 1)):
        seq = scalar_seq(values)
        rep = potapov_report(seq, n, np.array([f(z) for z in grid]), grid)
        assert not rep.passed
        smin = rep.smin_even if k % 2 == 0 else rep.smin_odd
        for z, value in zip(grid, smin):
            P = potapov_matrix(seq, n, f, z, k)
            tau = seq.tol.tol_psd * (1.0 + np.linalg.norm(P))
            assert np.linalg.eigvalsh(0.5 * (P + P.conj().T)).min() < -tau
            assert value == -1.0


@pytest.mark.parametrize("z", [1e4j, pytest.param(
    1e5j, marks=pytest.mark.xfail(strict=True, reason="Sigma = d - X* W X "
                                  "cancels once |X| grows like |z|^n: the "
                                  "generating measure reads sigma_min_odd "
                                  "-7.3 at 1e5j"))])
def test_the_generating_measure_passes_far_from_r(z):
    # The transform of the measure whose moments the sequence holds solves
    # the problem at every non-real point.  At n = 3 it passes at 1e4j,
    # with sigma_min_odd -6.8e-6, and fails at 1e5j: the test is not
    # decided reliably that far from R.
    mu, seq = atomic_fixture(np.random.default_rng(1), 2, 3, 0.5)
    assert potapov_report(seq, 3, [transform(mu, z)], [z]).passed


def test_potapov_report_calls_eigvalsh_once_per_k(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    mu, seq = atomic_fixture(np.random.default_rng(24), 2, 1, 0.5)
    grid = standard_grid(0.5)
    for points in (grid[:1], grid[:4], grid):
        calls.clear()
        fz = transform(mu, np.array(points))
        assert potapov_report(seq, 1, fz, points).passed
        assert 0 < len(calls) <= 3
        assert all(shape[0] == len(points) for shape in calls)


def test_the_coupling_polynomial_is_the_projected_column():
    # Q* c(z) = K(z) g - b(z), from the coupling in the memo the report
    # reads, against the coupling column built block by block, with H =
    # Q diag(w) Q* factored here, for both parities: P_2n of the
    # sequence's data at f, and P_2n+1 as P_2n of the shifted sequence's
    # data at (z - alpha) f + s_0.  On
    # the first four grid points, one and all, the column is held to its
    # own norm.  Far from the slit c(z) is much smaller than the terms
    # z^j g and z^d T^d c_0 that sum to it, so over the whole grid both
    # are held to the size of those terms.
    rng = np.random.default_rng(62)
    for q in (1, 3, 8):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                alpha = (0.0, 0.5, -1.0)[(q + n) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
                data = seq.hankel()
                zs = np.array(standard_grid(alpha))
                for odd in (False, True):
                    c0 = np.linalg.norm(fundamental_corner(seq, n, odd)[1])
                    d = data.shift if odd else data
                    for z in (zs, zs[:4], zs[1]):
                        fz = transform(mu, z)
                        g = (z - alpha)[..., None, None] * fz if odd \
                            else fz
                        H, col, _ = _column_data(data, n, fz, z, odd)
                        w, Q = np.linalg.eigh(H)
                        w_got, K, b, hnorm = d._once(
                            ("coupling", n), lambda: _coupling(d, n))
                        X = K(z) @ (g + seq.moments[0] if odd else g)
                        X -= b(z)
                        assert X.shape == col.shape
                        assert np.array_equal(w_got, w)
                        assert hnorm == np.linalg.norm(H)
                        err = _fro(Q.conj().T @ col - X)
                        gap = np.abs(_fro(X) - _fro(col))
                        if z is zs:
                            terms = (_fro(g) + c0) * np.sum(np.abs(
                                z[:, None]) ** np.arange(n + 1), axis=-1)
                            assert np.all(err <= 1e-14 * terms)
                            assert np.all(gap <= 1e-14 * terms)
                        else:
                            assert np.all(err <= 1e-13 * _fro(col))
                            assert np.all(gap <= 1e-14 * _fro(col))
                        # The diagonal block is Hermitian as it stands,
                        # so the test reads it without symmetrizing;
                        # only the sign of a zero may differ.
                        diag = _im_quotient(g, z)
                        assert np.array_equal(diag, _adjoint(diag))
                        assert np.array_equal(
                            np.linalg.eigvalsh(diag),
                            np.linalg.eigvalsh(0.5 * (diag + _adjoint(diag))))


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


def test_block_residual_matches_the_per_atom_sum():
    # The block-wise residual against the atom-by-atom sum over the full
    # (n+2)q x (n+2)q matrices, at one point and on an array.
    rng = np.random.default_rng(61)
    for q in (1, 3, 8):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                alpha = (0.0, 0.5, -1.0)[(q + n) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
                zs = np.array(standard_grid(alpha)[:4])
                for k in (2 * n, 2 * n + 1):
                    for z in (zs, zs[1]):
                        got = atomic_decomposition_residual(seq, n, mu, z, k)
                        want = decomposition_residual_per_atom(
                            seq, n, mu, z, k)
                        assert np.shape(got) == np.shape(want)
                        assert np.max(np.abs(got - want)) <= 1e-15


def test_decomposition_residual_sees_a_wrong_moment():
    mu, seq = atomic_fixture(np.random.default_rng(62), 2, 1, 0.5)
    moments = list(seq.moments)
    moments[1] = moments[1] + 1e-3 * np.eye(2)
    off = MomentSequence(seq.alpha, seq.q, moments)
    zs = np.array(standard_grid(0.5)[:4])
    for residual in (atomic_decomposition_residual,
                     decomposition_residual_per_atom):
        for k in (2, 3):
            assert residual(seq, 1, mu, zs, k).max() <= 1e-12
            assert residual(off, 1, mu, zs, k).min() > 1e-8


def test_the_odd_residual_weights_atoms_by_the_sequence_alpha():
    # The atoms of a solution on [0, oo) declared on [-1, oo): the measure
    # is a solution, P_k of its transform passes, and the decomposition
    # of P_2n+1 weights each atom by t - alpha with the alpha of the
    # sequence, as P_2n+1 does.
    atoms = [(1.0, [[1.0]]), (2.0, [[0.5]]), (3.5, [[0.25]])]
    seq = moments_of(AtomicMeasure(0.0, 1, atoms), 3)
    mu = AtomicMeasure(-1.0, 1, atoms)
    out = verify_solution(seq, 1, mu)
    assert out["checks"]["support"] and out["valid"]
    grid = standard_grid(seq.alpha)
    assert potapov_report(seq, 1, transform(mu, np.array(grid)), grid).passed
    zs = np.array(grid[:4])
    for k in (2, 3):
        got = atomic_decomposition_residual(seq, 1, mu, zs, k)
        assert got.max() <= 1e-14
        assert np.max(np.abs(
            got - decomposition_residual_per_atom(seq, 1, mu, zs, k))) \
            <= 1e-15


def test_potapov_report_decides_with_the_sequence_tolerance():
    mu, seq = atomic_fixture(np.random.default_rng(26), 2, 1, 0.5)
    loose = MomentSequence(seq.alpha, seq.q, seq.moments,
                           ToleranceConfig(tol_psd=1e-1))
    grid = standard_grid(0.5)
    fz = transform(mu, np.array(grid)) + 1e-4j * np.eye(2)
    assert not potapov_report(seq, 1, fz, grid).passed
    assert potapov_report(loose, 1, fz, grid).passed
