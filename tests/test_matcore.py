"""Unit tests for the dense matrix utility layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjesmp.matcore import (
    DEFAULT_TOL,
    HermitianFactor,
    ToleranceConfig,
    hermitize,
    right_divide,
)
from stieltjesmp.momentseq import HankelData, dubovoj_candidates
from stieltjesmp.stieltjespairs import AtomicMeasure, moments_of

from conftest import WEIGHT_PATTERNS, atomic_fixture, eigh_factor, random_psd
from identities import is_dubovoj, is_hermitian, is_psd, ladder_basis, \
    ladder_ranks, mrank, null_space, one_two_inverse, pseudo_inverse, \
    range_included, right_divide_three_norms, schur_ladder, shift_matrix


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(tol_psd=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(tol_rank=-1e-10)


def test_hermitize_gate():
    A = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.allclose(hermitize(A), A)
    with pytest.raises(ValueError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_hermitian(A)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pseudo_inverse_examples():
    assert np.allclose(pseudo_inverse(np.zeros((1, 1))), 0.0)
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))
    ones = np.ones((2, 2))
    assert np.allclose(pseudo_inverse(ones), 0.25 * ones)


def test_is_psd_examples():
    assert is_psd(np.diag([1.0, 0.0]))
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_range_included_examples():
    assert range_included(np.eye(2), np.array([[1.0], [2.0]]))
    assert not range_included(np.array([[0.0], [1.0]]),
                              np.array([[1.0], [0.0]]))
    assert range_included(np.ones((2, 2)), np.array([[2.0], [2.0]]))


def inverse_on(A, U):
    """``one_two_inverse`` of A with range U, given A's own factor."""
    return one_two_inverse(A, U, HermitianFactor(A))


def test_one_two_inverse_examples():
    U = np.array([[1.0], [0.0]])
    X = inverse_on(np.ones((2, 2)), U)
    assert np.allclose(X, np.diag([1.0, 0.0]))
    assert np.allclose(inverse_on(np.eye(3), np.eye(3)), np.eye(3))
    zero = np.zeros((1, 0))
    assert np.allclose(inverse_on(np.zeros((1, 1)), zero), 0.0)


def test_one_two_inverse_defining_identities(rng):
    # A random PSD matrix with its own range as the prescribed subspace
    # reduces to the Moore-Penrose inverse; the four axioms must hold.
    for q, rank in ((3, 2), (4, 4), (5, 1)):
        A = random_psd(rng, q, rank)
        U = np.linalg.svd(A)[0][:, :mrank(A)]
        X = inverse_on(A, U)
        assert np.linalg.norm(A @ X @ A - A) < 1e-10
        assert np.linalg.norm(X @ A @ X - X) < 1e-10
        assert np.linalg.norm(X - X.conj().T) < 1e-12
        P = U @ U.conj().T
        assert np.linalg.norm(X - P @ X) < 1e-12
        assert np.linalg.norm(X - X @ P) < 1e-12
        assert is_psd(X)


def test_one_two_inverse_rejects_bad_subspace():
    U = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        inverse_on(np.eye(2), U)  # dim U = 1 != rank = 2
    # direct-sum violation: A = diag(1, 0), U = span e2
    V = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        inverse_on(np.diag([1.0, 0.0]), V)


def _stacked(num, den):
    return np.concatenate([num, den], -2)


def test_right_divide_decides_singularity_relative_to_num_and_den():
    # det I_32 = 1 and det (1e-6 I_32) = 1e-192: neither is singular.
    for c in (1.0, 1e-6):
        S, ok = right_divide(_stacked(np.eye(32), c * np.eye(32)))
        assert ok and np.allclose(S, np.eye(32) / c)
    # den = 1e-12 I is singular beside num = I, not beside num = 1e-12 I
    assert not right_divide(_stacked(np.eye(2), 1e-12 * np.eye(2)))[1]
    assert right_divide(_stacked(1e-12 * np.eye(2), 1e-12 * np.eye(2)))[1]
    # an exactly singular den has a NaN quotient; the verdict is a bool
    dens = [np.eye(2), np.zeros((2, 2)), np.diag([1.0, 1e-12])]
    out = [right_divide(_stacked(np.eye(2), den)) for den in dens]
    assert [ok for _, ok in out] == [True, False, False]
    assert all(type(ok) is bool for _, ok in out)
    assert np.isnan(out[1][0]).all() and np.allclose(out[0][0], np.eye(2))


def test_right_divide_matches_the_three_norm_reference():
    # The stacked column's |N|_F is the hypot of |num|_F and |den|_F up
    # to rounding, so each column's verdict is the reference's and its
    # quotient is the same product with the same inverse, bit for bit,
    # the reference taking the whole stack at once: on the cases above,
    # random columns and stacks, scaled from 1e-150 to 1e150, whose den
    # sits a factor 0.3 to 3 from the singularity threshold, or whose
    # last den is exactly singular.
    rng = np.random.default_rng(31)

    def cases():
        for c in (1.0, 1e-6):
            yield np.eye(32), c * np.eye(32)
        yield np.eye(2), 1e-12 * np.eye(2)
        yield 1e-12 * np.eye(2), 1e-12 * np.eye(2)
        yield np.stack([np.eye(2)] * 3), np.stack(
            [np.eye(2), np.zeros((2, 2)), np.diag([1.0, 1e-12])])
        for q in (1, 2, 3, 8):
            for shape in ((), (5,), (2, 3)):
                num, den = (rng.normal(size=(2,) + shape + (q, q))
                            + 1j * rng.normal(size=(2,) + shape + (q, q)))
                yield num, den
                for scale in 10.0 ** np.arange(-150, 151, 50):
                    yield scale * num, scale * den
                # den = Q diag(s) with sigma_min a factor c from the
                # threshold tol_rank |[num; den]|_F (1 + eps)
                Q = np.linalg.qr(den)[0]
                for c in (0.3, 0.9, 1.1, 3.0):
                    s = np.ones(q)
                    s[-1] = 0.0
                    ref = np.linalg.norm(np.concatenate(
                        [num, Q * s[..., None, :]], -2), axis=(-2, -1))
                    s = s + (c * DEFAULT_TOL.tol_rank
                             * ref[..., None] * (np.arange(q) == q - 1))
                    yield num, Q * s[..., None, :]
                if shape:
                    sing = den.copy()
                    sing.reshape((-1, q, q))[-1, :, 0] = 0.0
                    yield num, sing

    verdicts = set()
    for num, den in cases():
        S_ref, ok_ref = right_divide_three_norms(num, den)
        assert np.shape(ok_ref) == num.shape[:-2]
        assert S_ref.shape == num.shape
        q = num.shape[-1]
        for a, b, want, ok_want in zip(
                num.reshape(-1, q, q), den.reshape(-1, q, q),
                S_ref.reshape(-1, q, q), np.ravel(ok_ref)):
            S, ok = right_divide(_stacked(a, b))
            assert type(ok) is bool and ok == ok_want
            assert S.dtype == want.dtype and S.tobytes() == want.tobytes()
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_right_divide_decides_a_far_scale_as_the_unit_scale():
    # No scaling of N changes the rule sigma_min(den) > tol_rank |N|_F.
    # At scales 1e-200, 1e170 and 1e300 a squared norm of N or of den^-1
    # is 0 or inf while N and den^-1 are finite: the verdict is still
    # that at scale 1 for the column at each scale, with no warning, on
    # dens a factor 0.3 and 3 from the threshold.
    rng = np.random.default_rng(33)
    scales = np.array([1.0, 1e-200, 1e170, 1e300])
    verdicts = set()
    for q in (1, 3):
        num, den = rng.normal(size=(2, q, q)) + 1j * rng.normal(size=(2, q, q))
        Q = np.linalg.qr(den)[0]
        for c in (None, 0.3, 3.0):
            N = _stacked(num, den)
            if c is not None:
                s = np.ones(q)
                s[-1] = 0.0
                ref = np.linalg.norm(_stacked(num, Q * s))
                s[-1] = c * DEFAULT_TOL.tol_rank * ref
                N = _stacked(num, Q * s)
            S1, ok1 = right_divide(N)
            verdicts.add(ok1)
            for scale in scales:
                S, ok = right_divide(scale * N)
                assert ok == ok1
                if c is None:
                    assert np.allclose(S, S1, rtol=1e-12, atol=0.0)
    assert verdicts == {True, False}


def test_dubovoj_subspace_examples():
    D = ladder_basis([np.array([[1.0]]), np.array([[0.0]])], [1, 0])
    assert D.shape == (2, 1)
    assert np.allclose(np.abs(D.ravel()), [1.0, 0.0])
    D = ladder_basis([np.array([[0.0]]), np.array([[1.0]])], [0, 1])
    assert np.allclose(np.abs(D.ravel()), [0.0, 1.0])
    D = ladder_basis([np.eye(3)], [3])
    assert D.shape == (3, 3)
    one = np.array([[1.0]])
    for blocks, ranks in (([one], [2]), ([one, one], [1]),
                          ([one, one], [1, -1]), ([], [])):
        with pytest.raises(ValueError, match="need q x q ladder blocks"):
            ladder_basis(blocks, ranks)


def test_dubovoj_subspace_shared_cutoff():
    # A block that is zero only up to roundoff relative to its siblings
    # must contribute no dimensions.  The block ranks are those of the
    # Hankel matrices, which see one atom as rank 1 at every level.
    eps = 1e-15
    D = ladder_basis([np.array([[1.0]]), np.array([[eps]])], [1, 0])
    assert D.shape[1] == 1
    for w, t in ((0.3, 1.7), (0.9, 2.3)):
        seq = moments_of(AtomicMeasure(0.0, 1, [(t, [[w]])]), 3)
        data = seq.hankel()
        assert schur_ladder(data)[1].item() != 0.0   # roundoff, not zero
        assert ladder_ranks(data) == ladder_ranks(data.shift) == [1, 0]
        D, Ds = dubovoj_candidates(seq, 1)
        assert D.shape[1] == Ds.shape[1] == 1


def test_is_dubovoj_examples():
    T = shift_matrix(1, 1)
    D1 = np.array([[1.0], [0.0]])
    assert is_dubovoj(D1, np.ones((2, 2)), T)
    D2 = np.array([[0.0], [1.0]])
    assert not is_dubovoj(D2, np.diag([0.0, 1.0]), T)
    assert is_dubovoj(np.eye(2), np.eye(2), T)


def test_null_space_complements_rank(rng):
    A = random_psd(rng, 4, 2)
    N = null_space(A)
    assert N.shape[1] == 4 - mrank(A)
    assert np.linalg.norm(A @ N) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_range_included_reflexive_transitive(seed):
    rng = np.random.default_rng(seed)
    A = random_psd(rng, 3, rng.integers(1, 4))
    assert range_included(A, A)
    # R(A @ G) subset R(A) subset R([A, B])
    G = rng.normal(size=(3, 2))
    B = rng.normal(size=(3, 1))
    assert range_included(A, A @ G)
    assert range_included(np.hstack([A, B]), A @ G)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mrank_matches_construction(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, 4))
    A = random_psd(rng, 4, r) if r else np.zeros((4, 4))
    assert mrank(A) == r


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hermitian_factor_matches_svd_oracles(seed):
    # The one eigh of the equilibrated matrix agrees with the SVD-based
    # rank, null space, PSD gate and pseudo-inverse, and keeps rank and
    # verdict under a congruence by a positive diagonal.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 6))
    r = int(rng.integers(0, p + 1))
    A = random_psd(rng, p, r)
    f = HermitianFactor(A)
    assert f.psd and f.rank == r == mrank(A)
    assert f.null.shape == (p, p - r)
    assert np.allclose(f.null.conj().T @ f.null, np.eye(p - r))
    assert np.linalg.norm(A @ f.null) <= 1e-10 * (1.0 + np.linalg.norm(A))
    X = pseudo_inverse(A)
    assert np.linalg.norm(f.pinv() - X) <= 1e-8 * (1.0 + np.linalg.norm(X))
    # The factor keeps what its verdicts read and forms no inverse.
    assert sorted(vars(f)) == ["_kept", "null", "psd", "rank", "w"]
    S = np.diag(10.0 ** rng.uniform(-2, 2, size=p))
    g = HermitianFactor(S @ A @ S)
    assert g.psd and g.rank == r
    B = A - rng.uniform(0.1, 1.0) * np.eye(p)
    h = HermitianFactor(B)
    assert h.psd == is_psd(B) and h.rank == mrank(B)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, ToleranceConfig(
    tol_rank=1e-16)], ids=["default", "tol_rank=1e-16"])
def test_the_cholesky_certificate_never_disagrees_with_eigh(
        monkeypatch, tol):
    # A matrix that the Cholesky certificate passes (its factor has no w
    # until it is read) has the verdicts of its own eigh: rank N, psd,
    # every eigenvalue positive and an empty null basis, and its w and
    # pinv() are those of the factor forced onto the eigh path, bit for
    # bit.  B = (1 - rho) I + rho J has a unit diagonal, lambda_min =
    # 1 - rho and lambda_max = 1 + (N - 1) rho; it is put at lambda_min =
    # k c for the shift c = (2 tol_rank + (N + 1)^2 eps) N, N = tr B, and
    # scaled by a complex diagonal (moduli within 1e4 of each other, above
    # the cutoff), which the equilibration undoes.  Certified at k >= 2,
    # refused at k = 0.5.
    rng = np.random.default_rng(11)
    want_at = {0.5: False, 2.0: True, 4.0: True, 100.0: True}
    cases = [(np.array([[2.0]]), True), (np.array([[-2.0]]), False),
             (np.zeros((1, 1)), False), (np.zeros((3, 3)), False),
             (np.diag([1.0, tol.tol_rank]), False),  # at the cutoff
             (np.diag([1.0, 1.01 * tol.tol_rank]), None)]
    for N in (2, 5, 16, 48):
        c = (2 * tol.tol_rank + (N + 1) ** 2 * np.finfo(float).eps) * N
        for k in (0.5, 1.0, 1.5, 2.0, 4.0, 100.0):
            B = k * c * np.eye(N) + (1 - k * c) * np.ones((N, N))
            S = 10.0 ** rng.uniform(-2, 2, N) * np.exp(
                2j * np.pi * rng.uniform(size=N))
            cases.append((S[:, None] * B * S.conj(), want_at.get(k)))
        # indefinite inside the PSD margin, with N - 1 eigenvalues
        # -tol_psd / 2: psd, not positive definite
        B = -0.5 * tol.tol_psd * np.eye(N) + (1 + 0.5 * tol.tol_psd) * \
            np.ones((N, N))
        assert HermitianFactor(B, tol).psd
        cases.append((B, False))
    for A, want in cases:
        f, own = HermitianFactor(A, tol), eigh_factor(monkeypatch, A, tol)
        got = "w" not in vars(f)
        assert want is None or got == want
        if got:
            assert (f.rank, f.psd, f.null.shape) == (
                own.rank, own.psd, own.null.shape) == (
                len(A), True, (len(A), 0))
            assert own.w.min() > 0
            assert np.array_equal(f.w, own.w)
            assert np.array_equal(f.pinv(), own.pinv())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4, 8]),
       st.integers(0, 3), st.sampled_from(sorted(WEIGHT_PATTERNS)))
def test_hermitian_factor_on_block_hankel_matrices(seed, q, n, pattern):
    # On every H_k and Hs_k (k <= n, so N up to 32) of an atomic
    # measure: w is the spectrum of D A D by decreasing modulus, the rank
    # rule cuts it, and pinv() is the SVD pseudo-inverse.  That bound is
    # held where A determines A^+ to it, sigma_1 / sigma_r <= 1e6 at the
    # common rank; full-rank H_3 reach 1e10, where the SVD oracle itself
    # is off the exact inverse by about kappa * eps.  There pinv() is
    # still Hermitian with null(A) in its kernel.
    kw = {} if q == 1 else WEIGHT_PATTERNS[pattern]
    _, seq = atomic_fixture(np.random.default_rng(seed), q, n, **kw)
    data = HankelData(seq)
    compared = 0
    for A in (*data.H, *data.shift.H):
        f = HermitianFactor(A)
        d = np.abs(np.diagonal(A))
        D = 1.0 / np.sqrt(np.where(d > DEFAULT_TOL.tol_rank * d.max(), d,
                                   d.max()))
        w = np.linalg.eigvalsh(D[:, None] * A * D)
        assert np.all(np.diff(np.abs(f.w)) <= 0.0)
        assert np.allclose(f.w, w[np.argsort(-np.abs(w), kind="stable")],
                           rtol=0.0, atol=1e-12 * np.abs(w).max())
        assert f.rank == np.count_nonzero(
            np.abs(f.w) > DEFAULT_TOL.tol_rank * np.abs(f.w).max())
        P = f.pinv()
        scale = 1.0 + np.linalg.norm(P)
        assert np.linalg.norm(P - P.conj().T) <= 1e-12 * scale
        assert np.linalg.norm(P @ f.null) <= 1e-12 * scale
        s = np.linalg.svd(A, compute_uv=False)
        if f.rank == mrank(A) and s[0] <= 1e6 * s[f.rank - 1]:
            X = pseudo_inverse(A)
            assert np.linalg.norm(P - X) <= 1e-8 * (1.0 + np.linalg.norm(X))
            compared += 1
    assert compared


def test_rank_rule_on_zero_and_empty_matrices():
    # The one rank rule counts no singular value of a zero or empty
    # matrix, with no special case for either.
    zero = np.zeros((3, 3))
    assert mrank(zero) == 0 and mrank(np.zeros((3, 0))) == 0
    assert null_space(zero).shape[1] == 3
    assert HermitianFactor(zero).rank == 0
    assert HermitianFactor(zero).null.shape == (3, 3)
    tight = ToleranceConfig(tol_rank=0.5)
    assert mrank(np.diag([1.0, 0.6, 0.4]), tight) == 2
    assert null_space(np.diag([1.0, 0.6, 0.4]), tight).shape[1] == 1
    # Equilibration scales 0.6 to 1 and leaves 0.4, at or below
    # tol_rank times the largest diagonal entry, as it is.
    f = HermitianFactor(np.diag([1.0, 0.6, 0.4]).astype(complex), tight)
    assert f.rank == 2 and np.allclose(np.abs(f.null.ravel()), [0, 0, 1])
