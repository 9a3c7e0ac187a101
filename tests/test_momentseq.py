"""Unit tests for moment sequences, Hankel bundles, and class tests."""

import collections
import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjesmp import MomentSequence, class_membership, momentseq
from stieltjesmp.matcore import HermitianFactor
from stieltjesmp.momentseq import (
    HankelData,
    block_hankel,
    canonical_extension,
    dubovoj_candidates,
    resolvent_column,
    shift_right,
    shift_stack,
    stack_y,
)
from stieltjesmp.resolvent import MatrixPolynomial, build_resolvent
from stieltjesmp.solver import classify

from conftest import WEIGHT_PATTERNS, _matrix_key, atomic_fixture, \
    certified_hankel, hankel_factor_counts, kge_fixtures, ljapunov_data, \
    random_hermitian_sequence, scalar_seq
from identities import block_hankel_by_blocks, extended, \
    first_column_embedding, is_dubovoj, is_psd, ladder_basis, ladder_ranks, \
    last_column_embedding, mrank, projector_distance, range_included, \
    resolvent_poly, restriction_products, schur_ladder, shift_matrix, \
    shift_resolvent


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence(0.0, 1, [])
    with pytest.raises(ValueError):
        MomentSequence(0.0, 2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="moment s_0 must be 2 x 2"):
        MomentSequence(0.0, 2, [[[1.0, 0.0, 0.0, 1.0]]])
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            MomentSequence(alpha, 1, [[[1.0]]])
    seq = scalar_seq([1, 2, 3])
    assert seq.m == 2


def test_shift_right_examples():
    assert np.allclose(shift_right(scalar_seq([1, 1])).moments[0], 1.0)
    assert np.allclose(
        shift_right(scalar_seq([1, 3], alpha=2.0)).moments[0], 1.0)
    rng = np.random.default_rng(0)
    seq = random_hermitian_sequence(rng, 2, 2, alpha=0.0)
    sh = shift_right(seq)
    assert sh.m == 1
    assert np.allclose(sh.moments[0], seq.moments[1])
    assert np.allclose(sh.moments[1], seq.moments[2])
    with pytest.raises(ValueError):
        shift_right(scalar_seq([1]))


def test_hankel_catalog_examples():
    b = HankelData(scalar_seq([1, 1, 1]))
    assert np.allclose(b.H[1], np.ones((2, 2)))
    y = stack_y(scalar_seq([1, 0, 2]).moments, 0, 1)
    assert np.array_equal(y.ravel(), [1.0, 0.0])
    b = HankelData(scalar_seq([1, 1, 1, 1]))
    assert np.allclose(b.shift.H[1], np.ones((2, 2)))
    with pytest.raises(ValueError):
        HankelData(scalar_seq([1, 1])).check_level(1)
    # HankelData: lower levels are leading slices of the top level, and
    # each factorization is made once and then handed out again.
    d = HankelData(scalar_seq([2, 1, 1, 1, 1]))
    assert len(d.H) == 3 and len(d.shift.H) == 2
    d.check_level(2)
    d.check_level(1, shifted=True)
    for n, shifted in ((3, False), (2, True), (-1, False), (-1, True)):
        with pytest.raises(ValueError, match="needs 2n"):
            d.check_level(n, shifted)
    assert np.shares_memory(d.H[0], d.H[2])
    assert np.allclose(d.shift.H[1], np.ones((2, 2)))
    assert d.factor(1) is d.factor(1)
    assert np.allclose(d.factor(1).pinv(),
                       np.linalg.pinv(block_hankel(d.seq.moments, 1)))
    assert np.allclose([x.item() for x in schur_ladder(d)], [2.0, 0.5, 0.0])
    assert not d.H[2].flags.writeable and not d.shift.H[1].flags.writeable


def test_moments_are_read_only():
    # Factors of the Hankel data are shared between calls on a sequence,
    # so the moments they were made from must not change under them.
    seq = scalar_seq([2, 1, 1, 1])
    assert seq.moments.shape == (4, 1, 1)
    assert not seq.moments.flags.writeable
    for s in (seq.moments[0], seq.moments[3], shift_right(seq).moments[0]):
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = 5.0
    assert seq.moments[0].item() == 2.0
    longer = extended(seq)
    assert longer.m == 4 and seq.m == 3
    with pytest.raises(ValueError, match="read-only"):
        longer.moments[4][0, 0] = 5.0


def test_a_copied_sequence_builds_its_own_hankel_data():
    seq = scalar_seq([2, 1, 1, 1])
    data = seq.hankel()
    assert seq.hankel() is data
    for twin in (copy.copy(seq), copy.deepcopy(seq),
                 pickle.loads(pickle.dumps(seq))):
        own = twin.hankel()
        assert own is not data and own.seq is twin
        assert twin.hankel() is own
        assert np.array_equal(own.factor(1).pinv(), data.factor(1).pinv())
        with pytest.raises(ValueError, match="read-only"):
            twin.moments[0][0, 0] = 5.0
    # The copies did not touch the original's reference.
    assert seq.hankel() is data


def test_hankel_bundle_embeddings():
    assert np.allclose(first_column_embedding(1, 1).ravel(), [1.0, 0.0])
    assert np.allclose(last_column_embedding(1, 1).ravel(), [0.0, 1.0])
    assert np.allclose(shift_matrix(1, 1), [[0.0, 0.0], [1.0, 0.0]])


def test_hankel_block_partitions(rng):
    # The level-n Hankel matrix contains the level-(n-1) matrices of
    # the stack and of the stack from s_2 as its corner blocks, flanked
    # by the column stack y and the row stack, its conjugate transpose.
    s = random_hermitian_sequence(rng, 2, 4, alpha=0.3).moments
    q, n = 2, 2
    H = block_hankel(s, n)
    assert np.array_equal(H[:n * q, :n * q], block_hankel(s, n - 1))
    assert np.array_equal(H[q:, q:], block_hankel(s[2:], n - 1))
    y = stack_y(s, n, 2 * n - 1)
    assert np.array_equal(H[:n * q, n * q:], y)
    assert np.array_equal(H[n * q:, :n * q], y.conj().T)


def test_ljapunov_identities(rng):
    for q, n in ((1, 1), (2, 1), (3, 2)):
        seq = random_hermitian_sequence(rng, q, 2 * n + 1, alpha=0.4)
        b = HankelData(seq)
        T, v, vg, u, ug, K = ljapunov_data(seq, n)
        H = b.H[n]
        scale = 1.0 + np.linalg.norm(H)
        r1 = H @ T.conj().T - T @ H - (u @ v.conj().T - v @ u.conj().T)
        assert np.linalg.norm(r1) <= 1e-12 * scale
        r2 = H @ T - T.conj().T @ H - \
            (ug @ vg.conj().T - vg @ ug.conj().T)
        assert np.linalg.norm(r2) <= 1e-12 * scale
        # shifted-Hankel coupling and first-column identities
        Hs = b.shift.H[n]
        assert np.allclose(Hs, -seq.alpha * b.H[n] + K)
        Ra_inv = np.eye(H.shape[0]) - seq.alpha * T
        r3 = v @ v.conj().T @ H - (Ra_inv @ H - T @ Hs)
        assert np.linalg.norm(r3) <= 1e-12 * scale
        assert np.allclose(H @ v, stack_y(seq.moments, 0, n))
        assert np.allclose(-T @ H @ v, u)


def test_schur_ladder_examples():
    lad = schur_ladder(HankelData(scalar_seq([1, 1, 1])))
    assert np.allclose([x.item() for x in lad], [1.0, 0.0])
    lad = schur_ladder(HankelData(scalar_seq([0, 0, 1])))
    assert np.allclose([x.item() for x in lad], [0.0, 1.0])
    d = HankelData(scalar_seq([5]))
    assert np.allclose(schur_ladder(d)[0], 5.0)
    with pytest.raises(ValueError):
        d.shift


def test_class_membership_examples():
    rep = class_membership(scalar_seq([1, 1, 1, 1]))
    assert (rep.in_Hgeq, rep.in_Hgeq_e, rep.in_Kgeq, rep.in_Kgeq_e) == \
        (True, True, True, True)
    rep = class_membership(scalar_seq([1, -1]))
    assert not rep.in_Kgeq
    rep = class_membership(scalar_seq([0, 0, 1]))
    assert rep.in_Hgeq and not rep.in_Hgeq_e


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the PSD margin "
                   "tol_psd (1 + |H|) has an absolute floor, larger than "
                   "the whole matrix once |H| is below about 1e-9")
def test_a_class_verdict_does_not_depend_on_the_scale():
    # (s_0, s_1) = (-c, c) has a negative mass for every c > 0, so it is in
    # no class; scaled down below the absolute floor of the margin it is
    # read as in all four.  Item 2's floor lambda_min >= -c f, f read
    # from the data's sizes, passes this test and must remove the mark.
    for c in (1e-6, 1e-12):
        rep = class_membership(MomentSequence(0.0, 1, [[[-c]], [[c]]]))
        assert not (rep.in_Hgeq or rep.in_Hgeq_e or rep.in_Kgeq
                    or rep.in_Kgeq_e), c


def test_class_membership_witness_and_implications():
    for mu, seq, n in kge_fixtures(8, seed=11):
        rep = class_membership(seq)
        assert rep.in_Kgeq_e  # atomic data is always extendable
        assert rep.in_Kgeq and rep.in_Hgeq_e and rep.in_Hgeq
        assert rep.witness_extension is not None
        longer = MomentSequence(seq.alpha, seq.q,
                                [*seq.moments, rep.witness_extension])
        assert class_membership(longer).in_Hgeq
        # prefix monotonicity
        for k in range(1, seq.m + 1):
            prefix = MomentSequence(seq.alpha, seq.q, seq.moments[:k])
            assert class_membership(prefix).in_Kgeq_e


def test_canonical_extension_examples():
    assert np.allclose(canonical_extension(scalar_seq([1, 1])), 1.0)
    assert np.allclose(canonical_extension(scalar_seq([1, 0])), 0.0)
    assert np.allclose(canonical_extension(
        MomentSequence(0.0, 2, [np.eye(2)])), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        canonical_extension(scalar_seq([0, 0, 1]))
    longer = extended(scalar_seq([1, 1]))
    assert longer.m == 2 and np.allclose(longer.moments[2], 1.0)


def test_the_witness_is_computed_once_and_read_only(monkeypatch):
    # While the first report holds the data, a second class_membership
    # and canonical_extension hand out its witness and stack nothing.
    stack, calls = momentseq.stack_y, []

    def counting(*args):
        calls.append(args[1:])
        return stack(*args)

    seqs = [seq for mu, seq, n in kge_fixtures(6, seed=11)] + [
        scalar_seq([1]), scalar_seq([1, 1, 2]),
        MomentSequence(0.0, 2, [np.eye(2), np.eye(2), 2 * np.eye(2)])]
    for seq in seqs:
        first = class_membership(seq)
        witness = first.witness_extension
        assert witness is not None and not witness.flags.writeable
        monkeypatch.setattr(momentseq, "stack_y", counting)
        assert class_membership(seq).witness_extension is witness
        assert canonical_extension(seq) is witness
        assert calls == []
        monkeypatch.undo()


def test_zero_mass_forces_zero_moments():
    # A PSD Hankel matrix with vanishing (0,0) block forces the coupled
    # moments to vanish.
    seq = scalar_seq([0, 0, 1])
    H = block_hankel(seq.moments, 1)
    assert is_psd(H)
    assert np.allclose(seq.moments[:2], 0.0)
    # any Hermitian completion with d_1 != 0 breaks positivity
    bad = scalar_seq([0, 0.5, 1])
    assert not is_psd(block_hankel(bad.moments, 1))


def test_ladder_nesting_on_extendable_fixtures():
    # Null spaces of the interleaved ladder blocks are nested:
    # N(L_0) in N(Ls_0) in N(L_1) in ...
    for mu, seq, n in kge_fixtures(8, seed=3):
        d = HankelData(seq)
        L, Ls = schur_ladder(d), schur_ladder(d.shift)
        chain = []
        for j in range(len(L)):
            chain.append(L[j])
            if j < len(Ls):
                chain.append(Ls[j])
        for A, B in zip(chain, chain[1:]):
            assert range_included(A.conj().T, B.conj().T)


def test_dubovoj_candidates_and_rank_profile():
    for mu, seq, n in kge_fixtures(6, seed=5):
        D, Ds = dubovoj_candidates(seq, n)
        b = HankelData(seq)
        T = shift_matrix(seq.q, n)
        assert is_dubovoj(D, b.H[n], T)
        assert is_dubovoj(Ds, b.shift.H[n], T)
        assert D.shape[1] == mrank(b.H[n])
    d = HankelData(scalar_seq([1, 1, 1]))
    assert d.factor(1).rank == 1
    assert ladder_ranks(d) == [1, 0]
    D, Ds = dubovoj_candidates(scalar_seq([1, 1, 1, 1]), 1)
    assert np.allclose(np.abs(D), [[1.0], [0.0]])
    assert np.allclose(np.abs(Ds), [[1.0], [0.0]])


def test_dubovoj_candidates_span_the_ladder_ranges():
    # The basis read from the null spaces of the Hankel factors spans
    # range diag(L_0, ..., L_n) of the Schur ladder, for nondegenerate,
    # degenerate and completely degenerate data alike.
    worst = 0.0
    for mu, seq, n in kge_fixtures(200, seed=11):
        d = seq.hankel()
        T = shift_matrix(seq.q, n)
        for b, B in zip((d, d.shift), dubovoj_candidates(seq, n)):
            ranks = ladder_ranks(b)[:n + 1]
            ref = ladder_basis(schur_ladder(b)[:n + 1], ranks)
            worst = max(worst, projector_distance(B, ref))
            assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]))
            assert is_dubovoj(B, b.H[n], T)
    assert worst <= 1e-12


def test_a_falling_block_rank_is_refused(monkeypatch):
    # rank H_k < rank H_{k-1} is no rank of a Schur complement; the basis
    # refuses it instead of slicing a negative number of columns.
    seq = scalar_seq([1, 0.5, 1, 0.5])
    factor = HankelData.factor

    def fake(self, k):
        f = copy.copy(factor(self, k))
        if k == 1:
            f.rank = 0
        return f

    monkeypatch.setattr(HankelData, "factor", fake)
    with pytest.raises(ValueError, match=r"block ranks \[1, -1\] of the "
                                         r"Dubovoj basis must lie in 0\.\.1"):
        dubovoj_candidates(seq, 1)


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_shift_stack_is_the_block_shift_of_its_column():
    # Row j is T^j x for the dense T of the definition; n = 0 has T = 0
    # and a stack of length one.
    rng = np.random.default_rng(43)
    for q in (1, 2, 3):
        for n in range(4):
            N = (n + 1) * q
            T = shift_matrix(q, n)
            for r in (1, q, 2 * q + 1):
                x = _complex_normal(rng, N, r)
                stack = shift_stack(x, q)
                assert stack.shape == (n + 1, N, r)
                for j in range(n + 1):
                    assert np.array_equal(
                        stack[j], np.linalg.matrix_power(T, j) @ x)


def test_shift_stack_gives_the_shift_resolvents():
    # The stack is the coefficient stack of R_T(z) x, and (T^j L)* M that
    # of L* R_{T*}(z) M, at one point and at an array of points.
    rng = np.random.default_rng(47)
    for q in (1, 2, 3):
        for n in range(4):
            N = (n + 1) * q
            zs = _complex_normal(rng, 5)
            x = _complex_normal(rng, N, q + 1)
            Rx = MatrixPolynomial(shift_stack(x, q))
            dense = np.array([shift_resolvent(q, n, z) @ x for z in zs])
            scale = 1e-13 * (1.0 + np.linalg.norm(dense, axis=(1, 2)))
            assert np.all(np.linalg.norm(Rx(zs) - dense, axis=(1, 2))
                          <= scale)
            assert np.linalg.norm(Rx(zs[0]) - dense[0]) <= scale[0]
            L, M = _complex_normal(rng, N, 2), _complex_normal(rng, N, 3)
            coeffs = shift_stack(L, q).conj().transpose(0, 2, 1) @ M
            for j, c in enumerate(coeffs):
                want = L.conj().T @ np.linalg.matrix_power(
                    shift_matrix(q, n).T, j) @ M
                assert np.linalg.norm(c - want) <= 1e-13 * (
                    1.0 + np.linalg.norm(want))
            LRM = MatrixPolynomial(coeffs)
            for z in zs:
                want = L.conj().T @ resolvent_poly(q, n)(z) @ M
                assert np.linalg.norm(LRM(z) - want) <= 1e-13 * (
                    1.0 + np.linalg.norm(want))


def test_the_shift_resolvent_of_v_is_the_power_column():
    # R_T(alpha) v = col(alpha^j I_q), from the stack of v and in the
    # closed form the defects of classify read, against the dense
    # R_T(alpha) of the definition; on data with one atom, where the
    # null projector N N* of H_n is not zero, the paper-form oracle
    # (I - H^+ H) R_T(alpha) v equals N N* R_T(alpha) v.
    rng = np.random.default_rng(53)
    for q in (1, 2, 3):
        for n in range(4):
            v = first_column_embedding(q, n)
            for alpha in (0.0, 0.5, -1.0, 1.7):
                Rv = shift_resolvent(q, n, alpha) @ v
                tol = 1e-14 * (1.0 + np.linalg.norm(Rv))
                assert np.linalg.norm(
                    MatrixPolynomial(shift_stack(v, q))(alpha) - Rv) <= tol
                assert np.linalg.norm(resolvent_column(alpha, q, n) - Rv) \
                    <= tol
                _, seq = atomic_fixture(rng, q, n, alpha, natoms=1)
                data = seq.hankel()
                N = data.factor(n).null
                A_phi, _ = restriction_products(data, n)
                assert N.shape[1] == n * q
                # H^+ H and N N* round apart: 9.8e-14 at worst here.
                assert np.linalg.norm(A_phi - N @ (N.conj().T @ Rv)) <= \
                    1e-12 * (1.0 + np.linalg.norm(Rv))


def test_block_hankel_equals_assembly_block_by_block(rng):
    # The one fancy index against the double loop, bit for bit, on a
    # stack and on the stacks from s_1 and s_2.
    for q in (1, 2, 3):
        s = random_hermitian_sequence(rng, q, 8).moments
        for n in range(4):
            for lo in (0, 1, 2):
                assert np.array_equal(block_hankel(s[lo:], n),
                                      block_hankel_by_blocks(s[lo:], n))


def test_hankel_data_levels_equal_direct_assembly(rng):
    for q in (1, 2, 3):
        for m in (0, 3, 4, 6, 7):
            seq = random_hermitian_sequence(rng, q, m, alpha=0.7)
            d = HankelData(seq)
            assert len(d.H) == m // 2 + 1
            for k, H in enumerate(d.H):
                assert np.array_equal(H, block_hankel_by_blocks(
                    seq.moments, k))
            if m == 0:
                # A one-moment sequence has no shifted sequence.
                with pytest.raises(ValueError):
                    d.shift
                continue
            assert len(d.shift.H) == (m - 1) // 2 + 1
            for k, Hs in enumerate(d.shift.H):
                assert np.array_equal(Hs, block_hankel_by_blocks(
                    shift_right(seq).moments, k))


def test_class_membership_factors_each_matrix_once(factor_calls):
    rng = np.random.default_rng(8)
    seqs = [seq for _, seq, _ in kge_fixtures(12, seed=13)]
    # even m, where extendability needs a second projector
    seqs += [MomentSequence(s.alpha, s.q, s.moments[:-1]) for s in seqs]
    seqs += [random_hermitian_sequence(rng, 2, m) for m in (2, 3)]
    for seq in seqs:
        factor_calls.clear()
        class_membership(seq)
        assert factor_calls and max(factor_calls.values()) == 1


def test_class_report_holds_the_hankel_data(factor_calls):
    # While the report lives, classify reads the factors class_membership
    # made: each Hankel matrix of the sequence is factored once.
    for mu, seq, n in kge_fixtures(12, seed=37):
        factor_calls.clear()
        report = class_membership(seq)
        classify(seq, n)
        assert factor_calls == hankel_factor_counts(seq, witness=True)
        assert report.data is seq.hankel()
        # The data is left out of the report's repr, comparison and JSON.
        assert "HankelData" not in repr(report)
        assert report == dataclasses.replace(report, data=None)
        assert "data" not in report.to_dict()


def _definite_ladder_cases(q, pattern):
    """(seq, n) of ``atomic_fixture`` at n = 0..3 and alpha in {0, 0.5,
    -1} for one matrix size and weight pattern."""
    rng = np.random.default_rng([q, sorted(WEIGHT_PATTERNS).index(pattern)])
    for n in range(4):
        for alpha in (0.0, 0.5, -1.0):
            yield atomic_fixture(rng, q, n, alpha,
                                 **WEIGHT_PATTERNS[pattern])[1], n


@pytest.mark.parametrize("pattern", sorted(WEIGHT_PATTERNS))
@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_a_level_below_a_definite_one_has_the_verdicts_of_its_own_eigh(
        q, pattern):
    # Asked top down, bottom up or in a shuffled order, every level's
    # rank, PSD verdict, definite flag and null dimension equal those of
    # a factor of H_k alone; a factor read from a definite level above,
    # or certified by a Cholesky, takes its eigh only when w or pinv() is
    # read, and then agrees bit for bit.
    rng = np.random.default_rng(q)
    for seq, n in _definite_ladder_cases(q, pattern):
        levels = list(range(n + 1))
        for order in (levels[::-1], levels, list(rng.permutation(levels))):
            data = HankelData(seq)
            for d in (data, data.shift):
                got = {k: d.factor(k) for k in order}
                for k, f in got.items():
                    own = HermitianFactor(d.H[k], seq.tol)
                    assert (f.rank, f.psd, f.pd, f.null.shape) == (
                        own.rank, own.psd, own.pd, own.null.shape)
                    assert np.array_equal(f.w, own.w)
                    assert np.array_equal(f.pinv(), own.pinv())


@pytest.mark.parametrize("pattern", sorted(WEIGHT_PATTERNS))
@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_definite_data_takes_no_eigh(monkeypatch, factor_calls, q, pattern):
    # classify and build_resolvent certify H_n and Hs_n by one Cholesky
    # each, and each level below is read from them: no eigh, and no SVD
    # of a zero defect product, of an empty block or of an identity.
    wasted, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        wasted.append(not np.any(a) or np.array_equal(a, np.eye(len(a))))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    certified = 0
    for seq, n in _definite_ladder_cases(q, pattern):
        factor_calls.clear()
        wasted.clear()
        data = seq.hankel()
        report = classify(seq, n)
        build_resolvent(seq, n)
        if certified_hankel(data.H[n], seq.tol) and \
                certified_hankel(data.shift.H[n], seq.tol):
            assert report.case == "NonDegenerate" and not any(wasted)
            assert factor_calls == collections.Counter(
                ("cholesky",) + _matrix_key(H)
                for H in (data.H[n], data.shift.H[n]))
            certified += 1
    assert certified == 12 or pattern in ("fewatoms", "rankdef")


@pytest.mark.parametrize("pattern", sorted(WEIGHT_PATTERNS))
@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_definite_data_takes_one_eigh_per_ladder(factor_calls, q, pattern):
    # A certified top takes its eigh only when its w or pinv() is read:
    # then one per ladder, H_n and Hs_n.  The witness of even-m data,
    # read from the pseudo-inverse of a level below a definite top, is
    # the one of that level's own factor.
    for seq, n in _definite_ladder_cases(q, pattern):
        data = seq.hankel()
        classify(seq, n)
        build_resolvent(seq, n)
        tops = (data.H[n], data.shift.H[n])
        if all(certified_hankel(H, seq.tol) for H in tops):
            factor_calls.clear()
            for _ in range(2):
                data.factor(n).pinv()
                data.shift.factor(n).pinv()
            assert factor_calls == collections.Counter(
                ("eigh",) + _matrix_key(H) for H in tops)
        even = MomentSequence(seq.alpha, q, seq.moments[:-1], seq.tol)
        witness = class_membership(even).witness_extension
        if witness is None:
            continue
        y = stack_y(even.moments, n + 1, 2 * n)
        want = y.conj().T @ HermitianFactor(
            block_hankel(even.moments, n - 1), seq.tol).pinv() @ y if n \
            else np.zeros((q, q), dtype=complex)
        assert np.array_equal(witness, 0.5 * (want + want.conj().T))


def test_a_full_rank_top_with_a_negative_eigenvalue_is_not_definite():
    # H_1 has full rank and passes the PSD margin, but one eigenvalue of
    # its D H D is -3e-10: it is not positive definite, so its singular
    # leading block s_0 = [[1, 1], [1, 1]] is factored, not read from it.
    J = np.ones((2, 2))
    data = HankelData(MomentSequence(0.0, 2, [
        J, J + 3e-5 * np.diag([1.0, -1.0]), 2 * J + np.eye(2)]))
    top = data.factor(1)
    assert top.rank == 4 and top.psd and top.w.min() < 0
    assert data.factor(0).rank == 1 and data.factor(0).null.shape == (2, 1)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shifted_hankel_matches_direct_assembly(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    seq = random_hermitian_sequence(rng, q, 7, alpha=float(rng.normal()))
    b = HankelData(seq)
    shifted = shift_right(seq).moments
    assert np.array_equal(shifted, [-seq.alpha * seq.moments[j]
                                    + seq.moments[j + 1] for j in range(7)])
    for n in range(4):
        assert np.array_equal(b.shift.H[n],
                              block_hankel_by_blocks(shifted, n))
