"""Unit tests for moment sequences, Hankel bundles, and class tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjesmp import MomentSequence, class_membership
from stieltjesmp.matcore import (
    is_dubovoj,
    is_psd,
    mrank,
    range_included,
)
from stieltjesmp.momentseq import (
    HankelData,
    block_hankel,
    canonical_extension,
    dubovoj_candidates,
    extended,
    hankel_data,
    rank_profile,
    schur_ladder,
    shift_right,
    stack_y,
    stack_z,
)

from conftest import kge_fixtures, random_hermitian_sequence


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence(0.0, 1, [])
    with pytest.raises(ValueError):
        MomentSequence(0.0, 2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    seq = scalar_seq([1, 2, 3])
    assert seq.m == 2
    assert np.allclose(seq.s(-1), 0.0)


def test_shift_right_examples():
    assert np.allclose(shift_right(scalar_seq([1, 1])).s(0), 1.0)
    assert np.allclose(shift_right(scalar_seq([1, 3], alpha=2.0)).s(0), 1.0)
    rng = np.random.default_rng(0)
    seq = random_hermitian_sequence(rng, 2, 2, alpha=0.0)
    sh = shift_right(seq)
    assert sh.m == 1
    assert np.allclose(sh.s(0), seq.s(1))
    assert np.allclose(sh.s(1), seq.s(2))
    with pytest.raises(ValueError):
        shift_right(scalar_seq([1]))


def test_hankel_catalog_examples():
    b = HankelData(scalar_seq([1, 1, 1]), 1)
    assert np.allclose(b.H[1], np.ones((2, 2)))
    b = HankelData(scalar_seq([1, 0, 0]), 1)
    assert np.allclose(b.u.ravel(), [0.0, -1.0])
    b = HankelData(scalar_seq([1, 1, 1, 1]), 1)
    assert np.allclose(b.Hs[1], np.ones((2, 2)))
    with pytest.raises(ValueError):
        HankelData(scalar_seq([1, 1]), 1)
    # HankelData: lower levels are leading slices of the top level, and
    # each factorization is made once and then handed out again.
    d = HankelData(scalar_seq([2, 1, 1, 1, 1]))
    assert d.n == 2 and d.complete and len(d.Hs) == 2
    assert np.shares_memory(d.H[0], d.H[2])
    assert np.allclose(d.Hs[1], np.ones((2, 2)))
    assert d.pinv(1) is d.pinv(1)
    assert np.allclose(d.pinv(1), np.linalg.pinv(block_hankel(d.seq, 1)))
    assert d.ladder() is d.ladder()
    assert np.allclose([x.item() for x in d.ladder()], [2.0, 0.5, 0.0])
    assert hankel_data(d) is d and hankel_data(d, 1) is d
    part = HankelData(d.seq, 1)
    assert not part.complete and hankel_data(part, 1) is part
    assert hankel_data(part).complete
    with pytest.raises(ValueError):
        part.in_Kgeq_e()


def test_hankel_bundle_embeddings():
    b = HankelData(scalar_seq([1, 2, 3, 4]), 1)
    assert np.allclose(b.v.ravel(), [1.0, 0.0])
    assert np.allclose(b.vg.ravel(), [0.0, 1.0])
    assert np.allclose(b.V.ravel(), [1.0, 0.0])
    assert np.allclose(b.Vg.ravel(), [0.0, 1.0])
    assert np.allclose(b.T, [[0.0, 0.0], [1.0, 0.0]])


def test_hankel_block_partitions(rng):
    # The level-n Hankel matrix contains the level-(n-1) matrices of
    # offsets 0 and 2 as its corner blocks, flanked by the y/z stacks.
    seq = random_hermitian_sequence(rng, 2, 4, alpha=0.3)
    q, n = 2, 2
    H = block_hankel(seq, n, 0)
    assert np.allclose(H[:n * q, :n * q], block_hankel(seq, n - 1, 0))
    assert np.allclose(H[q:, q:], block_hankel(seq, n - 1, 2))
    assert np.allclose(H[:n * q, n * q:], stack_y(seq, n, 2 * n - 1))
    assert np.allclose(H[n * q:, :n * q], stack_z(seq, n, 2 * n - 1))


def test_ljapunov_identities(rng):
    for q, n in ((1, 1), (2, 1), (3, 2)):
        seq = random_hermitian_sequence(rng, q, 2 * n + 1, alpha=0.4)
        b = HankelData(seq, n)
        H, T, u, v = b.H[n], b.T, b.u, b.v
        scale = 1.0 + np.linalg.norm(H)
        r1 = H @ T.conj().T - T @ H - (u @ v.conj().T - v @ u.conj().T)
        assert np.linalg.norm(r1) <= 1e-12 * scale
        r2 = H @ T - T.conj().T @ H - \
            (b.ug @ b.vg.conj().T - b.vg @ b.ug.conj().T)
        assert np.linalg.norm(r2) <= 1e-12 * scale
        # shifted-Hankel coupling and first-column identities
        Hs = b.Hs[n]
        assert np.allclose(Hs, -seq.alpha * b.H[n] + b.K[n])
        Ra_inv = np.eye(H.shape[0]) - seq.alpha * T
        r3 = v @ v.conj().T @ H - (Ra_inv @ H - T @ Hs)
        assert np.linalg.norm(r3) <= 1e-12 * scale
        assert np.allclose(H @ v, stack_y(seq, 0, n))
        assert np.allclose(-T @ H @ v, u)


def test_schur_ladder_examples():
    lad = schur_ladder(scalar_seq([1, 1, 1]))
    assert np.allclose([x.item() for x in lad.L], [1.0, 0.0])
    lad = schur_ladder(scalar_seq([0, 0, 1]))
    assert np.allclose([x.item() for x in lad.L], [0.0, 1.0])
    lad = schur_ladder(scalar_seq([5]))
    assert np.allclose(lad.L[0], 5.0)
    assert lad.Ls == []


def test_class_membership_examples():
    rep = class_membership(scalar_seq([1, 1, 1, 1]))
    assert (rep.in_Hgeq, rep.in_Hgeq_e, rep.in_Kgeq, rep.in_Kgeq_e) == \
        (True, True, True, True)
    rep = class_membership(scalar_seq([1, -1]))
    assert not rep.in_Kgeq
    rep = class_membership(scalar_seq([0, 0, 1]))
    assert rep.in_Hgeq and not rep.in_Hgeq_e


def test_class_membership_witness_and_implications():
    for mu, seq, n in kge_fixtures(8, seed=11):
        rep = class_membership(seq)
        assert rep.in_Kgeq_e  # atomic data is always extendable
        assert rep.in_Kgeq and rep.in_Hgeq_e and rep.in_Hgeq
        assert rep.witness_extension is not None
        longer = MomentSequence(seq.alpha, seq.q,
                                seq.moments + [rep.witness_extension])
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
    assert longer.m == 2 and np.allclose(longer.s(2), 1.0)


def test_zero_mass_forces_zero_moments():
    # A PSD Hankel matrix with vanishing (0,0) block forces the coupled
    # moments to vanish.
    seq = scalar_seq([0, 0, 1])
    H = block_hankel(seq, 1, 0)
    assert is_psd(H)
    assert np.allclose(seq.s(0), 0.0) and np.allclose(seq.s(1), 0.0)
    # any Hermitian completion with d_1 != 0 breaks positivity
    bad = scalar_seq([0, 0.5, 1])
    assert not is_psd(block_hankel(bad, 1, 0))


def test_ladder_nesting_on_extendable_fixtures():
    # Null spaces of the interleaved ladder blocks are nested:
    # N(L_0) in N(Ls_0) in N(L_1) in ...
    for mu, seq, n in kge_fixtures(8, seed=3):
        lad = schur_ladder(seq)
        chain = []
        for j in range(len(lad.L)):
            chain.append(lad.L[j])
            if j < len(lad.Ls):
                chain.append(lad.Ls[j])
        for A, B in zip(chain, chain[1:]):
            assert range_included(A.conj().T, B.conj().T)


def test_dubovoj_candidates_and_rank_profile():
    for mu, seq, n in kge_fixtures(6, seed=5):
        D, Ds = dubovoj_candidates(seq, n)
        b = HankelData(seq, n)
        assert is_dubovoj(D, b.H[n], b.T)
        assert is_dubovoj(Ds, b.Hs[n], b.T)
        assert D.dim == mrank(b.H[n])
    prof = rank_profile(scalar_seq([1, 1, 1]))
    assert prof["rank_H"] == 1
    assert prof["rank_L"] == [1, 0]


def test_hankel_data_levels_equal_direct_assembly(rng):
    for q, m in ((1, 0), (1, 3), (2, 4), (2, 5), (3, 3)):
        seq = random_hermitian_sequence(rng, q, m, alpha=0.7)
        d = HankelData(seq)
        assert len(d.H) == m // 2 + 1 and len(d.Hs) == (m - 1) // 2 + 1
        for k, H in enumerate(d.H):
            assert np.array_equal(H, block_hankel(seq, k, 0))
        for k, Hs in enumerate(d.Hs):
            assert np.array_equal(Hs, block_hankel(shift_right(seq), k, 0))


def test_class_membership_factors_each_matrix_once(pinv_calls):
    rng = np.random.default_rng(8)
    seqs = [seq for _, seq, _ in kge_fixtures(12, seed=13)]
    # even m, where extendability needs a second projector
    seqs += [MomentSequence(s.alpha, s.q, s.moments[:-1]) for s in seqs]
    seqs += [random_hermitian_sequence(rng, 2, m) for m in (2, 3)]
    for seq in seqs:
        pinv_calls.clear()
        class_membership(seq)
        assert max(pinv_calls.values(), default=1) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shifted_hankel_matches_direct_assembly(seed):
    rng = np.random.default_rng(seed)
    seq = random_hermitian_sequence(rng, 2, 3, alpha=float(rng.normal()))
    b = HankelData(seq, 1)
    direct = block_hankel(shift_right(seq), 1, 0)
    assert np.allclose(b.Hs[1], direct)
