"""Unit tests for classification, lifting, and the solution map."""

import collections
import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from stieltjesmp import MomentSequence, canonical_extension, \
    class_membership, matcore, potapov, resolvent, solver, stieltjespairs
from stieltjesmp.momentseq import dubovoj_candidates
from stieltjesmp.potapov import potapov_report
from stieltjesmp.resolvent import MatrixPolynomial, build_resolvent, \
    standard_grid
from stieltjesmp.solver import (
    classify,
    lft_solution,
    lift_pair,
    pair_in_restricted_class,
    recover_s0,
    unique_solution,
    verify_solution,
)
from stieltjesmp.stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    transform,
)

from conftest import WEIGHT_PATTERNS, atomic_fixture, canonical_pair, \
    delta, hankel_factor_counts, kge_fixtures, random_psd, scalar_seq
from identities import atomic_decomposition_residual, congruence_check, \
    exact_lft_value, fq_matrices, horner, pair_eval, potapov_matrix, \
    psi_polynomial, right_divide_three_norms, sigma_matrix, \
    transform_per_atom


Q2_SEQ = MomentSequence(0.0, 2, [np.diag([1.0, 0.0]), np.zeros((2, 2))])


def test_classify_examples():
    rep = classify(scalar_seq([1, 1]), 0)
    assert (rep.m, rep.ell, rep.r) == (0, 0, 1)
    assert rep.case == "NonDegenerate"
    rep = classify(scalar_seq([1, 0]), 0)
    assert (rep.m, rep.ell, rep.r) == (0, 1, 0)
    assert rep.case == "CompletelyDegenerate"
    rep = classify(Q2_SEQ, 0)
    assert (rep.m, rep.ell, rep.r) == (1, 1, 0)
    assert rep.case == "CompletelyDegenerate"
    assert rep.W.shape == (2, 2)
    assert np.linalg.norm(rep.W.conj().T @ rep.W - np.eye(2)) < 1e-10


def test_classify_degenerate_case(rng):
    # One atom with a rank-1 weight in q = 2 leaves a one-dimensional
    # parameter freedom.
    mu = AtomicMeasure(0.0, 2, [(1.0, np.diag([1.0, 0.0])),
                                (2.0, np.diag([1.0, 0.0]))])
    from stieltjesmp.stieltjespairs import moments_of
    seq = moments_of(mu, 1)
    rep = classify(seq, 0)
    assert rep.case in ("Degenerate", "CompletelyDegenerate")
    assert rep.m + rep.ell + rep.r == 2


def test_a_new_report_on_live_data_makes_no_second_svd(monkeypatch):
    # The defect subspaces, the complement of U + V and the frame W are
    # kept on the Hankel data, so a report dropped while the data lives
    # and asked for again reads them: the first classification takes
    # three SVDs (the two defect products and the complement), the
    # second none.
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    mu = AtomicMeasure(0.0, 2, [(1.0, np.diag([1.0, 0.0])),
                                (2.0, np.diag([1.0, 0.0]))])
    seq = moments_of(mu, 1)
    data = seq.hankel()
    first = classify(seq, 0)
    assert (first.case, first.r) == ("Degenerate", 1)
    assert len(calls) == 3
    W = first.W
    del first
    second = classify(seq, 0)
    assert second.data is data and np.array_equal(second.W, W)
    assert len(calls) == 3


def test_lift_pair_examples():
    nd = classify(scalar_seq([1, 1]), 0)
    inner = StieltjesPair.constant([[0.0]], [[1.0]])
    assert lift_pair(nd, inner) is inner
    with pytest.raises(ValueError):
        lift_pair(nd)
    cd = classify(scalar_seq([1, 0]), 0)
    fixed = lift_pair(cd)
    phi, psi = pair_eval(fixed, 1j)
    assert np.allclose(phi, 1.0) and np.allclose(psi, 0.0)
    # q = 2, r = 1, m = 1, ell = 0 lift with W = I
    from stieltjesmp.solver import ClassificationReport
    rep = ClassificationReport(
        m=1, ell=0, r=1, case="Degenerate", U=np.array([[0.0], [1.0]]),
        V=np.zeros((2, 0)), W=np.eye(2))
    lifted = lift_pair(rep, inner)
    phi, psi = pair_eval(lifted, 1j)
    assert np.allclose(phi, np.zeros((2, 2)))
    assert np.allclose(psi, np.eye(2))
    # The size check is the lifted pair's own: a 2 x 2 inner pair of an
    # r = 1 report is refused, naming the size the report asks for.
    with pytest.raises(ValueError, match="inner pair must be 1 x 1"):
        lift_pair(rep, StieltjesPair.constant(np.zeros((2, 2)), np.eye(2)))
    with pytest.raises(ValueError, match="inner pair must be 1 x 1"):
        lift_pair(rep)


def test_lft_solution_closed_forms():
    seq = scalar_seq([1, 1])
    R = build_resolvent(seq, 0)
    pts = [0.5 + 0.5j, -1.0 + 2j, 1j, -3.0 - 1j]
    S1 = lft_solution(R, StieltjesPair.constant([[0.0]], [[1.0]]),
                      seq=seq, n=0)
    assert all(abs(S1(z) - 1.0 / (1.0 - z)) < 1e-12 for z in pts)
    S2 = lft_solution(R, StieltjesPair.constant([[1.0]], [[0.0]]),
                      seq=seq, n=0)
    assert all(abs(S2(z) - (-1.0 / z)) < 1e-12 for z in pts)
    f = StieltjesFunction([[0.0]], delta(1.0))
    S3 = lft_solution(R, StieltjesPair.from_function(f), seq=seq, n=0)
    assert all(abs(S3(z) - (2.0 - z) / (z * z - 3.0 * z + 1.0)) < 1e-12
               for z in pts)


def test_lft_solution_gates_restricted_class():
    # Without seq, the gate reads the sequence and level of R.
    seq = scalar_seq([1, 0])
    R = build_resolvent(seq, 0)
    for kw in ({"seq": seq, "n": 0}, {}):
        with pytest.raises(ValueError, match="not in the restricted class"):
            lft_solution(R, StieltjesPair.constant([[0.0]], [[1.0]]), **kw)


def test_lft_solution_refuses_a_pair_of_another_size():
    # Non-degenerate data pass the pair through lift_pair unchanged, so
    # the size is checked before the gate multiplies with it.
    seq = MomentSequence(0.0, 2, [np.eye(2), np.eye(2)])
    rep = classify(seq, 0)
    assert rep.case == "NonDegenerate"
    R = build_resolvent(seq, 0)
    pair = lift_pair(rep, StieltjesPair.constant([[0.0]], [[1.0]]))
    for kw in ({"seq": seq, "n": 0}, {}):
        with pytest.raises(ValueError,
                           match=r"pair is 1 x 1, the moment data 2 x 2"):
            lft_solution(R, pair, **kw)


def test_the_gate_refuses_a_pair_of_another_size():
    # Non-degenerate data accept a pair unread, so the gate checks its
    # size itself, on degenerate data too.
    cases = ((MomentSequence(0.0, 2, [np.eye(2), np.eye(2)]), 1,
              "NonDegenerate"), (Q2_SEQ, 1, "CompletelyDegenerate"),
             (scalar_seq([1, 1]), 2, "NonDegenerate"),
             (scalar_seq([1, 0]), 2, "CompletelyDegenerate"))
    for seq, k, case in cases:
        assert classify(seq, 0).case == case
        pair = StieltjesPair.constant(np.zeros((k, k)), np.eye(k))
        with pytest.raises(ValueError) as err:
            pair_in_restricted_class(pair, seq, 0)
        assert str(err.value) == \
            f"pair is {k} x {k}, the moment data {seq.q} x {seq.q}"


def test_the_gate_accepts_every_pair_on_non_degenerate_data_unread(
        monkeypatch):
    # U = V = {0}: constant and function pairs, bare and lifted by the
    # frame W, are in the class, and the gate takes no norm of their
    # coefficients.
    fro, calls = solver._fro, []

    def counting(a):
        calls.append(a.shape)
        return fro(a)

    monkeypatch.setattr(solver, "_fro", counting)
    checked = 0
    for mu, seq, n in kge_fixtures(24, seed=59):
        report = classify(seq, n)
        if report.case != "NonDegenerate":
            continue
        q = seq.q
        f = StieltjesFunction(np.eye(q), AtomicMeasure(
            seq.alpha, q, [(seq.alpha + 1.0, np.eye(q))]))
        for inner in (StieltjesPair.constant(np.zeros((q, q)), np.eye(q)),
                      StieltjesPair.from_function(f)):
            for pair in (inner, StieltjesPair.lifted(report.W, inner, 0, 0)):
                assert pair_in_restricted_class(pair, seq, n)
        checked += 1
    assert checked == 14 and calls == []


_ABOVE_ONE = {   # measures on [1, oo) by the case of their level 1
    "NonDegenerate": AtomicMeasure(1.0, 1, [
        (1.5, [[1.0]]), (2.5, [[2.0]]), (4.0, [[1.0]])]),
    "Degenerate": AtomicMeasure(1.0, 2, [
        (1.5, np.eye(2)), (2.5, np.diag([2.0, 0.0])),
        (4.0, np.diag([1.0, 0.0]))])}


@pytest.mark.parametrize("case", sorted(_ABOVE_ONE))
def test_the_gate_refuses_a_pair_whose_f_has_an_atom_below_alpha(case):
    # A solution lives on [alpha, oo), and S of a pair on f with an atom
    # below alpha fails the Potapov test.  So the gate refuses such a
    # pair by the support rule verify_solution applies to a measure, on
    # non-degenerate data, where it reads no coefficient, and on lifted
    # degenerate data, where the defect conditions hold; an atom within
    # the slit guard below alpha, or above it, gives a valid solution.
    seq = moments_of(_ABOVE_ONE[case], 3)
    report = classify(seq, 1)
    assert report.case == case and report.r == 1
    R = build_resolvent(seq, 1)
    for t, ok in ((0.5, False), (1.0 - 1e-11, False), (1.0 - 1e-13, True),
                  (3.0, True)):
        f = StieltjesFunction(None, AtomicMeasure(0.0, 1, [(t, [[1.0]])]))
        pair = lift_pair(report, StieltjesPair.from_function(f))
        assert pair_in_restricted_class(pair, seq, 1) is ok
        if ok:
            assert verify_solution(seq, 1, lft_solution(R, pair))["valid"]
        else:
            with pytest.raises(ValueError,
                               match="not in the restricted class"):
                lft_solution(R, pair)


def test_unique_solution_examples():
    S = unique_solution(scalar_seq([1, 0]), 0)
    for z in (1j, 0.5 + 2j, -2.0 + 0.1j):
        assert abs(S(z) - (-1.0 / z)) < 1e-12
    S2 = unique_solution(Q2_SEQ, 0)
    for z in (1j, -1.0 + 1j):
        assert np.allclose(S2(z), np.diag([-1.0 / z, 0.0]), atol=1e-12)
    with pytest.raises(ValueError):
        unique_solution(scalar_seq([1, 1]), 0)


def test_recover_s0_examples():
    assert np.allclose(recover_s0(lambda z: np.array([[-1.0 / z]])), 1.0)
    est = recover_s0(lambda z: np.array([[1.0 / (1.0 - z)]]))
    assert abs(est - 1.0) < 1e-5
    est = recover_s0(
        lambda z: np.array([[(2.0 - z) / (z * z - 3.0 * z + 1.0)]]))
    assert abs(est - 1.0) < 1e-4


def test_verify_solution_measures():
    seq = scalar_seq([1, 1])
    out = verify_solution(seq, 0, delta(1.0))
    assert out["valid"]
    assert abs(out["checks"]["top_defect_lambda_min"]) < 1e-12
    out = verify_solution(seq, 0, delta(0.0))
    assert out["valid"]
    assert abs(out["checks"]["top_defect_lambda_min"] - 1.0) < 1e-12
    out = verify_solution(scalar_seq([1, 0]), 0, delta(1.0))
    assert not out["valid"]


def test_a_measure_is_decided_on_its_support_by_the_sequence_alpha():
    # A measure declared on [-1, oo) with its atom at -0.5 matches s_0 of
    # data on [0, oo) and leaves the top defect 1.5: only its support
    # rules it out, with the guard of AtomicMeasure against the
    # sequence's alpha.
    seq = scalar_seq([1, 1])
    out = verify_solution(seq, 0, delta(-0.5, alpha=-1.0))
    assert out["checks"]["moment_match_residual"] == 0.0
    assert out["checks"]["top_defect_lambda_min"] == 1.5
    assert out["checks"]["top_defect_psd"]
    assert out["checks"]["support"] is False and out["valid"] is False
    for t, inside in ((-1e-11, False), (-1e-13, True), (0.0, True)):
        out = verify_solution(seq, 0, delta(t, alpha=-1.0))
        assert out["checks"]["support"] is inside
        assert out["valid"] is inside


@pytest.mark.parametrize("seed", [2, 3, 25, 30])
def test_the_generating_measure_of_single_atom_data_is_a_solution(seed):
    # At n = 7 its moments match exactly and the top defect is 0; a
    # 24-point Potapov grid of its transform refused it by rounding.
    mu, seq = atomic_fixture(np.random.default_rng(seed), 2, 7, -1.0,
                             natoms=1)
    out = verify_solution(seq, 7, mu)
    assert out["checks"]["moment_match_residual"] == 0.0
    assert out["checks"]["top_defect_lambda_min"] == 0.0
    assert out["valid"]


def test_verify_solution_refuses_a_measure_of_another_size():
    # The sizes are compared before any moment arithmetic, which would
    # broadcast a 1 x 1 measure against 2 x 2 moments.
    one = MomentSequence(0.0, 1, [[[1.0]]] * 2)
    two = MomentSequence(0.0, 2, [np.eye(2)] * 2)
    mu2 = AtomicMeasure(0.0, 2, [(1.0, np.eye(2))])
    for seq, mu, k in ((two, delta(1.0), 1), (one, mu2, 2)):
        with pytest.raises(ValueError) as err:
            verify_solution(seq, 0, mu)
        assert str(err.value) == (f"measure is {k} x {k}, the moment data "
                                  f"{seq.q} x {seq.q}")


def test_verify_solution_function():
    seq = scalar_seq([1, 1])
    S = unique_solution(scalar_seq([1, 0]), 0)  # wrong data for seq
    out = verify_solution(scalar_seq([1, 0]), 0, S)
    assert out["valid"]
    good = lft_solution(build_resolvent(seq, 0),
                        StieltjesPair.constant([[0.0]], [[1.0]]))
    out = verify_solution(seq, 0, good)
    assert out["valid"]
    assert out["checks"]["s0_recovery_residual"] <= 1e-4


def test_equivalent_pairs_same_solution(rng):
    mu, seq = atomic_fixture(rng, 2, 1, alpha=0.25)
    R = build_resolvent(seq, 1)
    phi = np.zeros((2, 2))
    psi = np.eye(2)
    g = np.array([[1.0, 2.0], [0.0, 1.0]]) + 1j * np.diag([0.5, -0.25])
    S1 = lft_solution(R, StieltjesPair.constant(phi, psi), seq=seq, n=1)
    S2 = lft_solution(R, StieltjesPair.constant(phi @ g, psi @ g),
                      seq=seq, n=1)
    for z in [w for w in standard_grid(seq.alpha)][:10]:
        assert np.linalg.norm(S1(z) - S2(z)) <= 1e-9


def test_classify_basis_independence():
    # Rotating the orthonormal bases of the defect subspaces changes W
    # but not the unique solution.
    theta = 0.7
    RU = np.array([[np.exp(1j * theta)]])
    rep1 = classify(Q2_SEQ, 0)
    U = rep1.U @ RU
    V = rep1.V @ RU.conj()
    W = np.hstack([rep1.W[:, :rep1.r], U, V])   # [comp | U | V]
    rep2 = dataclasses.replace(rep1, U=U, V=V, W=W)
    assert not np.allclose(rep1.W, rep2.W)
    R = build_resolvent(Q2_SEQ, 0)
    S1 = lft_solution(R, lift_pair(rep1))
    S2 = lft_solution(R, lift_pair(rep2))
    for z in (1j, -0.5 + 2j):
        assert np.linalg.norm(S1(z) - S2(z)) <= 1e-9


def test_solution_reports_singular_points():
    # A 0-d point, below the singularity bound or exactly singular, is
    # named as the first singular point of an array is.
    S = unique_solution(scalar_seq([1, 0]), 0)   # S(z) = -1/z
    for z in (1e-18, 0.0, np.float64(0.0), np.array(1e-18 + 0j)):
        with pytest.raises(ValueError) as err:
            S(z)
        assert str(err.value) == \
            f"singular LFT denominator at z = {complex(z)}"


def test_batch_with_singular_point_raises_as_scalar_loop():
    S = unique_solution(scalar_seq([1, 0]), 0)   # S(z) = -1/z
    zs = [1j, -2.0 + 0.5j, 1e-18, 1e-19, 3j]
    with pytest.raises(ValueError) as scalar:
        [S(z) for z in zs]
    with pytest.raises(ValueError) as batch:
        S(np.array(zs))
    assert str(batch.value) == str(scalar.value)
    assert "1e-18" in str(batch.value)
    mu = AtomicMeasure(0.0, 1, [(1.0, [[1.0]]), (2.0, [[1.0]])])
    zs = [1j, 2.0, 1.0, 2.0 + 1e-13]
    with pytest.raises(ValueError) as scalar:
        [transform(mu, z) for z in zs]
    with pytest.raises(ValueError) as batch:
        transform(mu, np.array(zs))
    assert str(batch.value) == str(scalar.value)
    assert "atom 2.0" in str(batch.value)


def test_exactly_singular_denominator_in_a_batch_names_the_first_point():
    # den(0) = 0 exactly, so ``inv`` refuses any stack holding it; the
    # error still names the first singular point in grid order.
    S = unique_solution(scalar_seq([1, 0]), 0)   # S(z) = -1/z
    for zs, first in (([1j, 0.0, 2j], 0j), ([1j, 1e-18, 0.0], 1e-18 + 0j),
                      ([0.0, 1e-18], 0j)):
        with pytest.raises(ValueError) as err:
            S(np.array(zs))
        assert str(err.value) == f"singular LFT denominator at z = {first}"


def _unfolded_lft(R, pair, z):
    """(Theta11 phi + Theta12 psi)(Theta21 phi + Theta22 psi)^-1 from
    Theta(z) and the pair's values at z, each evaluated on its own."""
    q = R.q
    th = R.theta(z)
    phi, psi = pair_eval(pair, z)
    num = th[..., :q, :q] @ phi + th[..., :q, q:] @ psi
    den = th[..., q:, :q] @ phi + th[..., q:, q:] @ psi
    return num, den


def test_folded_solution_matches_the_unfolded_lft():
    # S at one point against S over an array is
    # test_array_evaluation_matches_scalar_loop, for the same pairs:
    # constant pairs and pairs on f = gamma + sum M_i / (t_i - z) with
    # 1, 2 and 4 atoms, gamma = 0 and gamma = I, lifted (r < q) and not,
    # at the sizes of the parametrize benchmark (q <= 8, n <= 3).  The
    # largest deviation measured here is 2.5e-13 relative (q = 8, n = 3,
    # f with one atom), and over the seeds 1-5 of this draw 7.5e-13; the
    # bound is 1e-12.
    rng = np.random.default_rng(53)
    covered = set()
    for q in (1, 2, 3, 4, 8):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                alpha = (0.0, 0.5, -1.0)[(q + n) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
                report = classify(seq, n)
                R = build_resolvent(seq, n)
                if report.case == "CompletelyDegenerate":
                    pairs = [lift_pair(report)]
                else:
                    r = report.r
                    fs = [StieltjesFunction(gamma, AtomicMeasure(alpha, r, [
                        (alpha + t, random_psd(rng, r))
                        for t in rng.uniform(0.3, 4.0, size=a)]))
                        for a in (1, 2, 4)
                        for gamma in (np.zeros((r, r)), np.eye(r))]
                    pairs = [lift_pair(report, inner) for inner in (
                        StieltjesPair.constant(np.zeros((r, r)), np.eye(r)),
                        StieltjesPair.constant(np.eye(r), np.eye(r)),
                        *map(StieltjesPair.from_function, fs))]
                zs = np.array(standard_grid(alpha)[::5] + [alpha - 1.5])
                for pair in pairs:
                    covered.add((0 if pair.f is None else len(
                        pair.f.measure.atoms), report.r < q))
                    S = lft_solution(R, pair)
                    got = S(zs)
                    num, den = _unfolded_lft(R, pair, zs)
                    want = num @ np.linalg.inv(den)
                    for g, w in zip(got, want):
                        assert np.linalg.norm(g - w) <= \
                            1e-12 * np.linalg.norm(w)
    assert covered == {(a, lifted) for a in (0, 1, 2, 4)
                       for lifted in (False, True)}


def test_function_pair_solutions_match_the_40_digit_lft():
    # Every value of a function-pair solution over the standard grid
    # against the LFT of the same float Theta coefficients and pair in
    # 40-digit arithmetic (identities.exact_lft_value), for f with 1, 2
    # and 4 atoms, gamma = 0 and gamma = I, lifted (r < q) and not, to
    # 1e-10 relative; the largest error measured here is 5.9e-12 (q = 4,
    # n = 3, r = 3).  Positive control: the solution of the pair without
    # f's first atom misses the 40-digit values of the full pair by more
    # than 1e-8 (by at least 3.3e-6 here).
    rng = np.random.default_rng(71)
    lifted = set()
    for q, n, alpha, kw in ((1, 3, 0.0, {}), (2, 2, 0.5, {}),
                            (3, 2, -1.0, {"ranks": [2]}),
                            (4, 3, 0.5, {"ranks": [3]}),
                            (2, 1, 0.0, {"ranks": [1],
                                         "include_endpoint": True})):
        mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
        report = classify(seq, n)
        R = build_resolvent(seq, n)
        r = report.r
        lifted.add(r < q)
        zs = standard_grid(alpha)
        for a in (1, 2, 4):
            for gamma in (np.zeros((r, r)), np.eye(r)):
                atoms = [(alpha + t, random_psd(rng, r))
                         for t in rng.uniform(0.3, 4.0, size=a)]
                S, dropped = (lft_solution(R, lift_pair(
                    report, StieltjesPair.from_function(StieltjesFunction(
                        gamma, AtomicMeasure(alpha, r, kept)))))
                    for kept in (atoms, atoms[1:]))
                miss = 0.0
                for z, got, off in zip(zs, S(np.array(zs)),
                                       dropped(np.array(zs))):
                    want = exact_lft_value(R, S.pair, z)
                    size = np.linalg.norm(want)
                    assert np.linalg.norm(got - want) <= 1e-10 * size
                    miss = max(miss, np.linalg.norm(off - want) / size)
                assert miss > 1e-8
    assert lifted == {False, True}


def test_singular_denominator_names_the_first_point_for_every_pair_kind():
    seq = scalar_seq([1, 1])
    R = build_resolvent(seq, 0)
    f = StieltjesFunction([[0.0]], delta(1.0))
    # S = -1/z for the constant pair (1, 0), folded; the function pair
    # gives (2 - z)/(z^2 - 3z + 1), whose denominator vanishes at root.
    root = (3.0 - np.sqrt(5.0)) / 2.0
    for pair, pole in ((StieltjesPair.constant([[1.0]], [[0.0]]), 0.0),
                       (StieltjesPair.from_function(f), root)):
        S = lft_solution(R, pair, seq=seq, n=0)
        message = f"singular LFT denominator at z = {complex(pole)}"
        zs = np.array([1j, pole, 2.0 + 1j, pole])
        num, den = _unfolded_lft(R, pair, zs)
        assert not right_divide_three_norms(num, den, seq.tol)[1][1]
        for call in (lambda: S(pole), lambda: S(zs), lambda: S(zs[1:])):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


def test_constant_pair_solution_evaluates_neither_pair_nor_theta(
        monkeypatch):
    # No call evaluates Theta, and off the atoms of f no call evaluates
    # f or its transform: the solution reads f's atoms and weights once,
    # when it is built.  On an atom the call refuses with the error of
    # f's transform, which the counters see.
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(StieltjesFunction, "__call__",
                        counting("f", StieltjesFunction.__call__))
    monkeypatch.setattr(stieltjespairs, "transform",
                        counting("transform", stieltjespairs.transform))
    zs = np.array([1j, -0.5 + 2j, 3.0 - 1j])
    checked = set()
    for mu, seq, n in kge_fixtures(24, seed=59):
        report = classify(seq, n)
        R = build_resolvent(seq, n)
        monkeypatch.setattr(R.theta, "eval",
                            counting("theta", R.theta.eval))
        pairs = [(canonical_pair(report), False)]
        if report.r:
            r = report.r
            f = StieltjesFunction(None, AtomicMeasure(
                seq.alpha, r, [(seq.alpha + 1.0, np.eye(r))]))
            pairs.append((lift_pair(report, StieltjesPair.from_function(f)),
                          True))
        for pair, with_f in pairs:
            S = lft_solution(R, pair)
            calls.clear()
            S(zs[0])
            S(zs)
            assert (calls["theta"], calls["f"], calls["transform"]) == \
                (0, 0, 0)
            if with_f:
                with pytest.raises(ValueError, match="coincides with atom"):
                    S(seq.alpha + 1.0)
                assert (calls["f"], calls["transform"]) == (1, 1)
            checked.add((report.r < seq.q, with_f))
    assert checked == {(False, False), (False, True), (True, False),
                       (True, True)}


def test_lft_solution_on_own_sequence_factors_nothing(factor_calls):
    for mu, seq, n in kge_fixtures(12, seed=31):
        R = build_resolvent(seq, n)
        pair = canonical_pair(classify(seq, n))
        factor_calls.clear()
        lft_solution(R, pair, seq=seq, n=n)
        lft_solution(R, pair, seq=seq)
        assert not factor_calls


def test_unique_solution_factors_each_matrix_once(factor_calls):
    checked = 0
    for mu, seq, n in kge_fixtures(24, seed=17):
        if classify(seq, n).case != "CompletelyDegenerate":
            continue
        factor_calls.clear()
        unique_solution(seq, n)
        assert factor_calls and max(factor_calls.values()) == 1
        checked += 1
    assert checked >= 3


def test_pipeline_on_one_hankel_data_factors_each_matrix_once(factor_calls):
    # Classification, class tests, resolvent, pair gate and both
    # verifications all read the one Hankel data of the sequence, which
    # the classification report holds from its first call on.
    for mu, seq, n in kge_fixtures(12, seed=29):
        factor_calls.clear()
        report = classify(seq, n)
        assert class_membership(seq).in_Kgeq_e
        S = lft_solution(build_resolvent(seq, n), canonical_pair(report),
                         seq=seq, n=n)
        assert verify_solution(seq, n, mu)["valid"]
        assert verify_solution(seq, n, S)["valid"]
        assert factor_calls == hankel_factor_counts(seq, n, witness=True)


def test_hankel_data_lives_exactly_while_a_result_holds_it():
    mu, seq, n = kge_fixtures(4, seed=41)[3]
    data = weakref.ref(seq.hankel())
    assert data() is None             # nothing holds it: freed at once
    report = classify(seq, n)
    R = build_resolvent(seq, n)
    S = lft_solution(R, canonical_pair(report), seq=seq, n=n)
    data = weakref.ref(seq.hankel())
    assert report.data is data() and R.data is data()
    assert verify_solution(seq, n, mu)["valid"] and seq.hankel() is data()
    # The data is left out of the results' repr, comparison and JSON.
    assert "HankelData" not in repr(report) + repr(R)
    assert report == dataclasses.replace(report, data=None)
    assert "data" not in report.to_dict()
    del report, R
    assert data() is S.resolvent.data
    del S
    assert data() is None


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_a_second_call_shares_the_memo_and_does_no_work(monkeypatch):
    # A report or resolvent is assembled anew on each call from the parts
    # kept on the Hankel data: a second call shares W and theta and
    # neither classifies nor builds again.
    mu, seq = atomic_fixture(np.random.default_rng(43), 2, 1, 0.5,
                             natoms=1)
    work = collections.Counter()
    _count_calls(monkeypatch, resolvent, "_self_check", work)
    _count_calls(monkeypatch, solver, "_defect_subspace", work)
    report = classify(seq, 1)
    assert report.case == "CompletelyDegenerate"
    R = build_resolvent(seq, 1)
    assert work == {"_self_check": 1, "_defect_subspace": 2}
    again = classify(seq, 1)
    assert again is not report and again.data is report.data
    assert again.W is report.W and again.U is report.U and \
        again.V is report.V
    rebuilt = build_resolvent(seq, 1)
    assert rebuilt.theta is R.theta and \
        rebuilt.theta_tilde is R.theta_tilde
    S = unique_solution(seq, 1)
    assert S.resolvent.theta is R.theta
    assert work == {"_self_check": 1, "_defect_subspace": 2}
    for twin in (copy.copy(seq), pickle.loads(pickle.dumps(seq))):
        assert classify(twin, 1).W is not report.W
        assert build_resolvent(twin, 1).theta is not R.theta
    assert work == {"_self_check": 3, "_defect_subspace": 6}
    # The results hold the data and the data holds none of them, so no
    # cycle keeps them: dropping them frees them at once.
    dropped = weakref.ref(report), weakref.ref(R), weakref.ref(seq.hankel())
    gc.disable()
    try:
        del report, R, again, rebuilt, S
        assert [ref() for ref in dropped] == [None] * 3
    finally:
        gc.enable()
    gc.collect()
    assert classify(seq, 1).case == "CompletelyDegenerate"
    build_resolvent(seq, 1)
    assert work["_self_check"] == 4


def test_a_dropped_resolvent_is_not_built_again(monkeypatch):
    # With a report holding the Hankel data, a resolvent dropped and
    # asked for again is assembled from the parts the data keeps.
    mu, seq = atomic_fixture(np.random.default_rng(43), 2, 1, 0.5)
    builds = collections.Counter()
    _count_calls(monkeypatch, resolvent, "_self_check", builds)
    report = classify(seq, 1)
    R = build_resolvent(seq, 1)
    theta, dropped = R.theta, weakref.ref(R)
    del R
    assert dropped() is None
    again = build_resolvent(seq, 1)
    assert builds["_self_check"] == 1
    assert again.data is report.data and again.theta is theta


@pytest.mark.parametrize("kw", WEIGHT_PATTERNS.values())
def test_a_dropped_report_is_not_classified_again(monkeypatch, kw):
    # lft_solution gates every pair on the defect subspaces of its level.
    # They are kept on the Hankel data R holds, so with R held and the
    # report dropped, only the first classification computes them.
    mu, seq = atomic_fixture(np.random.default_rng(45), 8, 1, 0.5, **kw)
    calls = collections.Counter()
    _count_calls(monkeypatch, solver, "_defect_subspace", calls)
    R = build_resolvent(seq, 1)
    report = classify(seq, 1)
    pair = canonical_pair(report)
    assert calls["_defect_subspace"] == 2          # U and V
    dropped = weakref.ref(report)
    del report
    assert dropped() is None
    for _ in range(10):
        lft_solution(R, pair)
    assert calls["_defect_subspace"] == 2


@pytest.mark.parametrize("kw, case", [
    ({"natoms": 1}, "CompletelyDegenerate"), ({}, "NonDegenerate")])
def test_the_verify_pipeline_does_each_piece_of_work_once(
        monkeypatch, factor_calls, kw, case):
    # The per-problem pipeline of the dense verification benchmark: S at
    # points one by one and both verifications, with the report and the
    # resolvent held throughout.
    mu, seq = atomic_fixture(np.random.default_rng(44), 8, 1, 0.5, **kw)
    calls = collections.Counter()
    for name in ("_self_check", "_reflexive_solve"):
        _count_calls(monkeypatch, resolvent, name, calls)
    _count_calls(monkeypatch, potapov, "_coupling", calls)
    report = classify(seq, 1)
    assert report.case == case
    R = build_resolvent(seq, 1)
    if case == "CompletelyDegenerate":
        S = unique_solution(seq, 1)
    else:
        S = lft_solution(R, canonical_pair(report), seq=seq, n=1)
    for z in standard_grid(0.5)[:6]:
        assert np.all(np.isfinite(S(z)))
    assert verify_solution(seq, 1, mu)["valid"]
    assert verify_solution(seq, 1, S)["valid"]
    # Both verifications share one coupling per parity: beyond the
    # factors, one plain eigh of H_1 and one of Hs_1.
    assert calls == {"_self_check": 1, "_reflexive_solve": 2,
                     "_coupling": 2}
    assert factor_calls == hankel_factor_counts(seq, 1)


def test_only_the_witness_forms_a_pseudo_inverse(monkeypatch):
    # A factor forms no inverse when it is built.  The canonical witness,
    # the one reader of H^+, forms one per sequence while the data lives;
    # classification, the resolvent, the solution and both verifications
    # form none.
    calls = collections.Counter()
    _count_calls(monkeypatch, matcore.HermitianFactor, "pinv", calls)
    for mu, seq, n in kge_fixtures(12, seed=53):
        report = classify(seq, n)
        R = build_resolvent(seq, n)
        S = lft_solution(R, canonical_pair(report), seq=seq, n=n)
        assert np.all(np.isfinite(S(np.array(standard_grid(seq.alpha)))))
        assert verify_solution(seq, n, mu)["valid"]
        assert verify_solution(seq, n, S)["valid"]
        assert not calls
        witness = class_membership(seq).witness_extension
        assert witness is not None and calls.pop("pinv", 0) == 1
        assert class_membership(seq).witness_extension is witness
        assert canonical_extension(seq) is witness
        assert calls.pop("pinv", 0) == 0
    # With no result holding it, the data goes, and the witness with it.
    del report, R, S
    assert class_membership(seq).witness_extension is not None
    assert calls.pop("pinv", 0) == 1


def test_verifying_a_measure_calls_neither_transform_nor_potapov_report(
        monkeypatch):
    # A measure is decided by its support and moments: no transform is
    # evaluated and no Potapov report or coupling is built for it, while
    # a function candidate still gets its one report.
    calls = collections.Counter()
    _count_calls(monkeypatch, stieltjespairs, "transform", calls)
    for module, name in ((solver, "potapov_report"),
                         (potapov, "potapov_report"), (potapov, "_coupling")):
        _count_calls(monkeypatch, module, name, calls)
    for n, kw in ((1, {}), (2, {"include_endpoint": True})):
        mu, seq = atomic_fixture(np.random.default_rng(45), 3, n, -1.0, **kw)
        out = verify_solution(seq, n, mu)
        assert out["valid"] and "potapov" not in out
        assert sorted(out["checks"]) == [
            "moment_match", "moment_match_residual", "support",
            "top_defect_lambda_min", "top_defect_psd"]
        assert not calls
    assert verify_solution(seq, n, StieltjesFunction(None, mu))["valid"]
    assert calls["potapov_report"] == 1


@pytest.mark.parametrize("q, n", [(2, 2), (4, 2), (8, 2), (32, 2), (1, 3),
                                  (1, 4), (2, 3), (2, 4)])
def test_classify_positive_definite_data_as_nondegenerate(q, n):
    # More atoms than levels, all of full rank and above alpha: H_n and
    # Hs_n are positive definite (cond(Hs_n) up to 4e9 here), so
    # the data is in K>=,e and both defect products vanish.
    mu, seq = atomic_fixture(np.random.default_rng(1), q, n, 0.0,
                             natoms=n + 3)
    assert class_membership(seq).in_Kgeq_e
    rep = classify(seq, n)
    assert (rep.m, rep.ell, rep.r) == (0, 0, q)
    assert rep.case == "NonDegenerate"


@pytest.mark.parametrize("q", [1, 2, 3])
def test_classify_is_invariant_under_scaling_the_measure(q):
    # One full-rank atom at alpha: the shifted sequence vanishes and every
    # direction is a psi defect, at any scale c of the measure.
    M = random_psd(np.random.default_rng(q), q)
    for n in (0, 1):
        for c in (1e-12, 1e-8, 1.0, 1e8):
            mu = AtomicMeasure(0.5, q, [(0.5, c * M)])
            rep = classify(moments_of(mu, 2 * n + 1), n)
            assert (rep.m, rep.ell, rep.case) == \
                (0, q, "CompletelyDegenerate")


@pytest.mark.parametrize("q, n", [(16, 1), (16, 2), (32, 1), (32, 2)])
def test_solution_at_large_q_evaluates_and_verifies(q, n):
    # Positive definite data; the LFT denominator is well conditioned on
    # the grid, whatever the size of its determinant.
    mu, seq = atomic_fixture(np.random.default_rng(1), q, n, 0.0,
                             natoms=n + 3)
    S = lft_solution(build_resolvent(seq, n), canonical_pair(
        classify(seq, n)), seq=seq, n=n)
    assert np.all(np.isfinite(S(np.array(standard_grid(0.0)))))
    assert verify_solution(seq, n, S)["valid"]


def test_lft_solution_gates_against_the_given_sequence():
    # Any pair is admissible for (1, 1); psi = 1 is not for (1, 0).
    own, other = scalar_seq([1, 1]), scalar_seq([1, 0])
    R = build_resolvent(own, 0)
    pair = StieltjesPair.constant([[0.0]], [[1.0]])
    lft_solution(R, pair, seq=own, n=0)
    with pytest.raises(ValueError):
        lft_solution(R, pair, seq=other, n=0)


def _values(S, pts):
    out = []
    for z in pts:
        try:
            out.append(S(z))
        except ValueError:
            out.append(None)
    return out


def test_unique_solution_matches_lft_of_lifted_pair():
    rng = np.random.default_rng(2024)
    pts = [0.3 + 1j, -1.0 + 0.5j, 2.0 - 1j]
    unique = 0
    for q in (1, 2, 3):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                mu, seq = atomic_fixture(rng, q, n, 0.5, **kw)
                try:
                    report = classify(seq, n)
                except ValueError:
                    with pytest.raises(ValueError):
                        unique_solution(seq, n)
                    continue
                if report.case != "CompletelyDegenerate":
                    with pytest.raises(ValueError):
                        unique_solution(seq, n)
                    continue
                S = unique_solution(seq, n)
                ref = lft_solution(build_resolvent(seq, n),
                                   lift_pair(report), seq=seq, n=n)
                for got, want in zip(_values(S, pts), _values(ref, pts)):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert np.linalg.norm(got - want) <= \
                            1e-12 * np.linalg.norm(want)
                unique += 1
    assert unique >= 10


def _agrees_with_scalar_loop(fn, zs):
    """fn over the array zs equals fn point by point, to 1e-12 relative;
    when the loop raises, the array call raises the same error.  Returns
    whether values were compared."""
    try:
        want = [fn(complex(z)) for z in zs]
    except ValueError as exc:
        with pytest.raises(ValueError) as batch:
            fn(zs)
        assert str(batch.value) == str(exc)
        return False
    got = fn(zs)
    assert got.shape == (len(zs),) + want[0].shape
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
    return True


def _array_matches_scalar_loop(rng, q, n, kw, covered):
    """Array calls against point-by-point calls on one fixture; returns
    how many solutions had their values compared."""
    alpha = (0.0, 0.5, -1.0)[(q + n) % 3]
    mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
    zs = np.array(standard_grid(alpha)[::3] + [alpha - 1.5])
    assert _agrees_with_scalar_loop(lambda z: transform(mu, z), zs)
    try:
        report = classify(seq, n)
    except ValueError:
        return 0
    R = build_resolvent(seq, n)
    for poly in (R.theta, R.theta_tilde,
                 MatrixPolynomial(R.theta.coeffs[:1])):
        assert _agrees_with_scalar_loop(poly.eval, zs)
    if report.case == "CompletelyDegenerate":
        pairs = [lift_pair(report)]
    else:
        r = report.r
        f = StieltjesFunction(np.eye(r), AtomicMeasure(
            alpha, r, [(alpha + 0.7, np.eye(r))]))
        pairs = [lift_pair(report, inner) for inner in (
            StieltjesPair.constant(np.zeros((r, r)), np.eye(r)),
            StieltjesPair.from_function(f))]
    compared = 0
    for pair in pairs:
        covered.add((pair.f is not None, report.r < q))
        assert _agrees_with_scalar_loop(
            lambda z: np.concatenate(pair_eval(pair, z), -1), zs)
        compared += _agrees_with_scalar_loop(lft_solution(R, pair), zs)
    return compared


def test_array_evaluation_matches_scalar_loop():
    rng = np.random.default_rng(4)
    covered = set()
    compared = 0
    for q in (1, 2, 3):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                compared += _array_matches_scalar_loop(rng, q, n, kw, covered)
    assert covered == {(False, False), (True, False), (False, True),
                       (True, True)}
    assert compared >= 40
    # the sizes of the dense verification benchmark
    large = set()
    for q, kw in ((8, {"ranks": [3]}), (16, WEIGHT_PATTERNS["full"])):
        assert _array_matches_scalar_loop(
            np.random.default_rng(4), q, 1, kw, large) == 2
    assert large == {(False, False), (True, False), (False, True),
                     (True, True)}


_SHAPES = ((), (0,), (0, 3), (2, 3))


def _points_of_shape(alpha, shape):
    """Off-real points around alpha in an array of the given shape."""
    k = np.arange(int(np.prod(shape))).reshape(shape)
    return alpha + 0.3 * k - 1.0 + 1j * (1.0 + 0.2 * k) * (-1.0) ** k


def test_solution_takes_every_shape_of_points():
    # One path for a point and a stack: S at a 0-d point, at the empty
    # arrays (0,) and (0, 3) and at a 2-D array has the shape
    # z.shape + (q, q), and each point of an array agrees with S at that
    # point alone to 1e-12 relative; for constant, function and lifted
    # pairs, and for the unique solution.
    rng = np.random.default_rng(24)
    kinds = set()
    for q, n, kw in ((2, 1, {}), (3, 0, {"ranks": [1]}),
                     (2, 1, {"natoms": 1})):
        mu, seq = atomic_fixture(rng, q, n, 0.5, **kw)
        report = classify(seq, n)
        if report.case == "CompletelyDegenerate":
            sols = {"unique": unique_solution(seq, n)}
        else:
            r, R = report.r, build_resolvent(seq, n)
            f = StieltjesFunction(np.eye(r), AtomicMeasure(
                0.5, r, [(1.2, random_psd(rng, r))]))
            lifted = "lifted " if r < q else ""
            sols = {lifted + kind: lft_solution(R, lift_pair(report, inner))
                    for kind, inner in (
                        ("constant", StieltjesPair.constant(
                            np.eye(r), 2.0 * np.eye(r))),
                        ("function", StieltjesPair.from_function(f)))}
        for kind, S in sols.items():
            kinds.add(kind)
            for shape in _SHAPES:
                zs = _points_of_shape(0.5, shape)
                got = S(zs if shape else zs[()])
                assert got.shape == shape + (q, q)
                for z, g in zip(zs.ravel(), got.reshape(-1, q, q)):
                    w = S(z)
                    assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
    assert kinds == {"constant", "function", "lifted constant",
                     "lifted function", "unique"}


def test_an_atomless_measure_evaluates_at_a_point_and_an_array():
    # No atom: the transform is 0, f = gamma, and the function pair
    # (gamma, I) is the constant pair (gamma, I).
    mu = AtomicMeasure(0.0, 2, [])
    gamma = np.array([[2.0, 0.5], [0.5, 1.0]])
    R = build_resolvent(MomentSequence(
        0.0, 2, [np.eye(2), 2.0 * np.eye(2), 5.0 * np.eye(2),
                 14.0 * np.eye(2)]), 1)
    S_f = lft_solution(R, StieltjesPair.from_function(
        StieltjesFunction(gamma, mu)))
    S_c = lft_solution(R, StieltjesPair.constant(gamma, np.eye(2)))
    for shape in _SHAPES:
        zs = _points_of_shape(0.0, shape)
        z = zs if shape else zs[()]
        got = transform(mu, z)
        assert got.shape == shape + (2, 2) and not got.any()
        got, want = S_f(z), S_c(z)
        assert got.shape == want.shape == shape + (2, 2)
        assert np.all(np.linalg.norm(got - want, axis=(-2, -1))
                      <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))


def test_refusals_name_the_first_point_and_atom_for_every_shape():
    # S = -1/z: singular at 1e-18 by the rule and at 0 exactly; the
    # transform: 1.0 + 8e-13 lies within the slit guard of the atoms at
    # 1.0 (the first) and at 1.0 + 1e-12 (the closest), and 2.0 on the
    # atom 2.0.  Each refusal names the first offending point in the
    # order of z.ravel(), and for the slit the first atom near it.
    S = unique_solution(scalar_seq([1, 0]), 0)
    mu = AtomicMeasure(0.0, 1, [(1.0, [[1.0]]), (1.0 + 1e-12, [[1.0]]),
                                (2.0, [[1.0]])])
    for bad, call, message in (
            ((1e-18, 0.0), S, "singular LFT denominator at z = {}"),
            ((0.0, 1e-18), S, "singular LFT denominator at z = {}"),
            ((1.0 + 8e-13, 2.0), lambda z: transform(mu, z),
             "evaluation point {} coincides with atom 1.0"),
            ((2.0, 1.0 + 8e-13), lambda z: transform(mu, z),
             "evaluation point {} coincides with atom 2.0")):
        for shape, at in (((), ()), ((4,), (1, 3)), ((2, 3), (4, 5))):
            zs = _points_of_shape(0.0, shape).astype(complex)
            if shape:
                zs.ravel()[list(at)] = bad
            else:
                zs = np.asarray(bad[0], dtype=complex)
            with pytest.raises(ValueError) as err:
                call(zs)
            assert str(err.value) == message.format(complex(bad[0]))


def test_a_function_pair_solution_refuses_a_point_on_an_atom_of_f():
    # The solution of a pair on f refuses a point within the slit guard
    # of an atom of f with the error of f's transform, though it does not
    # evaluate f elsewhere: at a point, and in a 1-D and a 2-D array with
    # one or two such entries, naming the first in the order of
    # z.ravel() and, for it, the first atom near it (1.0 + 8e-13 lies
    # within the guard of 1.0, the first, and of 1.0 + 1e-12, the
    # closest).
    seq = scalar_seq([1, 1])
    mu = AtomicMeasure(0.0, 1, [(1.0, [[1.0]]), (1.0 + 1e-12, [[1.0]]),
                                (2.0, [[1.0]])])
    S = lft_solution(build_resolvent(seq, 0), StieltjesPair.from_function(
        StieltjesFunction([[0.5]], mu)), seq=seq, n=0)
    message = "evaluation point {} coincides with atom {}"
    for bad, atom in (((1.0 + 8e-13, 2.0), 1.0), ((2.0, 1.0 + 8e-13), 2.0)):
        for shape, at in (((), ()), ((4,), (2,)), ((4,), (1, 3)),
                          ((2, 3), (4,)), ((2, 3), (4, 5))):
            zs = _points_of_shape(0.0, shape).astype(complex)
            if shape:
                zs.ravel()[list(at)] = bad[:len(at)]
            else:
                zs = np.asarray(bad[0], dtype=complex)
            with pytest.raises(ValueError) as err:
                S(zs)
            assert str(err.value) == message.format(complex(bad[0]), atom)
            if shape:       # the other points evaluate
                rest = np.delete(zs.ravel(), list(at))
                assert S(rest).shape == rest.shape + (1, 1)


def _solutions_of_every_kind(count, seed):
    """(kind, S, seq, atom) over ``kge_fixtures``: the unique solution,
    the canonical constant pair and a pair on f = gamma + M_1 / (t_1 - z)
    + M_2 / (t_2 - z), lifted where r < q; ``atom`` is t_1 for a pair on
    f and None otherwise."""
    rng = np.random.default_rng(seed)
    for mu, seq, n in kge_fixtures(count, seed=seed):
        report = classify(seq, n)
        if report.case == "CompletelyDegenerate":
            yield "unique", unique_solution(seq, n), seq, None
            continue
        R, r = build_resolvent(seq, n), report.r
        lifted = "lifted " if r < seq.q else ""
        yield lifted + "constant", lft_solution(
            R, canonical_pair(report)), seq, None
        t = seq.alpha + 1.0
        f = StieltjesFunction(random_psd(rng, r), AtomicMeasure(
            seq.alpha, r, [(t, random_psd(rng, r)),
                           (t + 1.5, random_psd(rng, r))]))
        yield lifted + "function", lft_solution(R, lift_pair(
            report, StieltjesPair.from_function(f))), seq, t


def test_a_point_in_every_form_gives_one_value_from_one_inverse(
        monkeypatch):
    # A Python number, a NumPy scalar and a 0-d array are one point: S
    # is bit-identical over them, off the real line and on it below
    # alpha, for every kind of solution.  A point inverts its
    # denominator once and takes no norm through _fro or np.linalg.norm
    # and no MatrixPolynomial.eval.
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "norm", counting("norm", np.linalg.norm))
    monkeypatch.setattr(matcore, "_fro", counting("_fro", matcore._fro))
    monkeypatch.setattr(MatrixPolynomial, "eval",
                        counting("eval", MatrixPolynomial.eval))
    kinds = set()
    for kind, S, seq, _ in _solutions_of_every_kind(24, seed=33):
        kinds.add(kind)
        z, x = seq.alpha + 0.7 + 1.3j, seq.alpha - 1.5
        for forms in ((z, np.complex128(z), np.array(z)),
                      (x, complex(x), np.float64(x), np.array(x),
                       np.array(x, dtype=complex))):
            calls.clear()
            values = [S(w) for w in forms]
            assert calls == {"inv": len(forms)}
            assert all(v.shape == (seq.q, seq.q) for v in values)
            assert len({v.tobytes() for v in values}) == 1
    assert kinds == {"unique", "constant", "function", "lifted constant",
                     "lifted function"}


def test_a_point_and_a_one_point_array_refuse_alike():
    # The refusals of a point, in each form, are those of the one-point
    # arrays that hold it: a singular denominator (S = -1/z at 1e-18 and
    # at 0, exactly singular; the pair on f = 1 / (1 - z) at the root of
    # its denominator) and a point within the slit guard of an atom of f,
    # on it, 5e-13 below it on the real line or 1e-12 off it across it.
    unique = unique_solution(scalar_seq([1, 0]), 0)
    seq = scalar_seq([1, 1])
    on_f = lft_solution(build_resolvent(seq, 0), StieltjesPair.from_function(
        StieltjesFunction([[0.0]], delta(1.0))), seq=seq, n=0)
    cases = [(unique, 1e-18), (unique, 0.0),
             (on_f, (3.0 - np.sqrt(5.0)) / 2.0)]
    kinds = set()
    for kind, S, _, t in _solutions_of_every_kind(24, seed=33):
        if t is not None:
            kinds.add(kind)
            cases += [(S, t + d) for d in (0.0, -5e-13, 1e-12j, -1e-12j)]
    assert kinds == {"function", "lifted function"}
    for S, bad in cases:
        messages = set()
        for z in (bad, complex(bad), np.complex128(bad), np.array(bad),
                  np.array([bad]), np.array([[bad]])):
            with pytest.raises(ValueError) as err:
                S(z)
            messages.add(str(err.value))
        assert len(messages) == 1


def test_a_far_point_is_not_refused_as_singular():
    # Past about 1e38j at n = 3 the squares of |N|_F and |den^-1|_F
    # leave the range of a double while N and den^-1 do not; the
    # rule is then decided on N scaled by its largest entry, and
    # z S(z) tends to -s_0 with no warning (RuntimeWarning is an error).
    mu = AtomicMeasure(0.0, 1, [(0.5, [[0.2]]), (1.0, [[0.3]]),
                                (2.0, [[0.1]]), (3.5, [[0.25]]),
                                (5.0, [[0.15]])])
    seq = moments_of(mu, 7)
    s0 = seq.moments[0]
    for n in (1, 3):
        S = lft_solution(build_resolvent(seq, n),
                         StieltjesPair.constant([[0.0]], [[1.0]]))
        for z in (1e39j, 1e60j, 1e70j):
            assert abs(z * S(z) + s0).max() <= 1e-12
        zs = np.array([1j, 1e60j])
        assert abs(zs[1] * S(zs)[1] + s0).max() <= 1e-12


@pytest.mark.parametrize("q", [1, 2, 4])
def test_a_point_past_the_range_of_its_powers_has_its_value(q):
    # At n = 3, z^4 leaves the range of a double past |z| = 1e77; S is
    # then read from the powers of 1 / z.  At 1e78j and 1e200j it agrees
    # with the 40-digit value and with -s_0 / z, with no RuntimeWarning,
    # for a constant and a function pair on definite data and for the
    # unique solution, whose polynomial P has a lower degree than Theta.
    rng = np.random.default_rng([q, 78])
    seq = atomic_fixture(rng, q, 3, 0.5)[1]
    R = build_resolvent(seq, 3)
    f = StieltjesFunction(np.eye(q), AtomicMeasure(0.5, q, [(1.5, np.eye(q))]))
    one = unique_solution(atomic_fixture(rng, q, 3, 0.5, natoms=1)[1], 3)
    sols = [lft_solution(R, p, seq=seq, n=3) for p in (
        canonical_pair(classify(seq, 3)), StieltjesPair.from_function(f))]
    for S in sols + [one]:
        s0 = S.resolvent.data.seq.moments[0]
        for z in (1e78j, 1e200j):
            want = exact_lft_value(S.resolvent, S.pair, z)
            assert abs(S(z) - want).max() <= 1e-13 * abs(want).max()
            assert abs(z * S(z) + s0).max() <= 1e-12 * abs(s0).max()


def _solution_of_kind(kind, q, n, kw):
    """A solution of the given kind on an atomic fixture with atoms above
    alpha = 0.5: the canonical constant pair, a pair on f = I + M / (1.2
    - z) lifted where r < q, or the unique solution."""
    rng = np.random.default_rng([q, n, 39])
    seq = atomic_fixture(rng, q, n, 0.5, **kw)[1]
    report = classify(seq, n)
    assert (report.case == "CompletelyDegenerate") == (kind == "unique")
    assert (0 < report.r < q) == kind.startswith("lifted")
    if kind == "unique":
        return unique_solution(seq, n)
    R, r = build_resolvent(seq, n), report.r
    inner = canonical_pair(report) if kind == "constant" else lift_pair(
        report, StieltjesPair.from_function(StieltjesFunction(
            np.eye(r), AtomicMeasure(0.5, r, [(1.2, random_psd(rng, r))]))))
    return lft_solution(R, inner)


@pytest.mark.parametrize("kind, q, n, kw", [
    pytest.param(kind, q, n, kw, id=f"{kind.replace(' ', '-')}-q{q}-n{n}")
    for kind, q, n, kw in (
        ("constant", 2, 3, {}), ("constant", 8, 3, {}),
        ("function", 8, 3, {}), ("lifted function", 4, 1, {"ranks": [2]}),
        ("unique", 8, 3, {"ranks": [3]}))])
@pytest.mark.parametrize("shape", [None, (2, 3), ()],
                         ids=["grid", "2x3", "0d"])
def test_an_array_is_its_points_bit_for_bit(kind, q, n, kw, shape):
    # S over an array of points is the z.shape + (q, q) stack of S at
    # each point alone, bit for bit, with no RuntimeWarning: over the
    # standard grid (shape None), a 2 x 3 array and a 0-d one, for
    # constant, function and lifted function pairs and the unique
    # solution, at q = 8 and n = 3 among others.  On non-degenerate
    # data the grid also holds 1e78j, past _FAR; degenerate data refuses
    # a point that far as singular.
    S = _solution_of_kind(kind, q, n, kw)
    far = [1e78j] if kind in ("constant", "function") else []
    zs = np.array(standard_grid(0.5) + far)
    if shape is not None:
        zs = zs[:int(np.prod(shape))].reshape(shape)
    got = S(zs)
    want = np.array([S(z) for z in zs.ravel()]).reshape(zs.shape + (q, q))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_an_array_raises_the_error_of_its_first_failing_point():
    # On the pair on f = 1 / (1 - z), whose denominator vanishes at
    # root, an array raises the error of the first point that fails,
    # the singular denominator or the atom of f, whichever comes first.
    seq = scalar_seq([1, 1])
    S = lft_solution(build_resolvent(seq, 0), StieltjesPair.from_function(
        StieltjesFunction([[0.0]], delta(1.0))), seq=seq, n=0)
    root = (3.0 - np.sqrt(5.0)) / 2.0
    singular = f"singular LFT denominator at z = {complex(root)}"
    atom = "evaluation point (1+0j) coincides with atom 1.0"
    for zs, message in (([1j, root, 1.0], singular),
                        ([1j, 1.0, root], atom)):
        with pytest.raises(ValueError) as err:
            S(np.array(zs))
        assert str(err.value) == message


def test_a_nan_point_is_refused_as_not_finite():
    # A NaN point fails abs(z) < _FAR and is refused on the far branch,
    # before any arithmetic, with no RuntimeWarning, alone or in an
    # array, for a constant and a function pair.  An infinite point has
    # 1 / z = 0 and takes the value of the limit there, 0 for S = -1/z.
    seq = scalar_seq([1, 1])
    R = build_resolvent(seq, 0)
    for pair in (StieltjesPair.constant([[1.0]], [[0.0]]),
                 StieltjesPair.from_function(StieltjesFunction(
                     [[0.0]], delta(1.0)))):
        S = lft_solution(R, pair, seq=seq, n=0)
        for z, bad in ((np.nan, complex(np.nan)),
                       (complex(np.nan, 1.0), complex(np.nan, 1.0)),
                       (np.array([1j, complex(np.nan, 1.0), 2.0 + 1j]),
                        complex(np.nan, 1.0))):
            with pytest.raises(ValueError) as err:
                S(z)
            assert str(err.value) == f"point z = {bad} is not finite"
    assert S(complex(np.inf)).tolist() == [[0.0]]


def test_evaluation_matches_the_horner_and_per_atom_references():
    # MatrixPolynomial.eval (one product with the powers of z) and
    # transform (one product with the reciprocals 1 / (t - z)) against
    # the loops they replaced, entrywise, at single points, on stacks and
    # at the point 1e6j where recover_s0 evaluates.  Each way of summing
    # sum_j z^j C_j errs by at most about 2 (d + 1) eps sum_j |C_j| |z|^j,
    # and each way of summing sum_k M_k / (t_k - z) by at most about
    # 2 (a + 2) eps sum_k |M_k| / |t_k - z|, so the two are held to twice
    # that; on an empty measure both give exact zeros.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(63)

    def points(zs):
        return [np.asarray(z, dtype=complex) for z in (zs, *zs, 1e6j)]

    def check_poly(p, zs):
        d = len(p.coeffs)
        size = np.abs(p.coeffs).reshape(d, -1)
        for z in points(zs):
            bound = 4 * d * eps * ((np.abs(z[..., None]) ** np.arange(d))
                                   @ size).reshape(z.shape + p.shape)
            got, want = p.eval(z), horner(p.coeffs, z)
            assert got.shape == want.shape == z.shape + p.shape
            assert np.all(np.abs(got - want) <= bound)

    def check_measure(mu, zs):
        a, q = len(mu.atoms), mu.q
        size = np.abs(mu.weights).reshape(a, q * q)
        for z in points(zs):
            bound = 4 * (a + 2) * eps * (
                (1.0 / np.abs(mu.positions - z[..., None])) @ size).reshape(
                z.shape + (q, q))
            got, want = transform(mu, z), transform_per_atom(mu, z)
            assert got.shape == want.shape == z.shape + (q, q)
            assert np.all(np.abs(got - want) <= bound)

    for d, r, c in ((0, 2, 3), (3, 4, 2), (5, 1, 6)):
        check_poly(MatrixPolynomial(rng.normal(size=(d + 1, r, c))
                                    + 1j * rng.normal(size=(d + 1, r, c))),
                   np.array([0.3 + 0.8j, -1.2 + 0.1j, 2.0, 0.0]))
    empty = AtomicMeasure(0.5, 3, [])
    check_measure(empty, np.array(standard_grid(0.5)))
    assert not np.any(transform(empty, np.array(standard_grid(0.5))))
    built = 0
    for q in (1, 3, 8):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                alpha = (0.0, 0.5, -1.0)[(q + n) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
                zs = np.array(standard_grid(alpha) + [alpha - 1.5])
                check_measure(mu, zs)
                _, K, b, _ = potapov._coupling(seq.hankel(), n)
                for p in (K, b):
                    check_poly(p, zs)
                try:
                    report = classify(seq, n)
                except ValueError:
                    continue
                R = build_resolvent(seq, n)
                r = report.r
                pair = lift_pair(report) if not r else lift_pair(
                    report, StieltjesPair.from_function(StieltjesFunction(
                        None, AtomicMeasure(alpha, r, [(alpha + 0.7,
                                                        np.eye(r))]))))
                folded = MatrixPolynomial(
                    R.theta.coeffs @ np.hstack([pair.B, pair.E]))
                for p in (R.theta, R.theta_tilde, folded):
                    check_poly(p, zs)
                built += 1
    assert built >= 30


# Calls at level n with k = 2n (on m = 2n - 1) or k = 2n + 1 (on
# m = 2n); those reading only H_n take the first case alone.
_LEVEL_MU = AtomicMeasure(0.5, 1, [(1.0, [[1.0]]), (2.5, [[0.5]])])
_LEVEL_F = StieltjesFunction(None, _LEVEL_MU)
_LEVEL_CALLS = {
    "potapov_report": (False, lambda seq, n, k: potapov_report(
        seq, n, _LEVEL_F(np.array([1j, 2 + 1j])), [1j, 2 + 1j])),
    "potapov_matrix": (True, lambda seq, n, k: potapov_matrix(
        seq, n, _LEVEL_F, 1j, k)),
    "sigma_matrix": (True, lambda seq, n, k: sigma_matrix(
        seq, n, _LEVEL_F, 1j, k)),
    "fq_matrices": (True, lambda seq, n, k: fq_matrices(
        seq, n, _LEVEL_F, 1j, k)),
    "psi_polynomial": (True, lambda seq, n, k: psi_polynomial(
        seq, n, k % 2)),
    "congruence_check": (False, lambda seq, n, k: congruence_check(
        seq, n, _LEVEL_F, 1j)),
    "atomic_decomposition_residual": (
        True, lambda seq, n, k: atomic_decomposition_residual(
            seq, n, _LEVEL_MU, 1j, k)),
    "verify_solution_measure": (True, lambda seq, n, k: verify_solution(
        seq, n, _LEVEL_MU)),
    "verify_solution_function": (False, lambda seq, n, k: verify_solution(
        seq, n, StieltjesFunction(None, _LEVEL_MU))),
    "pair_in_restricted_class": (
        True, lambda seq, n, k: pair_in_restricted_class(
            StieltjesPair.constant([[0.0]], [[1.0]]), seq, n)),
    "classify": (True, lambda seq, n, k: classify(seq, n)),
    "build_resolvent": (True, lambda seq, n, k: build_resolvent(seq, n)),
    "dubovoj_candidates": (True, lambda seq, n, k: dubovoj_candidates(
        seq, n)),
    "unique_solution": (True, lambda seq, n, k: unique_solution(seq, n)),
}


@pytest.mark.parametrize("name, odd", [
    pytest.param(name, odd, id=f"{name}-{'2n+1>m' if odd else '2n>m'}")
    for name, (reads_odd, _) in sorted(_LEVEL_CALLS.items())
    for odd in (False, True) if reads_odd or not odd])
def test_a_level_the_sequence_lacks_is_refused(name, odd):
    n = 2
    seq = moments_of(_LEVEL_MU, 2 * n - 1 + odd)
    with pytest.raises(ValueError, match=r"needs 2n(\+1)? = \d+ <= m"):
        _LEVEL_CALLS[name][1](seq, n, 2 * n + odd)
