"""Unit tests for classification, lifting, and the solution map."""

import dataclasses

import numpy as np
import pytest

from stieltjesmp import MomentSequence, class_membership
from stieltjesmp.matcore import Subspace
from stieltjesmp.momentseq import HankelData, dubovoj_candidates
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
from stieltjesmp.resolvent import MatrixPolynomial, build_resolvent, \
    standard_grid
from stieltjesmp.solver import (
    classify,
    lft_solution,
    lift_pair,
    recover_s0,
    unique_solution,
    verify_solution,
)
from stieltjesmp.stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    pair_eval,
    pair_in_restricted_class,
    transform,
)

from conftest import WEIGHT_PATTERNS, atomic_fixture, kge_fixtures


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def delta(t, mass=1.0, alpha=0.0):
    return AtomicMeasure(alpha, 1, [(t, [[mass]])])


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
    from stieltjesmp.matcore import Subspace
    rep = ClassificationReport(
        m=1, ell=0, r=1, case="Degenerate",
        U=Subspace(2, np.array([[0.0], [1.0]])),
        V=Subspace(2, np.zeros((2, 0))), W=np.eye(2))
    lifted = lift_pair(rep, inner)
    phi, psi = pair_eval(lifted, 1j)
    assert np.allclose(phi, np.zeros((2, 2)))
    assert np.allclose(psi, np.eye(2))


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
    seq = scalar_seq([1, 0])
    R = build_resolvent(seq, 0)
    with pytest.raises(ValueError):
        lft_solution(R, StieltjesPair.constant([[0.0]], [[1.0]]),
                     seq=seq, n=0)


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
    U = Subspace(2, rep1.U.basis @ RU)
    V = Subspace(2, rep1.V.basis @ RU.conj())
    W = np.hstack([rep1.W[:, :rep1.r], U.basis, V.basis])   # [comp | U | V]
    rep2 = dataclasses.replace(rep1, U=U, V=V, W=W)
    assert not np.allclose(rep1.W, rep2.W)
    R = build_resolvent(Q2_SEQ, 0)
    S1 = lft_solution(R, lift_pair(rep1))
    S2 = lft_solution(R, lift_pair(rep2))
    for z in (1j, -0.5 + 2j):
        assert np.linalg.norm(S1(z) - S2(z)) <= 1e-9


def test_solution_reports_singular_points():
    S = unique_solution(scalar_seq([1, 0]), 0)
    with pytest.raises(ValueError):
        S(1e-18)


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


def canonical_pair(report):
    """The lifted canonical pair (0, I) of the classification."""
    if report.case == "CompletelyDegenerate":
        return lift_pair(report)
    r = report.r
    return lift_pair(report, StieltjesPair.constant(np.zeros((r, r)),
                                                    np.eye(r)))


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
    # Class tests, classification, resolvent and the pair gate all read
    # the one factor of each Hankel matrix of the data they share.
    for mu, seq, n in kge_fixtures(12, seed=29):
        data = HankelData(seq)
        factor_calls.clear()
        assert class_membership(data).in_Kgeq_e
        pair = canonical_pair(classify(data, n))
        lft_solution(build_resolvent(data, n), pair, seq=data, n=n)
        assert sorted(factor_calls.values()) == \
            [1] * (len(data.H) + len(data.Hs))


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


def test_array_evaluation_matches_scalar_loop():
    rng = np.random.default_rng(4)
    kinds = set()
    compared = 0
    for q in (1, 2, 3):
        for n in range(4):
            for kw in WEIGHT_PATTERNS.values():
                alpha = (0.0, 0.5, -1.0)[(q + n) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
                zs = np.array(standard_grid(alpha)[::3] + [alpha - 1.5])
                assert _agrees_with_scalar_loop(
                    lambda z: transform(mu, z), zs)
                try:
                    report = classify(seq, n)
                except ValueError:
                    continue
                R = build_resolvent(seq, n)
                for poly in (R.theta, R.U_tilde,
                             MatrixPolynomial.constant(R.B)):
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
                for pair in pairs:
                    kinds.add(pair.kind)
                    assert _agrees_with_scalar_loop(
                        lambda z: np.concatenate(pair_eval(pair, z), -1),
                        zs)
                    compared += _agrees_with_scalar_loop(
                        lft_solution(R, pair), zs)
    assert kinds == {"constant", "function", "lifted"}
    assert compared >= 40


# Calls at level n with k = 2n (on m = 2n - 1) or k = 2n + 1 (on
# m = 2n); those reading only H_n take the first case alone.
_LEVEL_MU = AtomicMeasure(0.5, 1, [(1.0, [[1.0]]), (2.5, [[0.5]])])
_LEVEL_F = FunctionSamples(StieltjesFunction(None, _LEVEL_MU))
_LEVEL_CALLS = {
    "potapov_report": (False, lambda seq, n, k: potapov_report(
        seq, n, _LEVEL_F, [1j, 2 + 1j])),
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
