"""Unit tests for classification, lifting, and the solution map."""

import numpy as np
import pytest

from stieltjesmp import MomentSequence
from stieltjesmp.resolvent import build_resolvent, standard_grid
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
    pair_eval,
)

from conftest import atomic_fixture, kge_fixtures


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
    rep2 = classify(Q2_SEQ, 0, basis_rotation=(RU, RU.conj()))
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


def canonical_pair(report):
    """The lifted canonical pair (0, I) of the classification."""
    if report.case == "CompletelyDegenerate":
        return lift_pair(report)
    r = report.r
    return lift_pair(report, StieltjesPair.constant(np.zeros((r, r)),
                                                    np.eye(r)))


def test_lft_solution_on_own_sequence_factors_nothing(pinv_calls):
    for mu, seq, n in kge_fixtures(12, seed=31):
        R = build_resolvent(seq, n)
        pair = canonical_pair(classify(seq, n))
        pinv_calls.clear()
        lft_solution(R, pair, seq=seq, n=n)
        lft_solution(R, pair, seq=seq)
        assert not pinv_calls


def test_unique_solution_factors_each_matrix_once(pinv_calls):
    checked = 0
    for mu, seq, n in kge_fixtures(24, seed=17):
        if classify(seq, n).case != "CompletelyDegenerate":
            continue
        pinv_calls.clear()
        unique_solution(seq, n)
        assert pinv_calls and max(pinv_calls.values()) == 1
        checked += 1
    assert checked >= 3


def test_lft_solution_gates_against_the_given_sequence():
    # Any pair is admissible for (1, 1); psi = 1 is not for (1, 0).
    own, other = scalar_seq([1, 1]), scalar_seq([1, 0])
    R = build_resolvent(own, 0)
    pair = StieltjesPair.constant([[0.0]], [[1.0]])
    lft_solution(R, pair, seq=own, n=0)
    with pytest.raises(ValueError):
        lft_solution(R, pair, seq=other, n=0)


WEIGHT_PATTERNS = {
    "full": {},
    "rankdef": {"ranks": [1]},
    "endpoint": {"include_endpoint": True},
    "fewatoms": {"natoms": 1},
}


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
