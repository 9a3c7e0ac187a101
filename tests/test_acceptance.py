"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every criterion prints a single ``[criterion NN] PASS`` line on success;
a failing assertion marks the criterion as failed.
"""

import numpy as np

from stieltjesmp import MomentSequence, class_membership
from stieltjesmp.cli import main as cli_main
from stieltjesmp.matcore import (
    DEFAULT_TOL,
    dubovoj_subspace,
    is_dubovoj,
    mrank,
    one_two_inverse,
    projector,
    pseudo_inverse,
)
from stieltjesmp.momentseq import (
    HankelData,
    block_hankel,
    dubovoj_candidates,
    schur_ladder,
    shift_matrix,
    stack_y,
)
from stieltjesmp.potapov import (
    FunctionSamples,
    atomic_decomposition_residual,
    congruence_check,
    potapov_matrix,
    potapov_report,
)
from stieltjesmp.resolvent import (
    build_resolvent,
    eval_theta,
    j_defect,
    signature_matrix,
    standard_grid,
    theta_inverse,
)
from stieltjesmp.solver import (
    lft_solution,
    recover_s0,
    unique_solution,
    verify_solution,
)
from stieltjesmp.stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    transform,
)

from conftest import atomic_fixture, kge_fixtures, random_hermitian_sequence

import json


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def _report(num, detail):
    print(f"[criterion {num:02d}] PASS: {detail}")


def test_criterion_01_hankel_identities():
    """Coupling identities of the Hankel bundle on 50 random sequences."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        alpha = float(rng.normal())
        seq = random_hermitian_sequence(rng, q, 2 * n + 1, alpha)
        b = HankelData(seq, n)
        H, T, u, v = b.H[n], b.T, b.u, b.v
        scale = 1.0 + np.linalg.norm(H)
        p = H.shape[0]
        resids = [
            np.linalg.norm(H @ T.conj().T - T @ H
                           - (u @ v.conj().T - v @ u.conj().T)),
            np.linalg.norm(H @ T - T.conj().T @ H
                           - (b.ug @ b.vg.conj().T - b.vg @ b.ug.conj().T)),
            np.linalg.norm(b.Hs[n] - (-seq.alpha * b.H[n] + b.K[n])),
            np.linalg.norm(v @ v.conj().T @ H
                           - ((np.eye(p) - seq.alpha * T) @ H - T @ b.Hs[n])),
            np.linalg.norm(H @ v - stack_y(seq, 0, n)),
            np.linalg.norm(-T @ H @ v - u),
        ]
        worst = max(worst, max(resids) / scale)
        assert max(resids) <= 1e-12 * scale
    _report(1, f"50 random sequences, worst residual {worst:.2e}")


def test_criterion_02_generalized_inverse_suite():
    """Reflexive generalized-inverse identities on 30 extendable fixtures."""
    worst = 0.0
    for mu, seq, n in kge_fixtures(30):
        b = HankelData(seq, n)
        H, Hs, T = b.H[n], b.Hs[n], b.T
        D, Ds = dubovoj_candidates(seq, n)
        Hm = one_two_inverse(H, D)
        Hsm = one_two_inverse(Hs, Ds)
        Hp = pseudo_inverse(H)
        p = H.shape[0]
        eye = np.eye(p)
        PD = projector(D)
        scale = 1.0 + np.linalg.norm(H)
        resids = [
            np.linalg.norm(Hm - Hm.conj().T),
            np.linalg.norm(H @ Hm @ H - H),
            np.linalg.norm(Hm @ H @ Hm - Hm),
            max(0.0, -float(np.linalg.eigvalsh(Hm).min())),
            np.linalg.norm(Hm - PD @ Hm),
            np.linalg.norm(Hm @ PD - Hm),
            np.linalg.norm((eye - H @ Hm) @ (eye - H @ Hp)
                           - (eye - H @ Hm)),
            np.linalg.norm(Hp @ H @ (eye - Hm @ H)),
            np.linalg.norm(PD @ (eye - H @ Hm)),
            np.linalg.norm(Hm @ H @ Hsm - Hsm),
            np.linalg.norm(Hsm @ H @ Hm - Hsm),
        ]
        for k in range(0, 3):
            Tk = np.linalg.matrix_power(T, k)
            resids.append(np.linalg.norm(Hm @ Tk @ (eye - H @ Hm)))
            if k >= 1:
                resids.append(np.linalg.norm(Hm @ Tk @ (eye - Hs @ Hsm)))
        worst = max(worst, max(resids) / scale)
        assert max(resids) <= 1e-9 * scale
    _report(2, f"30 fixtures, worst residual {worst:.2e}")


def test_criterion_03_dubovoj_suite():
    """Canonical invariant subspaces; the classical counterexample."""
    for mu, seq, n in kge_fixtures(30):
        b = HankelData(seq, n)
        D, Ds = dubovoj_candidates(seq, n)
        assert is_dubovoj(D, b.H[n], b.T)
        assert is_dubovoj(Ds, b.Hs[n], b.T)
        lad = schur_ladder(seq)
        ladder = lad.L[:n + 1]
        smax = max(np.linalg.norm(L, 2) for L in ladder)
        cutoff = DEFAULT_TOL.tol_rank * max(smax, 1.0)
        rank_sum = sum(
            int(np.count_nonzero(np.linalg.svd(L, compute_uv=False)
                                 > cutoff)) for L in ladder)
        assert D.dim == mrank(b.H[n]) == rank_sum
    thiele = scalar_seq([0, 0, 1])
    lad = schur_ladder(thiele)
    D = dubovoj_subspace(lad.L)
    assert not is_dubovoj(D, block_hankel(thiele, 1, 0), shift_matrix(1, 1))
    assert not class_membership(thiele).in_Hgeq_e
    _report(3, "30 fixtures invariant + rank-graded; counterexample "
               "rejected")


def test_criterion_04_theta_identity_suite():
    """Factorization, J-unitarity, and the three J-form lemmas."""
    fixtures = [f for f in kge_fixtures(8, seed=41)]
    rng = np.random.default_rng(42)
    worst = 0.0
    for mu, seq, n in fixtures:
        R = build_resolvent(seq, n)
        q = seq.q
        J = signature_matrix(q)
        scale = (1.0 + np.linalg.norm(R.H)) ** 2
        assert R.self_check["theta_minus_UB"] <= 1e-10 * scale
        assert R.self_check["theta_tilde_minus_UtBt"] <= 1e-10 * scale
        for x in (seq.alpha - 3, seq.alpha - 1, seq.alpha,
                  seq.alpha + 2, seq.alpha + 5):
            th = eval_theta(R, x)
            assert np.linalg.norm(J - th @ J @ th.conj().T) <= 1e-10 * scale
        pairs = [(complex(rng.normal(), rng.normal() + 0.3),
                  complex(rng.normal(), rng.normal() - 0.3))
                 for _ in range(12)]
        for variant in ("theta", "theta_tilde", "adjoint", "adjoint_tilde",
                        "inverse", "inverse_tilde"):
            for z, w in pairs:
                lhs, rhs = j_defect(R, z, w, variant)
                resid = np.linalg.norm(lhs - rhs)
                worst = max(worst, resid / scale)
                assert resid <= 1e-9 * scale, variant
        for z, _ in pairs[:6]:
            prod = eval_theta(R, z) @ theta_inverse(R, z)
            assert np.linalg.norm(prod - np.eye(2 * q)) <= 1e-9 * scale
            d1 = np.diag(np.concatenate(
                [np.full(q, z - seq.alpha), np.ones(q)])).astype(complex)
            d2 = np.diag(np.concatenate(
                [np.full(q, 1.0 / (z - seq.alpha)),
                 np.ones(q)])).astype(complex)
            resid = np.linalg.norm(
                eval_theta(R, z, tilde=True) - d1 @ eval_theta(R, z) @ d2)
            assert resid <= 1e-12 * scale
    _report(4, f"8 fixtures x 6 variants x 12 point pairs, worst "
               f"J-defect residual {worst:.2e}")


def test_criterion_05_necessity_decomposition():
    """Exact decomposition and positivity for measure-generated data."""
    rng = np.random.default_rng(55)
    worst_dec, worst_lam = 0.0, 0.0
    for i in range(20):
        q = int(rng.integers(1, 3))
        n = int(rng.integers(0, 2))
        alpha = float(rng.uniform(-1.0, 1.0))
        mu, seq = atomic_fixture(rng, q, n, alpha)
        f = FunctionSamples(lambda z: transform(mu, z), q)
        grid = standard_grid(alpha)
        assert len(grid) == 24
        for z in grid:
            for k in (2 * n, 2 * n + 1):
                resid = atomic_decomposition_residual(seq, n, mu, z, k)
                worst_dec = max(worst_dec, resid)
                assert resid <= 1e-10
                P = potapov_matrix(seq, n, f, z, k)
                lam = float(np.linalg.eigvalsh(
                    0.5 * (P + P.conj().T)).min())
                worst_lam = min(worst_lam, lam)
                assert lam >= -1e-10
    _report(5, f"20 measures x 24 points: worst decomposition residual "
               f"{worst_dec:.2e}, min eigenvalue {worst_lam:.2e}")


def test_criterion_06_parametrization_forward():
    """LFT solutions of nondegenerate data solve the moment problem."""
    rng = np.random.default_rng(66)
    for i in range(10):
        q = int(rng.integers(1, 3))
        n = int(rng.integers(0, 2))
        alpha = float(rng.uniform(-0.5, 0.5))
        mu, seq = atomic_fixture(rng, q, n, alpha)
        R = build_resolvent(seq, n)
        pairs = [
            StieltjesPair.constant(np.zeros((q, q)), np.eye(q)),
            StieltjesPair.constant(np.eye(q), np.zeros((q, q))),
        ]
        for _ in range(3):
            pmu, _ = atomic_fixture(rng, q, 0, alpha, natoms=2)
            gamma = 0.5 * np.eye(q) * rng.uniform(0.0, 1.0)
            pairs.append(StieltjesPair.from_function(
                StieltjesFunction(gamma, pmu)))
        grid = [z for z in standard_grid(alpha)]
        for p in pairs:
            S = lft_solution(R, p, seq=seq, n=n)
            f = FunctionSamples(lambda z: S(z), q)
            rep = potapov_report(seq, n, f, grid)
            assert rep.passed
            s0 = recover_s0(S)
            resid = np.linalg.norm(s0 - seq.s(0)) / \
                (1.0 + np.linalg.norm(seq.s(0)))
            assert resid <= 1e-4
    _report(6, "10 nondegenerate fixtures x 5 pairs: positivity report "
               "and mass recovery passed")


def test_criterion_07_closed_forms():
    """Hand-computable scalar fixtures reproduced to 1e-12."""
    seq = scalar_seq([1, 1])
    R = build_resolvent(seq, 0)
    pts = [0.5 + 0.5j, -1.0 + 2j, 1j, -3.0 - 1j, 2.0 + 0.25j,
           -0.5 - 0.5j, 0.1 + 3j, 4.0 - 2j]
    for z in pts:
        assert np.allclose(eval_theta(R, z),
                           [[1.0, 1.0], [-z, 1.0 - z]], atol=1e-12)
    S1 = lft_solution(R, StieltjesPair.constant([[0.0]], [[1.0]]),
                      seq=seq, n=0)
    S2 = lft_solution(R, StieltjesPair.constant([[1.0]], [[0.0]]),
                      seq=seq, n=0)
    f = StieltjesFunction([[0.0]], AtomicMeasure(0.0, 1, [(1.0, [[1.0]])]))
    S3 = lft_solution(R, StieltjesPair.from_function(f), seq=seq, n=0)
    for z in pts:
        assert abs(S1(z) - 1.0 / (1.0 - z)) <= 1e-12
        assert abs(S2(z) - (-1.0 / z)) <= 1e-12
        assert abs(S3(z) - (2.0 - z) / (z * z - 3.0 * z + 1.0)) <= 1e-12
    _report(7, "theta and three LFT solutions match closed forms at "
               "8 points")


def test_criterion_08_completely_degenerate_uniqueness():
    """The completely degenerate problem has exactly one solution."""
    S = unique_solution(scalar_seq([1, 0]), 0)
    pts = [1j, 0.5 + 2j, -2.0 + 0.1j, -1.0 - 1j]
    for z in pts:
        assert abs(S(z) - (-1.0 / z)) <= 1e-12
    q2 = MomentSequence(0.0, 2, [np.diag([1.0, 0.0]), np.zeros((2, 2))])
    S2 = unique_solution(q2, 0)
    for z in pts:
        assert np.linalg.norm(S2(z) - np.diag([-1.0 / z, 0.0])) <= 1e-12
    # three distinct admissible pairs produce the same values
    R = build_resolvent(q2, 0)
    admissible = [
        ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
        ([[2.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 3.0]]),
        ([[1.0, 1j], [0.0, 0.0]], [[0.0, 0.0], [1j, 1.0]]),
    ]
    for phi, psi in admissible:
        Sp = lft_solution(R, StieltjesPair.constant(phi, psi),
                          seq=q2, n=0)
        for z in pts:
            assert np.linalg.norm(Sp(z) - S2(z)) <= 1e-9
    # recovered moments: s_0 exact, top-order defect nonnegative
    assert np.linalg.norm(recover_s0(S2) - q2.s(0)) <= 1e-9
    sol_measure = AtomicMeasure(0.0, 2, [(0.0, np.diag([1.0, 0.0]))])
    out = verify_solution(q2, 0, sol_measure)
    assert out["valid"]
    assert out["checks"]["top_defect_lambda_min"] >= -1e-10
    _report(8, "unique solutions match closed forms; 3 admissible pairs "
               "agree; moments recovered")


def test_criterion_09_negative_controls(tmp_path, capsys):
    """Invalid data is rejected at every interface."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"alpha": 0.0, "q": 1, "moments": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}))
    assert cli_main(["check", str(bad)]) == 2
    capsys.readouterr()
    seq10 = tmp_path / "m10.json"
    seq10.write_text(json.dumps(
        {"alpha": 0.0, "q": 1, "moments": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]}))
    d1 = tmp_path / "d1.json"
    d1.write_text(json.dumps(
        {"alpha": 0.0, "q": 1,
         "atoms": [{"t": 1.0, "weight": [[[1.0, 0.0]]]}]}))
    assert cli_main(["verify", str(seq10), str(d1), "--n", "0"]) == 2
    capsys.readouterr()
    f = FunctionSamples(lambda z: [[1.0 / (1.0 - z)]], 1)
    rep = potapov_report(scalar_seq([1, 0]), 0, f, standard_grid(0.0))
    assert not rep.passed
    lams = [x for x in rep.lmin_even + rep.lmin_odd if x is not None]
    assert min(lams) < -1e-6
    _report(9, "inconsistent sequence, wrong measure, and wrong "
               "function all rejected")


def test_criterion_10_congruence_suite():
    """Independently assembled block identities agree on random data."""
    rng = np.random.default_rng(110)
    worst = 0.0
    for i in range(20):
        q = int(rng.integers(1, 3))
        n = int(rng.integers(0, 3))
        alpha = float(rng.normal())
        seq = random_hermitian_sequence(rng, q, 2 * n + 1, alpha)
        pmu, _ = atomic_fixture(rng, q, 0, alpha, natoms=2)
        gamma = rng.uniform(0.0, 1.0) * np.eye(q)
        fobj = StieltjesFunction(gamma, pmu)
        f = FunctionSamples(lambda z: fobj(z), q)
        z = complex(rng.normal(), rng.normal() + 0.5)
        out = congruence_check(seq, n, f, z)
        assert out
        worst = max(worst, max(out.values()))
        assert max(out.values()) <= 1e-10
    _report(10, f"20 random triples, worst congruence residual "
                f"{worst:.2e}")
