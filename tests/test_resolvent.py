"""Unit tests for the resolvent matrix polynomial machinery."""

import numpy as np
import pytest

from stieltjesmp import MomentSequence
from stieltjesmp.resolvent import (
    MatrixPolynomial,
    build_resolvent,
    eval_theta,
    j_defect,
    kernel_polys,
    monomial_stack,
    resolvent_poly,
    signature_matrix,
    standard_grid,
    theta_coeffs_json,
    theta_inverse,
)
from stieltjesmp.momentseq import first_column_embedding, shift_matrix, \
    shift_resolvent

from conftest import WEIGHT_PATTERNS, atomic_fixture, kge_fixtures


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def test_matrix_polynomial_arithmetic():
    p = MatrixPolynomial([np.eye(2), 2 * np.eye(2)])   # I + 2zI
    q = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])  # zI
    s = p + q
    assert np.allclose(s(1.5), (1 + 3 * 1.5) * np.eye(2))
    prod = p @ q
    z = 0.3 + 0.4j
    assert np.allclose(prod(z), p(z) @ q(z))
    assert np.allclose((p - q)(z), p(z) - q(z))
    assert np.allclose(p.times_linear(1.0, -2.0)(z), (1 - 2 * z) * p(z))
    assert MatrixPolynomial([np.eye(2), 1e-15 * np.eye(2)]).trimmed_degree() \
        == 0


def test_resolvent_poly_examples():
    assert np.allclose(shift_matrix(1, 0), [[0.0]])
    assert np.allclose(resolvent_poly(1, 0)(3.7), 1.0)
    R = resolvent_poly(1, 1)
    z = 2.5
    assert np.allclose(R(z), [[1.0, 0.0], [z, 1.0]])
    assert np.allclose(resolvent_poly(2, 2)(0.0), np.eye(6))
    # adjoint resolvent is the conjugate transpose at conjugate points
    Rs = resolvent_poly(2, 2, adjoint=True)
    R2 = resolvent_poly(2, 2)
    z = 1.1 - 0.3j
    assert np.allclose(Rs(z), R2(np.conj(z)).conj().T)
    # the value R_T(z) = (I - zT)^{-1}, whose adjoint is its transpose
    assert np.array_equal(shift_resolvent(1, 1, z), [[1.0, 0.0], [z, 1.0]])
    rng = np.random.default_rng(17)
    for q in range(1, 5):
        for n in range(5):
            eye = np.eye((n + 1) * q)
            T = shift_matrix(q, n)
            for j, c in enumerate(resolvent_poly(q, n).coeffs):
                assert np.array_equal(c, np.linalg.matrix_power(T, j))
            for _ in range(3):
                z = complex(*(2.0 * rng.normal(size=2)))
                R = shift_resolvent(q, n, z)
                tol = 1e-12 * (1.0 + np.linalg.norm(R))
                assert np.linalg.norm(R - resolvent_poly(q, n)(z)) <= tol
                assert np.linalg.norm(R @ (eye - z * T) - eye) <= tol
                assert np.linalg.norm(
                    R.T - resolvent_poly(q, n, adjoint=True)(z)) <= tol


def test_resolvent_identity():
    R = resolvent_poly(2, 2)
    T = shift_matrix(2, 2)
    for z, w in ((0.5 + 1j, -2.0), (3.0 - 0.25j, 1j)):
        lhs = R(z) - R(w)
        rhs = (z - w) * R(w) @ T @ R(z)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * (1 + np.linalg.norm(lhs))


def test_monomial_stack_examples():
    assert np.allclose(monomial_stack(3, 0, 5.0), np.eye(3))
    assert np.allclose(monomial_stack(1, 2, 2.0).ravel(), [1.0, 2.0, 4.0])
    # R_T(z) v = E(z)
    from stieltjesmp.momentseq import first_column_embedding
    z = 0.3 + 2j
    v = first_column_embedding(2, 2)
    assert np.allclose(resolvent_poly(2, 2)(z) @ v, monomial_stack(2, 2, z))


def test_signature_matrix():
    J = signature_matrix(2)
    assert np.allclose(J, J.conj().T)
    assert np.allclose(J @ J, np.eye(4))


def test_standard_grid():
    grid = standard_grid(0.5)
    assert len(grid) == 24
    assert all(abs(z.imag) > 0 for z in grid)
    assert {np.conj(z) for z in grid} == set(grid)


def test_build_resolvent_closed_forms():
    R = build_resolvent(scalar_seq([1, 0]), 0)
    z = 1.7 - 0.4j
    assert np.allclose(eval_theta(R, z), [[1.0, 0.0], [-z, 1.0]], atol=1e-12)
    R = build_resolvent(scalar_seq([1, 1]), 0)
    assert np.allclose(eval_theta(R, z), [[1.0, 1.0], [-z, 1.0 - z]],
                       atol=1e-12)
    assert np.allclose(eval_theta(R, 0.0), [[1.0, 1.0], [0.0, 1.0]])
    # the (2,1) block carries the factor (z - alpha)
    q = R.q
    assert np.allclose(MatrixPolynomial(R.theta.coeffs[:, q:, :q])(R.alpha),
                       0.0, atol=1e-12)


def test_resolvent_matches_its_defining_formula():
    """Theta = I + C_L Omega(z) C_R and U = I + (z - a) L* R_{T*}(z) M,
    with Omega, C_L, C_R, L and M assembled here from the Hankel data."""
    rng = np.random.default_rng(29)
    worst, built = 0.0, 0
    for q in (1, 2, 3, 5):
        for n in range(4):
            p = (n + 1) * q
            eye, zero = np.eye(p), np.zeros((p, p))
            T, v = shift_matrix(q, n), first_column_embedding(q, n)
            for k, kw in enumerate(WEIGHT_PATTERNS.values()):
                alpha = (0.0, 0.5, -1.0)[(q + n + k) % 3]
                mu, seq = atomic_fixture(rng, q, n, alpha, **kw)
                try:
                    R = build_resolvent(seq, n)
                except ValueError:
                    continue
                built += 1
                H, Hm, Hsm = R.H, R.Hm, R.Hsm
                Ra = shift_resolvent(q, n, alpha)
                Rinv = eye - alpha * T
                CL = np.block([[v.T @ H, np.zeros((q, p))],
                               [np.zeros((q, p)), v.T]])
                CR = np.block([[Hm @ Ra @ v, np.zeros((p, q))],
                               [np.zeros((p, q)), Hsm @ H @ v]])
                for _ in range(3):
                    z = complex(alpha + 3.0 * rng.normal(),
                                rng.choice([-1, 1]) * rng.uniform(0.1, 3.0))
                    Rs = shift_resolvent(q, n, z).T
                    I2Rs = np.block([[Rs, zero], [zero, Rs]])
                    za = z - alpha
                    omega = {
                        False: np.block([[za * T.T, Rinv.T],
                                         [-za * eye, -za * eye]]) @ I2Rs,
                        True: np.block([[za * T.T, za * Rinv.T],
                                        [-eye, -za * eye]]) @ I2Rs}
                    for tilde in (False, True):
                        terms = CL @ omega[tilde] @ CR
                        scale = 1.0 + np.linalg.norm(CL) * np.linalg.norm(
                            omega[tilde]) * np.linalg.norm(CR)
                        err = np.linalg.norm(eval_theta(R, z, tilde)
                                             - np.eye(2 * q) - terms)
                        worst = max(worst, err / scale)
                    for U, X, G in ((R.U, T @ H @ v, Hm),
                                    (R.U_tilde, Rinv @ H @ v, Hsm)):
                        left = np.hstack([X, -v]).conj().T
                        right = G @ Ra @ np.hstack([v, X])
                        terms = za * left @ Rs @ right
                        scale = 1.0 + abs(za) * np.linalg.norm(left) \
                            * np.linalg.norm(Rs) * np.linalg.norm(right)
                        err = np.linalg.norm(U(z) - np.eye(2 * q) - terms)
                        worst = max(worst, err / scale)
    print(f"worst relative residual {worst:.1e} over {built} resolvents")
    assert built >= 50
    assert worst <= 1e-12


def test_build_resolvent_rejects_bad_input():
    with pytest.raises(ValueError):
        build_resolvent(scalar_seq([1, -1]), 0)
    with pytest.raises(ValueError):
        build_resolvent(scalar_seq([1, 1]), 1)


def test_self_check_and_degree_bound():
    for mu, seq, n in kge_fixtures(6, seed=21):
        R = build_resolvent(seq, n)
        scale = 1.0 + np.linalg.norm(R.H)
        assert R.self_check["theta_minus_UB"] <= 1e-10 * scale
        assert R.self_check["theta_tilde_minus_UtBt"] <= 1e-10 * scale
        assert R.self_check["scaling_identity"] <= 1e-10 * scale
        assert R.theta.trimmed_degree() <= n + 1
        assert R.theta_tilde.trimmed_degree() <= n + 1
        # B factors are J-unitary constants
        J = signature_matrix(seq.q)
        for Bc in (R.B, R.B_tilde):
            assert np.linalg.norm(Bc @ J @ Bc.conj().T - J) <= 1e-12 * scale


def test_j_unitary_on_real_axis():
    for mu, seq, n in kge_fixtures(4, seed=33):
        R = build_resolvent(seq, n)
        J = signature_matrix(seq.q)
        scale = 1.0 + np.linalg.norm(R.H)
        for x in (seq.alpha - 3, seq.alpha - 1, seq.alpha,
                  seq.alpha + 2, seq.alpha + 5):
            for tilde in (False, True):
                th = eval_theta(R, x, tilde=tilde)
                assert np.linalg.norm(J - th @ J @ th.conj().T) \
                    <= 1e-10 * scale ** 2


def test_j_defect_variants():
    mu, seq, n = kge_fixtures(5, seed=8)[3]
    R = build_resolvent(seq, n)
    scale = (1.0 + np.linalg.norm(R.H)) ** 2
    zs = [0.4 + 1.2j, -1.5 - 0.8j, seq.alpha + 2.0 + 0.5j]
    ws = [1.0 - 2.0j, 0.2 + 0.3j, seq.alpha - 1.0 + 1j]
    for variant in ("theta", "theta_tilde", "adjoint", "adjoint_tilde",
                    "inverse", "inverse_tilde"):
        for z, w in zip(zs, ws):
            lhs, rhs = j_defect(R, z, w, variant)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale, variant


def test_j_contractivity_on_grid():
    mu, seq, n = kge_fixtures(3, seed=17)[1]
    R = build_resolvent(seq, n)
    J = signature_matrix(seq.q)
    scale = (1.0 + np.linalg.norm(R.H)) ** 2
    for z in standard_grid(seq.alpha):
        for tilde in (False, True):
            th = eval_theta(R, z, tilde=tilde)
            form = (J - th @ J @ th.conj().T) / (2.0 * z.imag)
            form = 0.5 * (form + form.conj().T)
            assert np.linalg.eigvalsh(form).min() >= -1e-9 * scale


def test_theta_inverse():
    R = build_resolvent(scalar_seq([1, 0]), 0)
    assert np.allclose(theta_inverse(R, 1j), [[1.0, 0.0], [1j, 1.0]])
    mu, seq, n = kge_fixtures(2, seed=2)[1]
    R = build_resolvent(seq, n)
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal() + 0.2)
        prod = eval_theta(R, z) @ theta_inverse(R, z)
        cond = np.linalg.norm(eval_theta(R, z)) * \
            np.linalg.norm(theta_inverse(R, z))
        assert np.linalg.norm(prod - np.eye(2 * seq.q)) <= 1e-9 * (1 + cond)


def test_kernel_polys():
    mu, seq, n = kge_fixtures(4, seed=9)[3]
    R = build_resolvent(seq, n)
    P, Q, S = kernel_polys(R)
    for poly in (P, Q, S):
        assert np.allclose(poly(seq.alpha), np.eye(P.size), atol=1e-10)
    # nondegenerate data: projector factors vanish and all three are I
    rng = np.random.default_rng(12)
    mu2, seq2 = atomic_fixture(rng, 2, 1, alpha=0.25)
    R2 = build_resolvent(seq2, 1)
    P2, Q2, S2 = kernel_polys(R2)
    z = 1.3 - 2.2j
    for poly in (P2, Q2, S2):
        assert np.allclose(poly(z), np.eye(poly.size), atol=1e-8)
    # s = (1, 0), n = 0: T = 0 kills every correction term
    R3 = build_resolvent(scalar_seq([1, 0]), 0)
    P3, Q3, S3 = kernel_polys(R3)
    for poly in (P3, Q3, S3):
        assert np.allclose(poly(z), 1.0, atol=1e-12)


def test_theta_coeffs_json():
    R = build_resolvent(scalar_seq([1, 0]), 0)
    doc = theta_coeffs_json(R)
    assert doc["q"] == 1 and doc["n"] == 0
    assert doc["degree"] <= 1
    assert doc["theta"][0] == [[[1.0, 0.0], [0.0, 0.0]],
                               [[0.0, 0.0], [1.0, 0.0]]]
    assert doc["theta"][1] == [[[0.0, 0.0], [0.0, 0.0]],
                               [[-1.0, 0.0], [0.0, 0.0]]]
    assert all(v <= 1e-10 for v in doc["residuals"].values())


def test_build_resolvent_factors_each_matrix_once(factor_calls):
    for mu, seq, n in kge_fixtures(12, seed=23):
        factor_calls.clear()
        R = build_resolvent(seq, n)
        assert factor_calls and max(factor_calls.values()) == 1
        assert R.data.seq is seq
