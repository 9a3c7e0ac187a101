"""Unit tests for the resolvent matrix polynomial machinery."""

import numpy as np
import pytest

from stieltjesmp import MomentSequence, StieltjesPair, momentseq, resolvent
from stieltjesmp.matcore import DEFAULT_TOL, HermitianFactor
from stieltjesmp.momentseq import dubovoj_candidates
from stieltjesmp.resolvent import MatrixPolynomial, build_resolvent, \
    standard_grid, theta_coeffs_json
from stieltjesmp.solver import classify, lft_solution, unique_solution

from conftest import WEIGHT_PATTERNS, atomic_fixture, hankel_factor_counts, \
    kge_fixtures, scalar_seq
from identities import Poly, exact_canonical_S, first_column_embedding, \
    j_defect, kernel_polys, monomial_stack, one_two_inverse, \
    reflexive_inverses, resolvent_poly, shift_matrix, shift_resolvent, \
    shift_resolvent_poly, signature_matrix, theta_inverse, ub_factors, \
    ub_residual


def test_matrix_polynomial_arithmetic():
    p = Poly([np.eye(2), 2 * np.eye(2)])   # I + 2zI
    q = Poly([np.zeros((2, 2)), np.eye(2)])  # zI
    s = p + q
    assert np.allclose(s(1.5), (1 + 3 * 1.5) * np.eye(2))
    prod = p @ q
    z = 0.3 + 0.4j
    assert np.allclose(prod(z), p(z) @ q(z))
    assert np.allclose((p - q)(z), p(z) - q(z))
    assert np.allclose(p.times_linear(1.0, -2.0)(z), (1 - 2 * z) * p(z))
    assert MatrixPolynomial([np.eye(2), 1e-15 * np.eye(2)]).trimmed_degree() \
        == 0


def test_horner_matches_the_power_sum_on_rectangular_stacks():
    rng = np.random.default_rng(61)
    zs = np.array([0.3 + 0.8j, -1.2 + 0.1j, 2.0, 0.0])
    for d, r, c in ((0, 2, 3), (3, 4, 2), (5, 1, 6), (2, 3, 3)):
        coeffs = rng.normal(size=(d + 1, r, c)) \
            + 1j * rng.normal(size=(d + 1, r, c))
        p = MatrixPolynomial(coeffs)
        want = [sum(z ** j * C for j, C in enumerate(coeffs)) for z in zs]
        got = p.eval(zs)
        assert p.shape == (r, c) and got.shape == (len(zs), r, c)
        for z, g, w in zip(zs, got, want):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
            one = p.eval(z)                       # a 0-d point
            assert one.shape == (r, c)
            assert np.linalg.norm(one - w) <= 1e-13 * np.linalg.norm(w)
    a = Poly(rng.normal(size=(2, 2, 3)))
    b = Poly(rng.normal(size=(3, 3, 4)))
    assert np.allclose((a @ b)(zs), a(zs) @ b(zs))
    with pytest.raises(ValueError):
        b @ a
    with pytest.raises(ValueError):
        a + b


def test_resolvent_poly_examples():
    assert np.allclose(shift_matrix(1, 0), [[0.0]])
    assert np.allclose(resolvent_poly(1, 0)(3.7), 1.0)
    R = shift_resolvent_poly(1, 1)
    z = 2.5
    assert np.allclose(R(z), [[1.0, 0.0], [z, 1.0]])
    assert np.allclose(resolvent_poly(2, 2)(0.0), np.eye(6))
    # adjoint resolvent is the conjugate transpose at conjugate points
    Rs = resolvent_poly(2, 2)
    R2 = shift_resolvent_poly(2, 2)
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
                assert np.array_equal(c, np.linalg.matrix_power(T.T, j))
            for _ in range(3):
                z = complex(*(2.0 * rng.normal(size=2)))
                R = shift_resolvent(q, n, z)
                tol = 1e-12 * (1.0 + np.linalg.norm(R))
                assert np.linalg.norm(
                    R - shift_resolvent_poly(q, n)(z)) <= tol
                assert np.linalg.norm(R @ (eye - z * T) - eye) <= tol
                assert np.linalg.norm(
                    R.T - resolvent_poly(q, n)(z)) <= tol


def test_resolvent_identity():
    R = shift_resolvent_poly(2, 2)
    T = shift_matrix(2, 2)
    for z, w in ((0.5 + 1j, -2.0), (3.0 - 0.25j, 1j)):
        lhs = R(z) - R(w)
        rhs = (z - w) * R(w) @ T @ R(z)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * (1 + np.linalg.norm(lhs))


def test_monomial_stack_examples():
    assert np.allclose(monomial_stack(3, 0, 5.0), np.eye(3))
    assert np.allclose(monomial_stack(1, 2, 2.0).ravel(), [1.0, 2.0, 4.0])
    # R_T(z) v = E(z)
    z = 0.3 + 2j
    v = first_column_embedding(2, 2)
    assert np.allclose(shift_resolvent_poly(2, 2)(z) @ v,
                       monomial_stack(2, 2, z))


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
    assert np.allclose(R.theta(z), [[1.0, 0.0], [-z, 1.0]], atol=1e-12)
    R = build_resolvent(scalar_seq([1, 1]), 0)
    assert np.allclose(R.theta(z), [[1.0, 1.0], [-z, 1.0 - z]],
                       atol=1e-12)
    assert np.allclose(R.theta(0.0), [[1.0, 1.0], [0.0, 1.0]])
    # the (2,1) block carries the factor (z - alpha)
    q = R.q
    assert np.allclose(MatrixPolynomial(R.theta.coeffs[:, q:, :q])(R.alpha),
                       0.0, atol=1e-12)


def test_resolvent_matches_its_defining_formula():
    """Theta = I + C_L Omega(z) C_R and Theta = U B with
    U = I + (z - a) L* R_{T*}(z) M, with Omega, C_L, C_R, L and M
    assembled here from the Hankel data and B from the oracle."""
    rng = np.random.default_rng(29)
    worst, worst_ub, built = 0.0, 0.0, 0
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
                H, Hs = R.data.H[n], R.data.shift.H[n]
                D, Ds = dubovoj_candidates(seq, n)
                Hm, Hsm = reflexive_inverses(R)
                Ra = shift_resolvent(q, n, alpha)
                Rinv = eye - alpha * T
                CL = np.block([[v.T @ H, np.zeros((q, p))],
                               [np.zeros((q, p)), v.T]])
                CR = np.block([[_solve(H, D, Ra @ v), np.zeros((p, q))],
                               [np.zeros((p, q)), _solve(Hs, Ds, H @ v)]])
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
                    for tilde, theta in ((False, R.theta),
                                         (True, R.theta_tilde)):
                        terms = CL @ omega[tilde] @ CR
                        scale = 1.0 + np.linalg.norm(CL) * np.linalg.norm(
                            omega[tilde]) * np.linalg.norm(CR)
                        err = np.linalg.norm(theta(z) - np.eye(2 * q)
                                             - terms)
                        worst = max(worst, err / scale)
                    for tilde, X, G in ((False, T @ H @ v, Hm),
                                        (True, Rinv @ H @ v, Hsm)):
                        U, B = ub_factors(R, tilde)
                        left = np.hstack([X, -v]).conj().T
                        right = G @ Ra @ np.hstack([v, X])
                        terms = za * left @ Rs @ right
                        scale = 1.0 + abs(za) * np.linalg.norm(left) \
                            * np.linalg.norm(Rs) * np.linalg.norm(right)
                        err = np.linalg.norm(U(z) - np.eye(2 * q) - terms)
                        worst = max(worst, err / scale)
                        theta = R.theta_tilde if tilde else R.theta
                        err = np.linalg.norm(theta(z) - U(z) @ B)
                        worst_ub = max(worst_ub, err / (
                            1.0 + np.linalg.norm(U(z)) * np.linalg.norm(B)))
    print(f"worst relative residual {worst:.1e}, theta - U B "
          f"{worst_ub:.1e}, over {built} resolvents")
    assert built >= 50
    assert worst <= 1e-12
    assert worst_ub <= 1e-10


def _solve(A, B, b):
    """X b for the reflexive inverse X = B (B* A B)^-1 B* with range
    range(B), by a solve, as the build forms C_R's columns."""
    return B @ np.linalg.solve(B.conj().T @ A @ B, B.conj().T @ b)


def test_reflexive_solve_is_the_oracle_inverse_on_its_columns():
    # The build's solve applies the explicit reflexive inverse of the
    # oracle, refusing what the oracle refuses with the same messages.
    for mu, seq, n in kge_fixtures(12, seed=31):
        data = seq.hankel()
        for d, B in zip((data, data.shift), dubovoj_candidates(seq, n)):
            A, f = d.H[n], d.factor(n)
            b = np.random.default_rng(n).normal(size=(len(A), 2))
            got = resolvent._reflexive_solve(A, B, f, b, seq.tol)
            want = one_two_inverse(A, B, f) @ b
            assert np.linalg.norm(got - want) <= 1e-8 * (
                1.0 + np.linalg.norm(want))
    for A, B, message in ((np.eye(2), np.array([[1.0], [0.0]]),
                           "dim U = 1 is not rank A = 2"),
                          (np.diag([1.0, 0.0]), np.array([[0.0], [1.0]]),
                           "direct-sum condition violated: U meets null")):
        f = HermitianFactor(A.astype(complex))
        for inverse in (lambda: one_two_inverse(A, B, f),
                        lambda: resolvent._reflexive_solve(
                            A, B, f, np.eye(2), DEFAULT_TOL)):
            with pytest.raises(ValueError, match=message):
                inverse()


@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_a_definite_ladder_solves_with_the_plain_inverse(q):
    # On an all-definite ladder the Dubovoj basis is exactly I, so the
    # reflexive solve B (B* A B)^-1 B* b is np.linalg.solve(A, b) bit for
    # bit; the refusals of the solve still stand.
    rng = np.random.default_rng(q)
    for n in range(4):
        mu, seq = atomic_fixture(rng, q, n, 0.5)
        data = seq.hankel()
        for d, B in zip((data, data.shift), dubovoj_candidates(seq, n)):
            A, f = d.H[n], d.factor(n)
            assert np.array_equal(B, np.eye(len(A)))
            b = rng.normal(size=(len(A), q)) + 0j
            got = resolvent._reflexive_solve(A, B, f, b, seq.tol)
            assert np.array_equal(got, np.linalg.solve(A, b))
            assert np.array_equal(got, _solve(A, B, b))
            with pytest.raises(ValueError, match=f"dim U = {len(A) - 1} is "
                               f"not rank A = {len(A)}"):
                resolvent._reflexive_solve(A, B[:, 1:], f, b, seq.tol)
    A, B = np.diag([1.0, 0.0]).astype(complex), np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="direct-sum condition violated"):
        resolvent._reflexive_solve(A, B, HermitianFactor(A), np.eye(2),
                                   DEFAULT_TOL)


def test_canonical_solution_matches_a_60_digit_reference():
    # On positive definite H_4 and Hs_4 (q = 2, seven atoms), S of the
    # pair (0, I) at alpha + 1 + 0.1i lies within 5e-8 of S assembled
    # from the same float moments in 60-digit arithmetic; an explicit
    # float inverse in the build reads 2e-7 and more here.
    for s in (5, 3):
        mu, seq = atomic_fixture(np.random.default_rng(s), 2, 4, 0.5,
                                 natoms=7)
        z = seq.alpha + 1.0 + 0.1j
        ref = exact_canonical_S(seq, 4, z)
        S = lft_solution(build_resolvent(seq, 4), StieltjesPair.constant(
            np.zeros((2, 2)), np.eye(2)))(z)
        assert np.linalg.norm(S - ref) <= 5e-8 * np.linalg.norm(ref)


def test_build_resolvent_rejects_bad_input():
    with pytest.raises(ValueError):
        build_resolvent(scalar_seq([1, -1]), 0)
    with pytest.raises(ValueError):
        build_resolvent(scalar_seq([1, 1]), 1)


def test_self_check_is_relative_to_the_coefficients():
    # Scaling the moments by c scales blocks of Theta by c and 1/c, and
    # both sides of the J-form identity with them; relative to
    # 1 + |Theta(z)| |Theta(w)| the residual stays small.
    mu, seq = atomic_fixture(np.random.default_rng(1), 2, 2, 0.0, natoms=4)
    for c in (1e-6, 1.0, 1e6):
        R = build_resolvent(MomentSequence(0.0, 2, [c * s for s in
                                                    seq.moments]), 2)
        assert set(R.self_check) == {"j_form"}
        assert R.self_check["j_form"] <= 1e-10


def _build_with_core(monkeypatch, seq, n):
    """build_resolvent(seq, n) and the product L* R_{T*}(z) H^- R_T(conj
    w) L its self-check read."""
    cores = []
    check = resolvent._self_check
    monkeypatch.setattr(resolvent, "_self_check",
                        lambda *args: cores.append(args[-1]) or check(*args))
    return build_resolvent(seq, n), cores[-1]


def test_j_form_sees_a_wrong_coefficient_block(monkeypatch):
    # The self-check reads Theta against the paper's right side, so a
    # 1e-6 relative change in any q x q block of a coefficient of Theta
    # holding a tenth of the largest coefficient's norm or more shows:
    # above 1e-8 at n = 1 (1e-9 at n = 2, cond H_2 = 8e5), and 1e4 times
    # the reading of the true Theta or more.
    for q, n, alpha, floor in ((1, 1, 0.0, 1e-8), (2, 1, 0.0, 1e-8),
                               (2, 2, 0.5, 1e-9)):
        mu, seq = atomic_fixture(np.random.default_rng(7 + q), q, n, alpha)
        R, LHL = _build_with_core(monkeypatch, seq, n)
        clean = R.self_check["j_form"]
        assert resolvent._self_check(R.theta, R.alpha, LHL) == R.self_check
        assert clean <= 1e-12
        coeffs = R.theta.coeffs
        largest = np.linalg.norm(coeffs, axis=(-2, -1)).max()
        blocks = [(j, rows, cols) for j in range(n + 2)
                  for rows in (np.s_[:q], np.s_[q:])
                  for cols in (np.s_[:q], np.s_[q:])
                  if np.linalg.norm(coeffs[j][rows, cols]) >= 0.1 * largest]
        assert len(blocks) >= 5
        for j, rows, cols in blocks:
            wrong = coeffs.copy()
            wrong[j][rows, cols] *= 1.0 + 1e-6
            got = resolvent._self_check(MatrixPolynomial(wrong), R.alpha,
                                        LHL)["j_form"]
            assert got > max(floor, 1e4 * clean)


def test_j_form_closed_forms_at_level_0(monkeypatch):
    # At n = 0, T = 0 and L = [0, -v]: the product the self-check reads
    # is L* H^- L = diag(0, s_0^-), so the right side of the J-form
    # identity is -i (z - conj w) diag(0, s_0^-), which Theta meets at
    # the pair.
    J = signature_matrix(1)
    for moments, alpha in (([1, 0], 0.0), ([1, 1], 0.0), ([2, 3], 0.5)):
        seq = MomentSequence(alpha, 1, [np.array([[x]]) for x in moments])
        R, LHL = _build_with_core(monkeypatch, seq, 0)
        assert np.linalg.norm(LHL - np.diag([0.0, 1.0 / moments[0]])) \
            <= 1e-15
        z, w = alpha + resolvent._J_PAIR
        lhs = J - R.theta(z) @ J @ R.theta(w).conj().T
        rhs = -1j * (z - np.conj(w)) * np.diag([0.0, 1.0 / moments[0]])
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * np.linalg.norm(rhs)
        assert R.self_check["j_form"] <= 1e-15


@pytest.mark.parametrize("q, alpha, seed", [(1, 0.5, 1), (2, 0.0, 8)])
def test_build_resolvent_at_condition_1e10(q, alpha, seed):
    # n + 1 = 4 full-rank atoms above alpha make H_3 and Hs_3 positive
    # definite, here of condition 1e10 and more; the prescribed-range
    # inverses are decided on the one factor of each and, formed by the
    # build's solve, are reflexive.
    mu, seq = atomic_fixture(np.random.default_rng(seed), q, 3, alpha,
                             natoms=4)
    R = build_resolvent(seq, 3)
    assert np.linalg.cond(R.data.H[3]) >= 1e10
    for d, B in zip((R.data, R.data.shift), dubovoj_candidates(seq, 3)):
        H = d.H[3]
        Hm = resolvent._reflexive_solve(H, B, d.factor(3), np.eye(len(H)),
                                        seq.tol)
        assert np.linalg.norm(H @ Hm @ H - H) <= 1e-6 * np.linalg.norm(H)
        assert np.linalg.norm(Hm @ H @ Hm - Hm) <= \
            1e-6 * np.linalg.norm(Hm)


def test_self_check_and_degree_bound():
    for mu, seq, n in kge_fixtures(6, seed=21):
        R = build_resolvent(seq, n)
        scale = 1.0 + np.linalg.norm(R.data.H[n])
        assert R.self_check["j_form"] <= 1e-10 * scale
        assert ub_residual(R) <= 1e-10 * scale
        assert ub_residual(R, tilde=True) <= 1e-10 * scale
        assert R.theta.trimmed_degree() <= n + 1
        assert R.theta_tilde.trimmed_degree() <= n + 1
        # B factors are J-unitary constants
        J = signature_matrix(seq.q)
        for tilde in (False, True):
            Bc = ub_factors(R, tilde)[1]
            assert np.linalg.norm(Bc @ J @ Bc.conj().T - J) <= 1e-12 * scale


def test_j_unitary_on_real_axis():
    for mu, seq, n in kge_fixtures(4, seed=33):
        R = build_resolvent(seq, n)
        J = signature_matrix(seq.q)
        scale = 1.0 + np.linalg.norm(R.data.H[n])
        for x in (seq.alpha - 3, seq.alpha - 1, seq.alpha,
                  seq.alpha + 2, seq.alpha + 5):
            for theta in (R.theta, R.theta_tilde):
                th = theta(x)
                assert np.linalg.norm(J - th @ J @ th.conj().T) \
                    <= 1e-10 * scale ** 2


def test_j_defect_variants():
    mu, seq, n = kge_fixtures(5, seed=8)[3]
    R = build_resolvent(seq, n)
    scale = (1.0 + np.linalg.norm(R.data.H[n])) ** 2
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
    scale = (1.0 + np.linalg.norm(R.data.H[n])) ** 2
    for z in standard_grid(seq.alpha):
        for theta in (R.theta, R.theta_tilde):
            th = theta(z)
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
        prod = R.theta(z) @ theta_inverse(R, z)
        cond = np.linalg.norm(R.theta(z)) * \
            np.linalg.norm(theta_inverse(R, z))
        assert np.linalg.norm(prod - np.eye(2 * seq.q)) <= 1e-9 * (1 + cond)


def test_kernel_polys():
    mu, seq, n = kge_fixtures(4, seed=9)[3]
    R = build_resolvent(seq, n)
    P, Q, S = kernel_polys(R)
    for poly in (P, Q, S):
        assert np.allclose(poly(seq.alpha), np.eye(*P.shape), atol=1e-10)
    # nondegenerate data: projector factors vanish and all three are I
    rng = np.random.default_rng(12)
    mu2, seq2 = atomic_fixture(rng, 2, 1, alpha=0.25)
    R2 = build_resolvent(seq2, 1)
    P2, Q2, S2 = kernel_polys(R2)
    z = 1.3 - 2.2j
    for poly in (P2, Q2, S2):
        assert np.allclose(poly(z), np.eye(*poly.shape), atol=1e-8)
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
    assert set(doc["residuals"]) == {"j_form"}
    assert doc["residuals"]["j_form"] <= 1e-10


def test_build_resolvent_factors_each_matrix_once(factor_calls):
    for mu, seq, n in kge_fixtures(12, seed=23):
        factor_calls.clear()
        R = build_resolvent(seq, n)
        assert factor_calls == hankel_factor_counts(seq)
        assert R.data.seq is seq


def test_a_second_build_shares_the_parts_of_the_first(monkeypatch):
    # While a resolvent holds the Hankel data, a second build (the one
    # unique_solution makes) reads the parts of the first from it and
    # forms no range subspace again.
    calls = []
    subspace = momentseq._range_basis
    monkeypatch.setattr(momentseq, "_range_basis",
                        lambda *args: calls.append(1) or subspace(*args))
    for mu, seq, n in kge_fixtures(12, seed=43):
        calls.clear()
        R = build_resolvent(seq, n)
        assert len(calls) == 2                 # D_n and its shifted twin
        calls.clear()
        again = build_resolvent(seq, n)
        if classify(seq, n).case == "CompletelyDegenerate":
            unique_solution(seq, n)
        assert not calls
        assert again.theta is R.theta
