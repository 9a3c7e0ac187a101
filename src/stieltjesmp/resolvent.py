"""Shift resolvents and the 2q x 2q resolvent matrix polynomial.

Provides exact coefficient arithmetic for matrix polynomials, the
nilpotent block shift T_{q,n} with its polynomial resolvent
R_T(z) = (I - zT)^{-1} = sum_j z^j T^j, the signature matrix
Jt = [[0, -iI], [iI, 0]], and the construction of the polynomials
Theta and Theta-tilde whose linear fractional transformations
parametrize the solution set of the truncated half-line moment problem,
together with the J-form identities used to validate them.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .matcore import one_two_inverse
from .momentseq import (
    HankelData,
    dubovoj_candidates,
    first_column_embedding,
    shift_matrix,
    shift_resolvent,
)

# Relative size below which ``trimmed_degree`` counts a coefficient as zero.
_TRIM_TOL = 1e-12


class MatrixPolynomial:
    """A polynomial with matrix coefficients, ascending degree:
    ``coeffs`` is a (d + 1, r, c) array whose row j is the coefficient
    of z^j, and ``shape`` is (r, c)."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3:
            raise ValueError("coefficients must be matrices of one shape")
        if not len(coeffs):
            raise ValueError("need at least one coefficient")
        self.coeffs = coeffs
        self.shape = coeffs.shape[1:]

    @classmethod
    def constant(cls, A):
        return cls(np.asarray(A, dtype=complex)[None])

    def trimmed_degree(self):
        norms = np.linalg.norm(self.coeffs, axis=(1, 2))
        nonzero = np.flatnonzero(norms > _TRIM_TOL * (norms.max() + 1.0))
        return int(nonzero[-1]) if nonzero.size else 0

    def __add__(self, other):
        other = _coerce(other)
        if other.shape != self.shape:
            raise ValueError("polynomial shapes differ")
        out = np.zeros((max(len(self.coeffs), len(other.coeffs)),)
                       + self.shape, dtype=complex)
        out[:len(self.coeffs)] += self.coeffs
        out[:len(other.coeffs)] += other.coeffs
        return MatrixPolynomial(out)

    def __sub__(self, other):
        return self + MatrixPolynomial(-_coerce(other).coeffs)

    def __matmul__(self, other):
        a, b = self.coeffs, _coerce(other).coeffs
        if a.shape[2] != b.shape[1]:
            raise ValueError("polynomial shapes do not chain")
        out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]),
                       dtype=complex)
        # coefficient j + k collects a_j b_k
        np.add.at(out, np.add.outer(np.arange(len(a)), np.arange(len(b))),
                  a[:, None] @ b[None])
        return MatrixPolynomial(out)

    def times_linear(self, c0, c1):
        """Multiply by the scalar polynomial c0 + c1 z."""
        return MatrixPolynomial(_times_linear(self.coeffs, c0, c1))

    def sandwich(self, L, R):
        """Constant congruence L @ p(z) @ R, allowing rectangular L, R."""
        return MatrixPolynomial(np.asarray(L, dtype=complex) @ self.coeffs
                                @ np.asarray(R, dtype=complex))

    def eval(self, z):
        """Horner evaluation at a complex point (an r x c matrix) or at a
        1-D array of G points (a (G, r, c) stack), each step updating one
        output array in place."""
        z = np.asarray(z)
        out = np.empty(z.shape + self.shape, dtype=complex)
        out[...] = self.coeffs[-1]
        z = z[..., None, None]
        for c in self.coeffs[-2::-1]:
            out *= z
            out += c
        return out

    def __call__(self, z):
        return self.eval(z)


def _coerce(x):
    """``x`` as a polynomial; a matrix is a constant."""
    return x if isinstance(x, MatrixPolynomial) else \
        MatrixPolynomial.constant(x)


def _times_linear(coeffs, c0, c1):
    """Coefficients of (c0 + c1 z) p(z) from a (d + 1, r, c) stack of p."""
    out = np.zeros((len(coeffs) + 1,) + coeffs.shape[1:], dtype=complex)
    out[:-1] = c0 * coeffs
    out[1:] += c1 * coeffs
    return out


def resolvent_poly(q, n, adjoint=False):
    """R_T(z) = sum_{j=0}^n z^j T^j as a matrix polynomial.

    With ``adjoint=True`` returns R_{T*}(z) = sum z^j (T*)^j, the
    adjoint-shift resolvent satisfying R_{T*}(z) = [R_T(conj z)]*.
    Its value at one point is ``momentseq.shift_resolvent(q, n, z)``.
    The coefficient T^j = kron(eye(n + 1, k=-j), I_q) is the identity
    shifted down by j blocks.
    """
    p, k = (n + 1) * q, (q if adjoint else -q)
    return MatrixPolynomial([np.eye(p, k=k * j) for j in range(n + 1)])


def monomial_stack(q, n, z):
    """E_{q,n}(z) = col(z^j I_q)_{j=0}^n; satisfies R_T(z) v = E(z)."""
    return np.vstack([(z ** j) * np.eye(q, dtype=complex)
                      for j in range(n + 1)])


def signature_matrix(q):
    """Jt = [[0, -iI_q], [iI_q, 0]]."""
    z = np.zeros((q, q), dtype=complex)
    eye = np.eye(q, dtype=complex)
    return np.block([[z, -1j * eye], [1j * eye, z]])


def standard_grid(alpha):
    """24 complex test points around the slit: 4 real offsets x 3 heights
    in each half plane."""
    pts = []
    for x in (alpha - 2.0, alpha, alpha + 1.0, alpha + 3.0):
        for y in (0.1, 1.0, 10.0):
            pts.append(x + 1j * y)
            pts.append(x - 1j * y)
    return pts


@dataclass
class ResolventMatrix:
    """The resolvent matrix polynomials and their cached Hankel data.

    ``theta`` and ``theta_tilde`` are 2q x 2q matrix polynomials of
    degree at most n + 1; ``U``/``U_tilde`` are the unimodular factors
    and ``B``/``B_tilde`` the constant J-unitary factors with
    theta = U B and theta_tilde = U_tilde B_tilde.  ``data``, the Hankel
    data of the sequence, lives while the resolvent does, so later calls
    on the sequence read its factorizations; every tolerance is that of
    ``data.seq``.
    """

    n: int
    q: int
    alpha: float
    theta: MatrixPolynomial
    theta_tilde: MatrixPolynomial
    U: MatrixPolynomial
    U_tilde: MatrixPolynomial
    B: np.ndarray
    B_tilde: np.ndarray
    H: np.ndarray
    Hs: np.ndarray
    Hm: np.ndarray
    Hsm: np.ndarray
    T: np.ndarray
    v: np.ndarray
    Ralpha: np.ndarray
    data: HankelData = field(repr=False, compare=False)
    self_check: dict = field(default_factory=dict)


def build_resolvent(seq, n):
    """Construct the resolvent matrix polynomial pair for level n.

    Requires the sequence to be Stieltjes-extendable (class K>=e) with
    2n + 1 <= m.  The generalized inverses H^- and Hs^- are taken with
    range equal to the canonical block-diagonal ladder subspaces.  The
    result keeps the sequence's Hankel data.
    """
    data = seq.hankel()
    data.check_level(n, shifted=True)
    if not data.in_Kgeq_e():
        raise ValueError("sequence is not Stieltjes-extendable (not in K>=e)")
    q = seq.q
    H, Hs = data.H[n], data.Hs[n]
    D, Ds = dubovoj_candidates(seq, n)
    Hm = one_two_inverse(H, D, data.factor(n), seq.tol)
    Hsm = one_two_inverse(Hs, Ds, data.factor(n, True), seq.tol)
    T, v = shift_matrix(q, n), first_column_embedding(q, n)
    alpha = seq.alpha
    Ralpha = shift_resolvent(q, n, alpha)
    RTs = resolvent_poly(q, n, adjoint=True).coeffs
    Hv = H @ v
    X = T @ Hv
    Xt = Hv - alpha * X                     # (I - aT) H v

    # Theta = I + C_L Omega(z) C_R with C_L = diag(v* H, v*),
    # C_R = diag(Hm Ra v, Hsm H v) and, for R = R_{T*}(z) and d = z - a,
    #   Omega  = [[d T*, (I - aT)*], [-d I, -d I]] diag(R, R),
    #   Omega~ = [[d T*, d (I - aT)*], [-I, -d I]] diag(R, R).
    # Term by term, with K = [T H v, (I - aT) H v, v]* R [Hm Ra v, Hsm H v]
    # in q x q blocks K_ij (rows i = 1, 2, 3, columns j = a, b):
    #   Theta  = I + [[d K_1a, K_2b], [-d K_3a, -d K_3b]],
    #   Theta~ = I + [[d K_1a, d K_2b], [-K_3a, -d K_3b]].
    K = np.hstack([X, Xt, v]).conj().T @ RTs \
        @ np.hstack([Hm @ Ralpha @ v, Hsm @ H @ v])
    zK = _times_linear(K, -alpha, 1.0)               # (z - a) K
    K = np.concatenate([K, np.zeros_like(K[:1])])    # to the degree of zK
    (_, K2, K3), (zK1, zK2, zK3) = np.split(K, 3, 1), np.split(zK, 3, 1)
    a, b = np.s_[..., :q], np.s_[..., q:]
    theta = _identity_plus([[zK1[a], K2[b]], [-zK3[a], -zK3[b]]])
    theta_tilde = _identity_plus([[zK1[a], zK2[b]], [-K3[a], -zK3[b]]])

    def u_factor(X, G):
        """I + (z - a) [X, -v]* R_{T*}(z) G Ra [v, X]."""
        M = np.hstack([X, -v]).conj().T @ RTs \
            @ (G @ Ralpha @ np.hstack([v, X]))
        return _identity_plus([[_times_linear(M, -alpha, 1.0)]])

    U = u_factor(X, Hm)
    U_tilde = u_factor(Xt, Hsm)
    B = np.eye(2 * q, dtype=complex)
    B[:q, q:] = Hv.conj().T @ Hsm @ Hv
    B_tilde = np.eye(2 * q, dtype=complex)
    B_tilde[q:, :q] = -v.conj().T @ Ralpha.conj().T @ Hm @ Ralpha @ v

    R = ResolventMatrix(
        n=n, q=q, alpha=alpha, theta=theta, theta_tilde=theta_tilde,
        U=U, U_tilde=U_tilde, B=B, B_tilde=B_tilde, H=H, Hs=Hs, Hm=Hm,
        Hsm=Hsm, T=T, v=v, Ralpha=Ralpha, data=data)
    R.self_check = _self_check(R)
    return R


def _identity_plus(blocks):
    """I + [[b00, b01], [b10, b11]] as a polynomial, from a nested list
    of coefficient stacks of one length."""
    coeffs = np.concatenate([np.concatenate(row, 2) for row in blocks], 1)
    coeffs[0] += np.eye(coeffs.shape[1])
    return MatrixPolynomial(coeffs)


def _self_check(R):
    """Residuals of the built-in consistency identities, each relative to
    1 + the largest coefficient norm of the polynomial it checks."""
    def largest(diff, poly):
        norm = np.linalg.norm(poly.coeffs, axis=(-2, -1)).max()
        return float(np.linalg.norm(diff, axis=(-2, -1)).max() / (1 + norm))

    # scaling identity theta_tilde = diag((z-a)I, I) theta diag((z-a)^{-1}I, I)
    zs = R.alpha + np.array([1.3 + 0.7j, -2.0 + 1j, 0.5 - 2j])
    d = np.ones((len(zs), 2 * R.q), dtype=complex)
    d[:, :R.q] = (zs - R.alpha)[:, None]
    scaled = d[:, :, None] * R.theta(zs) / d[:, None, :]
    th, tt = R.theta, R.theta_tilde
    return {"theta_minus_UB": largest(th.coeffs - R.U.coeffs @ R.B, th),
            "theta_tilde_minus_UtBt":
                largest(tt.coeffs - R.U_tilde.coeffs @ R.B_tilde, tt),
            "scaling_identity": largest(tt(zs) - scaled, tt)}


def eval_theta(R, z, tilde=False):
    """Value of theta (or theta tilde) at z via Horner evaluation; a
    (G, 2q, 2q) stack at a 1-D array of G points."""
    return (R.theta_tilde if tilde else R.theta).eval(z)


def theta_inverse(R, z, tilde=False):
    """Inverse of theta(z) through the J-symmetry Jt theta*(conj z) Jt."""
    J = signature_matrix(R.q)
    th_bar = eval_theta(R, np.conj(z), tilde=tilde)
    return J @ th_bar.conj().T @ J


def j_defect(R, z, w, variant="theta"):
    """Both sides of a J-form identity, assembled independently.

    Variants
    --------
    ``theta`` / ``theta_tilde``
        Jt - theta(z) Jt theta*(w) against the rank-factorized right side.
    ``adjoint`` / ``adjoint_tilde``
        Jt - theta*(w) Jt theta(z) against its factorized right side.
    ``inverse`` / ``inverse_tilde``
        Jt - theta^{-*}(z) Jt theta^{-1}(w) against its factorized side.
    """
    J = signature_matrix(R.q)
    T, H, Hs, v = R.T, R.H, R.Hs, R.v
    Ra = R.Ralpha
    Rinv = np.eye(H.shape[0], dtype=complex) - R.alpha * T
    q, n = R.q, R.n

    tilde = variant.endswith("tilde")
    Hm = R.Hsm if tilde else R.Hm
    X = (Rinv if tilde else T) @ H @ v
    left_mat, pair_mat = np.hstack([X, -v]), np.hstack([v, X])

    if variant in ("theta", "theta_tilde"):
        th_z = eval_theta(R, z, tilde=tilde)
        th_w = eval_theta(R, w, tilde=tilde)
        lhs = J - th_z @ J @ th_w.conj().T
        rhs = -1j * (z - np.conj(w)) * (
            left_mat.conj().T @ shift_resolvent(q, n, z).T @ Hm
            @ shift_resolvent(q, n, w).conj() @ left_mat)
        return lhs, rhs

    if variant in ("adjoint", "adjoint_tilde"):
        th_z = eval_theta(R, z, tilde=tilde)
        th_w = eval_theta(R, w, tilde=tilde)
        Bc = R.B_tilde if tilde else R.B
        Hmat = Hs if tilde else H
        lhs = J - th_w.conj().T @ J @ th_z
        core = (pair_mat.conj().T @ Ra.conj().T @ Hm
                @ shift_resolvent(q, n, w).conj() @ Rinv @ Hmat
                @ Rinv.conj().T @ shift_resolvent(q, n, z).T @ Hm @ Ra
                @ pair_mat)
        rhs = 1j * (np.conj(w) - z) * (Bc.conj().T @ core @ Bc)
        return lhs, rhs

    if variant in ("inverse", "inverse_tilde"):
        thi_z = theta_inverse(R, z, tilde=tilde)
        thi_w = theta_inverse(R, w, tilde=tilde)
        lhs = J - thi_z.conj().T @ J @ thi_w
        rhs = -1j * (np.conj(z) - w) * (
            pair_mat.conj().T @ shift_resolvent(q, n, np.conj(z)).T @ Hm
            @ shift_resolvent(q, n, w) @ pair_mat)
        return lhs, rhs

    raise ValueError(f"unknown variant {variant!r}")


def kernel_polys(R):
    """The three kernel polynomials P, Q, S with value I at alpha.

    P(z) = I + (z - a)(I - H^+ H) T R_T(z) (I - H H^-) and the analogues
    built from the shifted Hankel matrix; their determinants vanish only
    on finite sets.
    """
    p = R.H.shape[0]
    eye = np.eye(p, dtype=complex)
    Hp = R.data.factor(R.n).pinv
    Hsp = R.data.factor(R.n, shifted=True).pinv
    PH = eye - Hp @ R.H
    PHs = eye - Hsp @ R.Hs
    QH = eye - R.H @ R.Hm
    QHs = eye - R.Hs @ R.Hsm
    RT = resolvent_poly(R.q, R.n, adjoint=False)
    Ppoly = MatrixPolynomial.constant(eye) + \
        RT.sandwich(PH @ R.T, QH).times_linear(-R.alpha, 1.0)
    Qpoly = MatrixPolynomial.constant(eye) + \
        RT.sandwich(PHs @ R.T, QHs).times_linear(-R.alpha, 1.0)
    Spoly = MatrixPolynomial.constant(eye) - \
        MatrixPolynomial.constant(PHs @ R.Ralpha @ R.T @ QHs).times_linear(
            -R.alpha, 1.0)
    return Ppoly, Qpoly, Spoly


def theta_coeffs_json(R):
    """Theta and theta-tilde coefficients in JSON-ready form."""
    return {
        "q": R.q,
        "n": R.n,
        "alpha": R.alpha,
        "degree": R.theta.trimmed_degree(),
        "theta": [jsonio.matrix_to_json(c) for c in R.theta.coeffs],
        "theta_tilde": [jsonio.matrix_to_json(c)
                        for c in R.theta_tilde.coeffs],
        "residuals": {k: float(val) for k, val in R.self_check.items()},
    }
