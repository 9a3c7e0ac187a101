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
    hankel_data,
    shift_matrix,
    shift_resolvent,
)

# Relative size below which ``trimmed_degree`` counts a coefficient as zero.
_TRIM_TOL = 1e-12


class MatrixPolynomial:
    """A polynomial with square matrix coefficients, ascending degree."""

    def __init__(self, coeffs):
        coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
        if not coeffs:
            raise ValueError("need at least one coefficient")
        shape = coeffs[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("coefficients must be square matrices")
        for c in coeffs:
            if c.shape != shape:
                raise ValueError("coefficient shapes differ")
        self.coeffs = coeffs
        self.size = shape[0]

    @classmethod
    def constant(cls, A):
        return cls([np.asarray(A, dtype=complex)])

    @property
    def degree(self):
        """Index of the last numerically nonzero coefficient."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if np.linalg.norm(self.coeffs[k]) > 0.0:
                return k
        return 0

    def trimmed_degree(self):
        scale = max(np.linalg.norm(c) for c in self.coeffs) + 1.0
        for k in range(len(self.coeffs) - 1, -1, -1):
            if np.linalg.norm(self.coeffs[k]) > _TRIM_TOL * scale:
                return k
        return 0

    def _padded(self, length):
        z = np.zeros((self.size, self.size), dtype=complex)
        return self.coeffs + [z] * (length - len(self.coeffs))

    def __add__(self, other):
        other = _coerce(other, self.size)
        n = max(len(self.coeffs), len(other.coeffs))
        return MatrixPolynomial(
            [a + b for a, b in zip(self._padded(n), other._padded(n))])

    def __sub__(self, other):
        other = _coerce(other, self.size)
        n = max(len(self.coeffs), len(other.coeffs))
        return MatrixPolynomial(
            [a - b for a, b in zip(self._padded(n), other._padded(n))])

    def __neg__(self):
        return MatrixPolynomial([-c for c in self.coeffs])

    def __matmul__(self, other):
        other = _coerce(other, self.size)
        out = [np.zeros((self.size, self.size), dtype=complex)
               for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for j, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[j + k] += a @ b
        return MatrixPolynomial(out)

    def scale(self, c):
        return MatrixPolynomial([c * A for A in self.coeffs])

    def times_linear(self, c0, c1):
        """Multiply by the scalar polynomial c0 + c1 z."""
        z = np.zeros((self.size, self.size), dtype=complex)
        out = [z.copy() for _ in range(len(self.coeffs) + 1)]
        for j, A in enumerate(self.coeffs):
            out[j] += c0 * A
            out[j + 1] += c1 * A
        return MatrixPolynomial(out)

    def sandwich(self, L, R):
        """Constant congruence L @ p(z) @ R, allowing rectangular L, R."""
        L = np.asarray(L, dtype=complex)
        R = np.asarray(R, dtype=complex)
        coeffs = [L @ c @ R for c in self.coeffs]
        if coeffs[0].shape[0] != coeffs[0].shape[1]:
            raise ValueError("sandwich result must be square")
        return MatrixPolynomial(coeffs)

    def eval(self, z):
        """Horner evaluation at a complex point (a size x size matrix) or
        at a 1-D array of G points (a (G, size, size) stack)."""
        z = np.asarray(z)[..., None, None]
        out = np.empty(z.shape[:-2] + (self.size, self.size), dtype=complex)
        out[...] = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = z * out + c
        return out

    def __call__(self, z):
        return self.eval(z)


def _coerce(x, size):
    if isinstance(x, MatrixPolynomial):
        if x.size != size:
            raise ValueError("polynomial sizes differ")
        return x
    return MatrixPolynomial.constant(np.asarray(x, dtype=complex))


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


def _kron2(v):
    """I_2 (x) v for a tall block-column v."""
    rows, cols = v.shape
    out = np.zeros((2 * rows, 2 * cols), dtype=complex)
    out[:rows, :cols] = v
    out[rows:, cols:] = v
    return out


@dataclass
class ResolventMatrix:
    """The resolvent matrix polynomials and their cached Hankel data.

    ``theta`` and ``theta_tilde`` are 2q x 2q matrix polynomials of
    degree at most n + 1; ``U``/``U_tilde`` are the unimodular factors
    and ``B``/``B_tilde`` the constant J-unitary factors with
    theta = U B and theta_tilde = U_tilde B_tilde.  ``data`` is the
    :class:`HankelData` the resolvent was built from; gating a pair
    against the same sequence reads its factorizations, and every
    tolerance is that of ``data.seq``.
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
    data: HankelData
    self_check: dict = field(default_factory=dict)

    def block(self, i, j, tilde=False):
        """Block (i, j) of theta (or theta tilde) as a q x q polynomial."""
        q = self.q
        src = self.theta_tilde if tilde else self.theta
        sel_l = np.zeros((q, 2 * q), dtype=complex)
        sel_l[:, i * q:(i + 1) * q] = np.eye(q)
        sel_r = np.zeros((2 * q, q), dtype=complex)
        sel_r[j * q:(j + 1) * q, :] = np.eye(q)
        return src.sandwich(sel_l, sel_r)


def build_resolvent(seq, n):
    """Construct the resolvent matrix polynomial pair for level n.

    Requires the sequence to be Stieltjes-extendable (class K>=e) with
    2n + 1 <= m.  The generalized inverses H^- and Hs^- are taken with
    range equal to the canonical block-diagonal ladder subspaces.
    ``seq`` may be its :class:`HankelData`; the result keeps it.
    """
    data = hankel_data(seq)
    data.check_level(n, shifted=True)
    seq = data.seq
    if not data.in_Kgeq_e():
        raise ValueError("sequence is not Stieltjes-extendable (not in K>=e)")
    q = seq.q
    H, Hs = data.H[n], data.Hs[n]
    D, Ds = dubovoj_candidates(data, n)
    Hm = one_two_inverse(H, D, data.factor(n).rank, seq.tol)
    Hsm = one_two_inverse(Hs, Ds, data.factor(n, True).rank, seq.tol)
    T, v = shift_matrix(q, n), first_column_embedding(q, n)
    p = (n + 1) * q
    eye = np.eye(p, dtype=complex)
    Ralpha = shift_resolvent(q, n, seq.alpha)
    Rinv = eye - seq.alpha * T

    RTs = resolvent_poly(q, n, adjoint=True)
    I2v = _kron2(v)

    # Omega(z) = [[(z-a)T*, Rinv*], [-(z-a)I, -(z-a)I]] (I_2 (x) R_{T*}(z))
    def omega(tilde):
        zero = np.zeros((p, p), dtype=complex)
        if not tilde:
            const = np.block([[zero, Rinv.conj().T], [zero, zero]])
            lin = np.block([[T.conj().T, zero], [-eye, -eye]])
        else:
            const = np.block([[zero, zero], [-eye, zero]])
            lin = np.block([[T.conj().T, Rinv.conj().T], [zero, -eye]])
        base = MatrixPolynomial([const - seq.alpha * lin, lin])
        big_RTs = MatrixPolynomial(
            [np.block([[c, np.zeros_like(c)], [np.zeros_like(c), c]])
             for c in RTs.coeffs])
        return base @ big_RTs

    CL = I2v.conj().T @ np.block(
        [[H, np.zeros((p, p), dtype=complex)],
         [np.zeros((p, p), dtype=complex), eye]])
    CR = np.block(
        [[Hm @ Ralpha, np.zeros((p, p), dtype=complex)],
         [np.zeros((p, p), dtype=complex), Hsm @ H]]) @ I2v
    eye2q = MatrixPolynomial.constant(np.eye(2 * q, dtype=complex))
    theta = eye2q + omega(False).sandwich(CL, CR)
    theta_tilde = eye2q + omega(True).sandwich(CL, CR)

    # U = I + (z - a) M1* R_{T*}(z) M2 and the tilde analogue.
    def u_factor(tilde):
        if not tilde:
            left = np.hstack([T @ H, -eye]) @ I2v
            right = Hm @ Ralpha @ np.hstack([eye, T @ H]) @ I2v
        else:
            RinvH = Rinv @ H
            left = np.hstack([RinvH, -eye]) @ I2v
            right = Hsm @ Ralpha @ np.hstack([eye, RinvH]) @ I2v
        mid = RTs.sandwich(left.conj().T, right)
        return eye2q + mid.times_linear(-seq.alpha, 1.0)

    U = u_factor(False)
    U_tilde = u_factor(True)

    eye_q = np.eye(q, dtype=complex)
    zq = np.zeros((q, q), dtype=complex)
    RTs_alpha = Ralpha.conj().T
    B = np.block([[eye_q, v.conj().T @ H @ Hsm @ H @ v], [zq, eye_q]])
    B_tilde = np.block(
        [[eye_q, zq],
         [-v.conj().T @ RTs_alpha @ Hm @ Ralpha @ v, eye_q]])

    R = ResolventMatrix(
        n=n, q=q, alpha=seq.alpha, theta=theta, theta_tilde=theta_tilde,
        U=U, U_tilde=U_tilde, B=B, B_tilde=B_tilde, H=H, Hs=Hs, Hm=Hm,
        Hsm=Hsm, T=T, v=v, Ralpha=Ralpha, data=data)
    R.self_check = _self_check(R)
    return R


def _self_check(R):
    """Residuals of the built-in consistency identities."""
    ub = R.U @ MatrixPolynomial.constant(R.B)
    utb = R.U_tilde @ MatrixPolynomial.constant(R.B_tilde)
    nmax = max(len(R.theta.coeffs), len(ub.coeffs))
    res_fact = max(
        np.linalg.norm(a - c)
        for a, c in zip(R.theta._padded(nmax), ub._padded(nmax)))
    nmax = max(len(R.theta_tilde.coeffs), len(utb.coeffs))
    res_fact_t = max(
        np.linalg.norm(a - c)
        for a, c in zip(R.theta_tilde._padded(nmax), utb._padded(nmax)))
    # scaling identity theta_tilde = diag((z-a)I, I) theta diag((z-a)^{-1}I, I)
    res_scale = 0.0
    q = R.q
    for z in (R.alpha + 1.3 + 0.7j, R.alpha - 2.0 + 1j, R.alpha + 0.5 - 2j):
        d1 = np.diag(np.concatenate(
            [np.full(q, z - R.alpha), np.ones(q)])).astype(complex)
        d2 = np.diag(np.concatenate(
            [np.full(q, 1.0 / (z - R.alpha)), np.ones(q)])).astype(complex)
        res_scale = max(res_scale, np.linalg.norm(
            R.theta_tilde(z) - d1 @ R.theta(z) @ d2))
    return {"theta_minus_UB": res_fact,
            "theta_tilde_minus_UtBt": res_fact_t,
            "scaling_identity": res_scale}


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
    p = R.H.shape[0]
    eye = np.eye(p, dtype=complex)
    I2v = _kron2(R.v)
    T, H, Hs = R.T, R.H, R.Hs
    Ra = R.Ralpha
    Rinv = eye - R.alpha * T
    RinvH = Rinv @ H
    q, n = R.q, R.n

    tilde = variant.endswith("tilde")
    Hm = R.Hsm if tilde else R.Hm
    left_mat = (np.hstack([RinvH, -eye]) if tilde
                else np.hstack([T @ H, -eye])) @ I2v
    pair_mat = (np.hstack([eye, RinvH]) if tilde
                else np.hstack([eye, T @ H])) @ I2v

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
