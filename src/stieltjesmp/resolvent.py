"""The 2q x 2q resolvent matrix polynomial.

Provides matrix polynomials as coefficient stacks, evaluated as one
product with the powers of z, and builds the polynomials Theta and
Theta-tilde whose linear fractional transformations parametrize the
solution set of the truncated half-line moment problem, with the
residual of Theta's J-form identity recorded on each build.  Every
product of the construction with the block shift T_{q,n} or with the
adjoint resolvent R_{T*}(z) is read from the stack T^j x of
``momentseq.shift_stack``, and R_T(alpha) v from its closed form
``momentseq.resolvent_column``; every product with the reflexive
inverse of H_n or Hs_n comes from one solve with its canonical range
basis, read from the null spaces of the Hankel factors, and neither
inverse is formed.  The factorization Theta = U B, the other J-form
identities and the kernel polynomials that the tests check Theta
against, with the coefficient arithmetic they need, live in
``tests/identities.py``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .momentseq import HankelData, dubovoj_candidates, resolvent_column, \
    shift_stack

# Relative size below which ``trimmed_degree`` counts a coefficient as zero.
_TRIM_TOL = 1e-12

# The point pair (z, w), as offsets from alpha, of the J-form residual.
_J_PAIR = np.array([1.3 + 0.7j, -2.0 + 1j])


class MatrixPolynomial:
    """A polynomial with matrix coefficients, ascending degree:
    ``coeffs`` is a C-contiguous (d + 1, r, c) array whose row j is the
    coefficient of z^j, and ``shape`` is (r, c).  The exponents 0..d and
    the flat (d + 1, r c) view it keeps serve ``eval`` and S(z) at a point."""

    def __init__(self, coeffs):
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.ndim != 3:
            raise ValueError("coefficients must be matrices of one shape")
        if not len(coeffs):
            raise ValueError("need at least one coefficient")
        self.coeffs = coeffs
        self.shape = coeffs.shape[1:]
        self._exps = np.arange(len(coeffs))
        self._flat = coeffs.reshape(len(coeffs), -1)

    def trimmed_degree(self):
        norms = np.linalg.norm(self.coeffs, axis=(1, 2))
        nonzero = np.flatnonzero(norms > _TRIM_TOL * (norms.max() + 1.0))
        return int(nonzero[-1]) if nonzero.size else 0

    def eval(self, z):
        """The value at a complex point (an r x c matrix) or at an array
        of points (a z.shape + (r, c) stack): one product of the powers
        z^j with the coefficients."""
        z = np.asarray(z, dtype=complex)
        out = (z[..., None] ** self._exps) @ self._flat
        return out.reshape(z.shape + self.shape)

    def __call__(self, z):
        return self.eval(z)


def _times_linear(coeffs, c0, c1):
    """Coefficients of (c0 + c1 z) p(z) from a (d + 1, r, c) stack of p."""
    out = np.zeros((len(coeffs) + 1,) + coeffs.shape[1:], dtype=complex)
    out[:-1] = c0 * coeffs
    out[1:] += c1 * coeffs
    return out


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
    degree at most n + 1, built from the reflexive inverses of H_n and
    Hs_n with the canonical ranges, of which the build solves for the
    two block columns it reads and keeps neither.  ``self_check`` holds
    ``j_form``, the relative residual of theta's J-form identity at one
    point pair (:func:`_self_check`).  The three are shared through the
    Hankel data's memo with every resolvent of level n: do not mutate them.
    ``data``, the Hankel data of the sequence, lives while the resolvent
    does, so later calls on the sequence read its factorizations (H_n
    is ``data.H[n]``, Hs_n is ``data.shift.H[n]``); every tolerance is
    that of ``data.seq``.
    """

    n: int
    q: int
    alpha: float
    theta: MatrixPolynomial
    theta_tilde: MatrixPolynomial
    self_check: dict
    data: HankelData = field(repr=False, compare=False)


def build_resolvent(seq, n):
    """Construct the resolvent matrix polynomial pair for level n.

    Requires the sequence to be Stieltjes-extendable (class K>=e) with
    2n + 1 <= m.  The generalized inverses H^- and Hs^- are taken with
    range equal to the canonical block-diagonal (Dubovoj) subspaces
    range diag(L_0, ..., L_n) of ``dubovoj_candidates``.  The
    parts of the build, theta, theta-tilde and the self-check, are kept
    in the memo of the sequence's Hankel data, which the result holds:
    while the data lives, each call wraps the same parts in a new
    resolvent and builds nothing again.
    """
    data = seq.hankel()
    return ResolventMatrix(n, seq.q, seq.alpha, *data._once(
        ("resolvent", n), lambda: _build_resolvent(data, n)), data)


def _build_resolvent(data, n):
    seq = data.seq
    data.check_level(n, shifted=True)
    if not data.in_Kgeq_e():
        raise ValueError("sequence is not Stieltjes-extendable (not in K>=e)")
    q, tol, alpha = seq.q, seq.tol, seq.alpha
    H, Hs = data.H[n], data.shift.H[n]
    D, Ds = dubovoj_candidates(seq, n)
    v = np.eye(H.shape[0], q)                # col(I_q, 0, ..., 0)
    Hv = H[:, :q]
    X = shift_stack(Hv, q)[1] if n else np.zeros_like(Hv)   # T H v
    Xt = Hv - alpha * X                      # (I - aT) H v
    # With L = [X, Xt, v], the stack T^j L gives the coefficients
    # (T^j L)* M of L* R_{T*}(z) M.
    TL = shift_stack(np.hstack([X, Xt, v]), q)
    # R_T(conj z) [X, -v] and R_T(conj w) [X, -v] at the J-form pair.
    z, w = alpha + _J_PAIR
    TLv = np.concatenate([TL[..., :q], -TL[..., 2 * q:]], axis=-1)
    Lz, Lw = MatrixPolynomial(TLv)(np.conj([z, w]))
    # H^- [R_T(a) v, Lw] and Hs^- H v, for the reflexive inverses with
    # the canonical ranges D and Ds, one solve each.
    HmRav, HmLw = np.split(_reflexive_solve(
        H, D, data.factor(n), np.hstack([resolvent_column(alpha, q, n), Lw]),
        tol), [q], axis=1)
    HsmHv = _reflexive_solve(Hs, Ds, data.shift.factor(n), Hv, tol)

    # Theta = I + C_L Omega(z) C_R with C_L = diag(v* H, v*),
    # C_R = diag(H^- Ra v, Hs^- H v) and, for R = R_{T*}(z) and d = z - a,
    #   Omega  = [[d T*, (I - aT)*], [-d I, -d I]] diag(R, R),
    #   Omega~ = [[d T*, d (I - aT)*], [-I, -d I]] diag(R, R).
    # Term by term, with K = L* R [H^- Ra v, Hs^- H v] in q x q blocks
    # K_ij (rows i = 1, 2, 3, columns j = a, b):
    #   Theta  = I + [[d K_1a, K_2b], [-d K_3a, -d K_3b]],
    #   Theta~ = I + [[d K_1a, d K_2b], [-K_3a, -d K_3b]].
    K = TL.conj().transpose(0, 2, 1) @ np.hstack([HmRav, HsmHv])
    zK = _times_linear(K, -alpha, 1.0)               # (z - a) K
    K = np.concatenate([K, np.zeros_like(K[:1])])    # to the degree of zK
    (_, K2, K3), (zK1, zK2, zK3) = np.split(K, 3, 1), np.split(zK, 3, 1)
    a, b = np.s_[..., :q], np.s_[..., q:]
    theta = _identity_plus([[zK1[a], K2[b]], [-zK3[a], -zK3[b]]])
    theta_tilde = _identity_plus([[zK1[a], zK2[b]], [-K3[a], -zK3[b]]])
    return theta, theta_tilde, _self_check(theta, alpha, Lz.conj().T @ HmLw)


def _reflexive_solve(A, B, factor, b, tol):
    """X b for the reflexive inverse X = B (B* A B)^-1 B* of a Hermitian
    PSD ``A`` with range(X) = range(B) and null(X) = range(B)-perp, by one
    solve; X itself is not formed.  ``B`` has orthonormal columns and
    ``factor`` is A's :class:`~stieltjesmp.matcore.HermitianFactor`.  X
    exists when null(A) (+) range(B) = C^p: B has rank A columns and
    sigma_max(N* B) < 1 - tol_rank for A's null basis N (no principal
    angle vanishes); otherwise ``ValueError``."""
    if B.shape[1] != factor.rank:
        raise ValueError(f"dim U = {B.shape[1]} is not rank A = "
                         f"{factor.rank}")
    if factor.rank == len(A):       # X = A^-1; B = I on a definite ladder
        return np.linalg.solve(A, b)
    cos = np.linalg.svd(factor.null.conj().T @ B, compute_uv=False)
    if np.max(cos, initial=0.0) >= 1.0 - tol.tol_rank:
        raise ValueError("direct-sum condition violated: U meets null(A)")
    Bh = B.conj().T
    return B @ np.linalg.solve(Bh @ A @ B, Bh @ b)


def _identity_plus(blocks):
    """I + [[b00, b01], [b10, b11]] as a polynomial, from a nested list
    of coefficient stacks of one length."""
    coeffs = np.concatenate([np.concatenate(row, 2) for row in blocks], 1)
    coeffs[0] += np.eye(coeffs.shape[1])
    return MatrixPolynomial(coeffs)


def _self_check(theta, alpha, LHL):
    """The residual ``j_form`` of the J-form identity of the 2q x 2q
    polynomial ``theta``

        Jt - theta(z) Jt theta(w)*
            = -i (z - conj w) L* R_{T*}(z) H^- R_T(conj w) L,

    Jt = [[0, -iI], [iI, 0]] and L = [T H v, -v], at the point pair
    alpha + ``_J_PAIR``, relative to 1 + |theta(z)|_F |theta(w)|_F.
    ``LHL`` is the 2q x 2q product L* R_{T*}(z) H^- R_T(conj w) L, which
    the build reads from its solve with H."""
    q = theta.shape[0] // 2
    z, w = alpha + _J_PAIR
    rhs = -1j * (z - np.conj(w)) * LHL
    J = 1j * (np.eye(2 * q, k=-q) - np.eye(2 * q, k=q))
    th_z, th_w = theta([z, w])
    lhs = J - th_z @ J @ th_w.conj().T
    scale = 1.0 + np.linalg.norm(th_z) * np.linalg.norm(th_w)
    return {"j_form": float(np.linalg.norm(lhs - rhs) / scale)}


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
