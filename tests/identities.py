"""The paper's identity oracles, kept apart from the production path.

Each function here assembles both sides of an identity of the paper, or
tests a defining property of an object, independently of how the
package computes it, and the tests hold the library to it.  Nothing in
``stieltjesmp`` calls these functions.
"""

import mpmath
import numpy as np

from stieltjesmp.matcore import DEFAULT_TOL, _fro, _rank, _significant, \
    as_matrix, hermitize
from stieltjesmp.momentseq import MomentSequence, canonical_extension, \
    dubovoj_candidates, shift_right, stack_y
from stieltjesmp.potapov import _IM_GUARD, _coupling
from stieltjesmp.resolvent import MatrixPolynomial, _times_linear, \
    standard_grid
from stieltjesmp.stieltjespairs import AtomicMeasure, transform


def block_hankel_by_blocks(s, n):
    """Block Hankel matrix [s_{j+k}]_{j,k=0}^{n} of a moment stack ``s``,
    assembled block by block: the reference for
    ``momentseq.block_hankel``."""
    q = s.shape[-1]
    H = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            H[j * q:(j + 1) * q, k * q:(k + 1) * q] = s[j + k]
    return H


def is_hermitian(A, tol=DEFAULT_TOL):
    """True iff ``A`` is square and Hermitian within ``tol.tol_herm``."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        return False
    scale = 1.0 + np.linalg.norm(A)
    return np.linalg.norm(A - A.conj().T) <= tol.tol_herm * scale


def is_psd(A, tol=DEFAULT_TOL):
    """True iff ``A`` is Hermitian and positive semidefinite within tol.

    The test is ``|A - A*| <= tol_herm * (1 + |A|)`` together with
    ``lambda_min((A + A*)/2) >= -tol_psd * (1 + |A|)``.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("is_psd needs a square matrix")
    if A.shape[0] == 0:
        return True
    scale = 1.0 + np.linalg.norm(A)
    if np.linalg.norm(A - A.conj().T) > tol.tol_herm * scale:
        return False
    w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
    return w.min() >= -tol.tol_psd * scale


def mrank(A, tol=DEFAULT_TOL):
    """Numerical rank: number of singular values above tol_rank * sigma_max."""
    return _rank(np.linalg.svd(as_matrix(A), compute_uv=False), tol)


def right_divide_three_norms(num, den, tol=DEFAULT_TOL):
    """The earlier form of ``matcore.right_divide``, kept as its
    reference: num den^-1 of square matrices or stacks, and where
    sigma_min(den) > tol_rank |[num; den]|_F, the norm read as the
    ``hypot`` of the norms of num and den and sigma_min as
    1 / |den^-1|_F.  An exactly singular den has a NaN quotient."""
    try:
        inv = np.linalg.inv(den)
    except np.linalg.LinAlgError:       # one singular den fails a stack
        if den.ndim == 2:
            return np.full_like(num, np.nan), np.False_
        out = [right_divide_three_norms(a, b, tol)
               for a, b in zip(num, den)]
        return tuple(np.array(x) for x in zip(*out))
    fro = [_fro(a) for a in (num, den, inv)]
    return num @ inv, _significant(1.0 / fro[2], tol, np.hypot(*fro[:2]))


def pseudo_inverse(A, tol=DEFAULT_TOL):
    """Moore-Penrose inverse with singular values cut at tol_rank * sigma_max."""
    A = as_matrix(A)
    if A.size == 0:
        return A.conj().T.copy()
    return np.linalg.pinv(A, rcond=tol.tol_rank)


def range_included(B, A, tol=DEFAULT_TOL):
    """True iff the column space of ``A`` is contained in that of ``B``.

    Implemented as ``|A - B B^+ A| <= tol_identity * (1 + |A|)``.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError("range_included needs matching row counts")
    resid = A - B @ (pseudo_inverse(B, tol) @ A)
    return np.linalg.norm(resid) <= tol.tol_identity * (1.0 + np.linalg.norm(A))


def null_space(A, tol=DEFAULT_TOL):
    """Orthonormal basis of the null space of ``A``, one column per
    dimension."""
    A = as_matrix(A)
    if A.size == 0:
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A)
    return vh[_rank(s, tol):].conj().T


def one_two_inverse(A, U, factor, tol=DEFAULT_TOL):
    """Reflexive generalized inverse of Hermitian PSD ``A`` with range and
    null space prescribed by the subspace with orthonormal basis ``U``
    and its orthocomplement.

    Returns the unique X with A X A = A, X A X = X, range(X) = range(U)
    and null(X) = range(U)-perp, formed explicitly as
    ``U (U* A U)^{-1} U*``: the reference for the build's solves.  Valid
    when ``null(A) (+) range(U) = C^p``, read from ``factor``, A's
    ``HermitianFactor``: U has rank A columns and sigma_max(N* U) <
    1 - tol_rank for its null basis N (no principal angle vanishes).
    """
    A = hermitize(A, tol)
    if U.shape[0] != A.shape[0]:
        raise ValueError("subspace ambient dimension does not match matrix")
    if U.shape[1] != factor.rank:
        raise ValueError(f"dim U = {U.shape[1]} is not rank A = "
                         f"{factor.rank}")
    cos = np.linalg.svd(factor.null.conj().T @ U, compute_uv=False)
    if np.max(cos, initial=0.0) >= 1.0 - tol.tol_rank:
        raise ValueError("direct-sum condition violated: U meets null(A)")
    X = U @ np.linalg.inv(U.conj().T @ A @ U) @ U.conj().T
    return 0.5 * (X + X.conj().T)


def reflexive_inverses(R):
    """(H^-, Hs^-): the reflexive inverses of H_n and Hs_n with the
    canonical ranges that the resolvent R is built from, formed by
    :func:`one_two_inverse`."""
    data, n = R.data, R.n
    D, Ds = dubovoj_candidates(data.seq, n)
    return (one_two_inverse(data.H[n], D, data.factor(n), data.seq.tol),
            one_two_inverse(data.shift.H[n], Ds, data.shift.factor(n),
                            data.seq.tol))


def is_dubovoj(D, H, T, tol=DEFAULT_TOL):
    """Check the two defining conditions of an invariant complement.

    True iff T*(D) is contained in D and null(H) (+) D = C^p, checked as
    ``|(I - P_D) T* P_D| <= tol_identity * (1 + |T|)`` plus a dimension
    and full-rank test on the stacked bases.
    """
    H = as_matrix(H)
    T = as_matrix(T)
    p = D.shape[0]
    if H.shape != (p, p) or T.shape != (p, p):
        raise ValueError("H and T must be square of the ambient dimension")
    P = D @ D.conj().T
    invariant = np.linalg.norm((np.eye(p) - P) @ T.conj().T @ P) \
        <= tol.tol_identity * (1.0 + np.linalg.norm(T))
    N = null_space(H, tol)
    if N.shape[1] + D.shape[1] != p:
        return False
    direct = (mrank(np.hstack([N, D]), tol) == p) if p else True
    return bool(invariant and direct)


def schur_ladder(data):
    """Schur complements L_k = s_2k - z_{k,2k-1} H_{k-1}^+ y_{k,2k-1} of
    H_{k-1} in H_k, one per level of the Hankel data ``data``, formed
    with the Moore-Penrose inverse of each H_{k-1}: the blocks whose
    ranges span the Dubovoj subspace."""
    s = data.seq.moments
    out = [s[0].copy()]
    for k in range(1, len(data.H)):
        y = stack_y(s, k, 2 * k - 1)
        out.append(s[2 * k] - y.conj().T @ data.factor(k - 1).pinv() @ y)
    return out


def ladder_ranks(data):
    """rank H_k - rank H_{k-1} per level k of ``data``: the rank of L_k
    when H_k is PSD."""
    return np.diff([mrank(H, data.seq.tol) for H in data.H],
                   prepend=0).tolist()


def ladder_basis(L, ranks):
    """Orthonormal basis of range(diag(L_0, ..., L_n)) from the ladder
    blocks ``L``, an (n + 1) q x sum(ranks) array: block j contributes
    its ``ranks[j]`` leading left singular vectors.  The reference for
    ``momentseq.dubovoj_candidates``, which reads the same subspace from
    the null spaces of the Hankel factors."""
    blocks = [as_matrix(Lj) for Lj in L]
    q = blocks[0].shape[0] if blocks else 0
    if not blocks or any(Lj.shape != (q, q) for Lj in blocks) or \
            len(ranks) != len(blocks) or not all(0 <= r <= q for r in ranks):
        raise ValueError(f"need q x q ladder blocks with one rank in 0..q "
                         f"each, got ranks {list(ranks)}")
    basis = np.zeros((len(blocks) * q, sum(ranks)), dtype=complex)
    col = 0
    for j, (Lj, r) in enumerate(zip(blocks, ranks)):
        basis[j * q:(j + 1) * q, col:col + r] = np.linalg.svd(Lj)[0][:, :r]
        col += r
    return basis


def projector_distance(A, B):
    """Spectral-norm distance between the orthogonal projectors onto the
    column spaces of the orthonormal bases ``A`` and ``B``."""
    if A.shape != B.shape:
        return np.inf
    P = A @ A.conj().T - B @ B.conj().T
    return np.linalg.norm(P, 2) if P.size else 0.0


def extended(seq):
    """New sequence with the canonical extension appended."""
    return MomentSequence(seq.alpha, seq.q,
                          [*seq.moments, canonical_extension(seq)], seq.tol)


class Poly(MatrixPolynomial):
    """A :class:`MatrixPolynomial` with exact coefficient arithmetic;
    each result is a ``Poly`` again, and a matrix operand is a
    constant."""

    @classmethod
    def constant(cls, A):
        return cls(np.asarray(A, dtype=complex)[None])

    def __add__(self, other):
        other = _coerce(other)
        if other.shape != self.shape:
            raise ValueError("polynomial shapes differ")
        out = np.zeros((max(len(self.coeffs), len(other.coeffs)),)
                       + self.shape, dtype=complex)
        out[:len(self.coeffs)] += self.coeffs
        out[:len(other.coeffs)] += other.coeffs
        return Poly(out)

    def __sub__(self, other):
        return self + Poly(-_coerce(other).coeffs)

    def __matmul__(self, other):
        a, b = self.coeffs, _coerce(other).coeffs
        if a.shape[2] != b.shape[1]:
            raise ValueError("polynomial shapes do not chain")
        out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]),
                       dtype=complex)
        # coefficient j + k collects a_j b_k
        np.add.at(out, np.add.outer(np.arange(len(a)), np.arange(len(b))),
                  a[:, None] @ b[None])
        return Poly(out)

    def times_linear(self, c0, c1):
        """Multiply by the scalar polynomial c0 + c1 z."""
        return Poly(_times_linear(self.coeffs, c0, c1))

    def sandwich(self, L, R):
        """Constant congruence L @ p(z) @ R, allowing rectangular L, R."""
        return Poly(np.asarray(L, dtype=complex) @ self.coeffs
                    @ np.asarray(R, dtype=complex))


def horner(coeffs, z):
    """sum_j z^j C_j of a (d + 1, r, c) coefficient stack by Horner's
    scheme, at a point or an array of points, each step updating one
    output array in place: the reference for ``MatrixPolynomial.eval``."""
    z = np.asarray(z, dtype=complex)[..., None, None]
    out = np.empty(z.shape[:-2] + coeffs.shape[1:], dtype=complex)
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= z
        out += c
    return out


def _coerce(x):
    """``x`` as a polynomial; a matrix is a constant."""
    return x if isinstance(x, MatrixPolynomial) else Poly.constant(x)


def shift_matrix(q, n):
    """Block shift T_{q,n} = [delta_{j,k+1} I_q], nilpotent of order n+1."""
    T = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(1, n + 1):
        T[j * q:(j + 1) * q, (j - 1) * q:j * q] = np.eye(q)
    return T


def shift_resolvent(q, n, z):
    """R_T(z) = (I - zT)^{-1} = sum_j z^j T^j for T = T_{q,n}: the block
    Toeplitz matrix with z^j I_q on its j-th block subdiagonal.  T is
    real, so R_{T*}(z) is its transpose."""
    p = (n + 1) * q
    R = np.zeros((p, p), dtype=complex)
    idx = np.arange(p)
    zj = 1.0
    for j in range(n + 1):
        R[idx[j * q:], idx[:p - j * q]] = zj
        zj = zj * z
    return R


def first_column_embedding(q, n):
    """v_{q,n} = col(delta_{j,0} I_q), the first block column of I."""
    v = np.zeros(((n + 1) * q, q), dtype=complex)
    v[:q, :] = np.eye(q)
    return v


def resolvent_poly(q, n):
    """R_{T*}(z) = sum_{j=0}^n z^j (T*)^j as a matrix polynomial, the
    adjoint-shift resolvent satisfying R_{T*}(z) = [R_T(conj z)]*.

    T is real, so its value at one point is the transpose of
    ``shift_resolvent(q, n, z)``.  The coefficient (T*)^j =
    kron(eye(n + 1, k=j), I_q) is the identity shifted up by j blocks.
    """
    p = (n + 1) * q
    return MatrixPolynomial([np.eye(p, k=q * j) for j in range(n + 1)])


def shift_resolvent_poly(q, n):
    """R_T(z) = sum_{j=0}^n z^j T^j as a polynomial: T is real, so its
    coefficients are the transposed ones of ``resolvent_poly``'s
    R_{T*}(z)."""
    return Poly(np.swapaxes(resolvent_poly(q, n).coeffs, -1, -2))


def signature_matrix(q):
    """Jt = [[0, -iI_q], [iI_q, 0]]."""
    z = np.zeros((q, q), dtype=complex)
    eye = np.eye(q, dtype=complex)
    return np.block([[z, -1j * eye], [1j * eye, z]])


def theta_inverse(R, z, tilde=False):
    """Inverse of theta(z) through the J-symmetry Jt theta*(conj z) Jt."""
    J = signature_matrix(R.q)
    th_bar = (R.theta_tilde if tilde else R.theta)(np.conj(z))
    return J @ th_bar.conj().T @ J


def pair_of_solution(R, values, z):
    """The column [phi; psi](z) = Theta(z)^-1 [S(z); I] of the pair whose
    transformation gives the solution of value ``values`` = S(z) at z:
    the LFT read backwards, with the J-symmetry inverse of Theta."""
    return theta_inverse(R, z) @ np.vstack([values, np.eye(R.q)])


def ub_factors(R, tilde=False):
    """The factors of theta = U B (of theta-tilde = U~ B~ with ``tilde``),
    assembled from the dense T, v and R_T(alpha):

        U  = I + (z - a) [X, -v]* R_{T*}(z) G R_T(a) [v, X],
        B  = [[I, v* H Hs^- H v], [0, I]],
        B~ = [[I, 0], [-v* R_T(a)* H^- R_T(a) v, I]],

    with X = T H v and G = H^- for theta, X = (I - aT) H v and G = Hs^-
    for theta-tilde.  U is a matrix polynomial, B a constant J-unitary
    matrix."""
    q, n, a = R.q, R.n, R.alpha
    T, v = shift_matrix(q, n), first_column_embedding(q, n)
    H = R.data.H[n]
    Rav = shift_resolvent(q, n, a) @ v
    X = ((np.eye(len(T)) - a * T) if tilde else T) @ H @ v
    Hm, Hsm = reflexive_inverses(R)
    G = Hsm if tilde else Hm
    U = Poly.constant(np.eye(2 * q)) + Poly(resolvent_poly(q, n).coeffs) \
        .sandwich(np.hstack([X, -v]).conj().T,
                  G @ np.hstack([Rav, shift_resolvent(q, n, a) @ X])) \
        .times_linear(-a, 1.0)
    B = np.eye(2 * q, dtype=complex)
    if tilde:
        B[q:, :q] = -Rav.conj().T @ Hm @ Rav
    else:
        B[:q, q:] = (H @ v).conj().T @ Hsm @ H @ v
    return U, B


def ub_residual(R, tilde=False):
    """max_j |theta_j - (U B)_j|_F over the coefficients, relative to 1 +
    the largest |theta_j|_F, for the factors of :func:`ub_factors`."""
    theta = R.theta_tilde if tilde else R.theta
    U, B = ub_factors(R, tilde)
    norms = np.linalg.norm(theta.coeffs, axis=(-2, -1))
    diff = np.linalg.norm(theta.coeffs - U.coeffs @ B, axis=(-2, -1))
    return float(diff.max() / (1.0 + norms.max()))


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
    q, n = R.q, R.n
    T, v = shift_matrix(q, n), first_column_embedding(q, n)
    H, Hs = R.data.H[n], R.data.shift.H[n]
    Ra = shift_resolvent(q, n, R.alpha)
    Rinv = np.eye(H.shape[0], dtype=complex) - R.alpha * T

    tilde = variant.endswith("tilde")
    theta = R.theta_tilde if tilde else R.theta
    Hm = reflexive_inverses(R)[1 if tilde else 0]
    X = (Rinv if tilde else T) @ H @ v
    left_mat, pair_mat = np.hstack([X, -v]), np.hstack([v, X])

    if variant in ("theta", "theta_tilde"):
        th_z, th_w = theta(z), theta(w)
        lhs = J - th_z @ J @ th_w.conj().T
        rhs = -1j * (z - np.conj(w)) * (
            left_mat.conj().T @ shift_resolvent(q, n, z).T @ Hm
            @ shift_resolvent(q, n, w).conj() @ left_mat)
        return lhs, rhs

    if variant in ("adjoint", "adjoint_tilde"):
        th_z, th_w = theta(z), theta(w)
        Bc = ub_factors(R, tilde)[1]
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


def exact_canonical_S(seq, n, z):
    """The canonical solution S(z) = Theta12(z) Theta22(z)^-1 of the pair
    (0, I) on non-degenerate data, to 60 digits, taking the float
    moments as exact: Theta = I + C_L Omega(z) C_R assembled densely in
    mpmath, with C_L = diag(v* H, v*), C_R = diag(H^-1 R_T(a) v,
    Hs^-1 H v), exact inverses of the positive definite H_n and Hs_n,
    and, for R = R_{T*}(z) and d = z - a,
    Omega = [[d T*, (I - aT)*], [-d I, -d I]] diag(R, R)."""
    with mpmath.workdps(60):
        q, a, z = seq.q, mpmath.mpf(seq.alpha), mpmath.mpc(z)
        p = (n + 1) * q
        s = [mpmath.matrix(m.tolist()) for m in seq.moments]
        H, Hs = mpmath.zeros(p, p), mpmath.zeros(p, p)
        T, v, eye = mpmath.zeros(p, p), mpmath.zeros(p, q), mpmath.eye(p)
        for j in range(n + 1):
            for k in range(n + 1):
                for r in range(q):
                    for c in range(q):
                        H[j * q + r, k * q + c] = s[j + k][r, c]
                        Hs[j * q + r, k * q + c] = \
                            s[j + k + 1][r, c] - a * s[j + k][r, c]
        for r in range(q):
            v[r, r] = 1
            for j in range(1, n + 1):
                T[j * q + r, (j - 1) * q + r] = 1
        R, d = (eye - z * T.H) ** -1, z - a
        C_L = _mp_blocks([[v.H * H, None], [None, v.H]], q, p)
        C_R = _mp_blocks([[H ** -1 * (eye - a * T) ** -1 * v, None],
                          [None, Hs ** -1 * H * v]], p, q)
        Omega = _mp_blocks([[d * T.H * R, (eye - a * T).H * R],
                            [-d * R, -d * R]], p, p)
        theta = mpmath.eye(2 * q) + C_L * Omega * C_R
        S = theta[:q, q:] * theta[q:, q:] ** -1
        return np.array(S.tolist(), dtype=complex)


def exact_lft_value(R, pair, z):
    """S(z) of the solution for the resolvent R and the pair to 40
    digits, taking the float coefficients of Theta and the pair's B, E,
    gamma and atoms as exact: Theta(z) summed in mpmath, [phi; psi](z) =
    B + E f(z) [I_k, 0] with f(z) = gamma + sum M_i / (t_i - z), and the
    top half of their product right-divided by the bottom half."""
    def mp(a):
        return mpmath.matrix(np.asarray(a).tolist())

    with mpmath.workdps(40):
        q, z = R.q, mpmath.mpc(complex(z))
        theta = mpmath.zeros(2 * q, 2 * q)
        for j, c in enumerate(R.theta.coeffs):
            theta += z ** j * mp(c)
        col = mp(pair.B)
        if pair.f is not None:
            k = pair.f.q
            f = mpmath.zeros(k, k) if pair.f.gamma is None \
                else mp(pair.f.gamma)
            for t, M in pair.f.measure.atoms:
                f += mp(M) / (mpmath.mpf(t) - z)
            Ef = mp(pair.E) * f
            for i in range(2 * q):
                for j in range(k):
                    col[i, j] += Ef[i, j]
        N = theta * col
        S = N[:q, :] * N[q:, :] ** -1
        return np.array(S.tolist(), dtype=complex)


def _mp_blocks(blocks, r, c):
    """The 2r x 2c mpmath matrix of a 2 x 2 nested list of r x c blocks,
    None for a zero block."""
    out = mpmath.zeros(2 * r, 2 * c)
    for i, row in enumerate(blocks):
        for j, b in enumerate(row):
            if b is not None:
                out[i * r:(i + 1) * r, j * c:(j + 1) * c] = b
    return out


def kernel_polys(R):
    """The three kernel polynomials P, Q, S with value I at alpha.

    P(z) = I + (z - a)(I - H^+ H) T R_T(z) (I - H H^-) and the analogues
    built from the shifted Hankel matrix; their determinants vanish only
    on finite sets.
    """
    q, n = R.q, R.n
    H, Hs = R.data.H[n], R.data.shift.H[n]
    T, Ra = shift_matrix(q, n), shift_resolvent(q, n, R.alpha)
    eye = np.eye(H.shape[0], dtype=complex)
    Hp = R.data.factor(n).pinv()
    Hsp = R.data.shift.factor(n).pinv()
    PH = eye - Hp @ H
    PHs = eye - Hsp @ Hs
    Hm, Hsm = reflexive_inverses(R)
    QH = eye - H @ Hm
    QHs = eye - Hs @ Hsm
    RT = shift_resolvent_poly(q, n)
    Ppoly = Poly.constant(eye) + \
        RT.sandwich(PH @ T, QH).times_linear(-R.alpha, 1.0)
    Qpoly = Poly.constant(eye) + \
        RT.sandwich(PHs @ T, QHs).times_linear(-R.alpha, 1.0)
    Spoly = Poly.constant(eye) - \
        Poly.constant(PHs @ Ra @ T @ QHs).times_linear(-R.alpha, 1.0)
    return Ppoly, Qpoly, Spoly


def _off_real_axis(z):
    """Refuse points within ``_IM_GUARD`` of R, where the fundamental
    matrices are not defined."""
    if np.any(np.abs(np.imag(z)) < _IM_GUARD):
        raise ValueError("the fundamental matrices are only defined off R")


def _star(A):
    """A* of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(A, -1, -2))


def _z_minus_alpha_times(alpha, fz, z):
    """(z - alpha) f(z) at the points z (an array, 0-d for one point)."""
    return (z - alpha)[..., None, None] * fz


def _diagonal_block(g, z):
    """The diagonal block (g - g*) / (z - conj z) of P_2n[g] at the
    points z (an array, 0-d for one point)."""
    return (g - _star(g)) / (z - np.conj(z))[..., None, None]


def _norm_of_blocks(corner, col, diag):
    """||P||_F of P = [[H, c], [c*, d]] from the norms of its blocks,
    per point: sqrt(||H||^2 + 2 ||c||^2 + ||d||^2)."""
    return np.sqrt(corner ** 2 + 2.0 * _fro(col) ** 2 + _fro(diag) ** 2)


def _check_index(data, n, k):
    """Refuse a k outside {-1, 2n, 2n+1} and a level the sequence lacks."""
    if k not in (-1, 2 * n, 2 * n + 1):
        raise ValueError(f"index k = {k} does not match level n = {n}")
    data.check_level(n, shifted=(k == 2 * n + 1))


def conjugate_reflection(f):
    """The function z -> f(conj z)* of a matrix function f of a point, on
    the reflected domain."""
    return lambda z: f(np.conj(z)).conj().T


def monomial_stack(q, n, z):
    """E_{q,n}(z) = col(z^j I_q)_{j=0}^n; satisfies R_T(z) v = E(z)."""
    return np.vstack([(z ** j) * np.eye(q, dtype=complex)
                      for j in range(n + 1)])


def last_column_embedding(q, n):
    """vg_{q,n} = col(delta_{n-j,0} I_q), the last block column of I."""
    v = np.zeros(((n + 1) * q, q), dtype=complex)
    v[n * q:, :] = np.eye(q)
    return v


def fundamental_corner(seq, n, odd):
    """Hankel corner and coupling column of P_2n, (H_n, u_n), and of
    P_2n+1 (``odd``), (Hs_n, -alpha u_n - y_{0,n}), assembled from the
    definitions: H_n and Hs_n are the block Hankel matrices of the
    sequence and of its right-alpha-shifted sequence."""
    s = seq.moments
    u = -np.vstack([np.zeros_like(s[0]), stack_y(s, 0, n - 1)])
    if not odd:
        return block_hankel_by_blocks(s, n), u
    return block_hankel_by_blocks(shift_right(seq).moments, n), \
        -seq.alpha * u - stack_y(s, 0, n)


def _column_data(data, n, fz, z, odd):
    """Hankel corner, interior column R_T(z)(v g - c) and diagonal value
    of P_k at the points z (an array, 0-d for one point) from fz = f(z),
    with g = fz for k = 2n and g = (z - alpha) fz for k = 2n + 1
    (``odd``).  R_T(z) x is summed block by block, y_j = z y_{j-1} + x_j,
    for all points at once."""
    H, c = fundamental_corner(data.seq, n, odd)
    g = _z_minus_alpha_times(data.seq.alpha, fz, z) if odd else fz
    q = data.q
    y = np.broadcast_to(-c.reshape(n + 1, q, q),
                        z.shape + (n + 1, q, q)).copy()
    y[..., 0, :, :] += g
    zc = z[..., None, None]
    for j in range(1, n + 1):
        y[..., j, :, :] += zc * y[..., j - 1, :, :]
    return H, y.reshape(z.shape + c.shape), _diagonal_block(g, z)


def _fundamental(data, n, k, fz, z):
    """P_k at the points z from fz = f(z), one matrix per point."""
    if k == -1:
        return _diagonal_block(
            _z_minus_alpha_times(data.seq.alpha, fz, z), z)
    H, col, diag = _column_data(data, n, fz, z, odd=(k % 2 == 1))
    p = H.shape[0]
    P = np.empty(z.shape + (p + data.q, p + data.q), dtype=complex)
    P[..., :p, :p] = H
    P[..., :p, p:] = col
    np.conjugate(np.swapaxes(col, -1, -2), out=P[..., p:, :p])
    P[..., p:, p:] = diag
    return P


def potapov_matrix(seq, n, f, z, k):
    """The fundamental matrix P_k[f](z) for k in {-1, 2n, 2n+1}.

    For k = 2n the matrix couples H_n with R_T(z)(v f(z) - u_n); for
    k = 2n + 1 the shifted Hankel matrix with the (z - alpha)-weighted
    column; k = -1 gives the q x q endpoint block.
    """
    data = seq.hankel()
    z = complex(z)
    _off_real_axis(z)
    _check_index(data, n, k)
    return _fundamental(data, n, k, f(z), np.asarray(z))


def sigma_matrix(seq, n, f, z, k, ginverse=None):
    """Schur complement Sigma_k[f](z) of the Hankel corner of P_k.

    Uses the Moore-Penrose inverse, cut under ``seq.tol``, by default;
    ``ginverse`` substitutes any reflexive {1}-inverse of the Hankel
    corner (the value is invariant under that substitution whenever P_k
    is PSD).
    """
    data = seq.hankel()
    z = complex(z)
    _off_real_axis(z)
    _check_index(data, n, k)
    if k == -1:
        return potapov_matrix(seq, n, f, z, -1)
    odd = k % 2 == 1
    _, col, diag = _column_data(data, n, f(z), np.asarray(z), odd)
    Hinv = (data.shift if odd else data).factor(n).pinv() \
        if ginverse is None else ginverse
    return diag - col.conj().T @ Hinv @ col


def fq_matrices(seq, n, f, z, k):
    """The pair (F_k(z), Q_k[f](z)).

    F_2n(z) = H_n T* R_{T*}(z) + R_T(z)(v f(z) - u_n) v* R_{T*}(z) and
    the shifted analogue for odd k; Q_k stacks the Hankel corner with
    F_k and its imaginary part.
    """
    data = seq.hankel()
    z = complex(z)
    if k not in (2 * n, 2 * n + 1):
        raise ValueError(f"index k = {k} does not match level n = {n}")
    data.check_level(n, shifted=(k == 2 * n + 1))
    _off_real_axis(z)
    q = data.q
    H, col, _ = _column_data(data, n, f(z), np.asarray(z),
                             odd=(k % 2 == 1))
    RTs = shift_resolvent(q, n, z).T
    T = shift_matrix(q, n)
    v = first_column_embedding(q, n)
    F = H @ T.conj().T @ RTs + col @ v.conj().T @ RTs
    Q = np.block([[H, F], [F.conj().T, _diagonal_block(F, np.asarray(z))]])
    return F, Q


def psi_polynomial(seq, n, parity):
    """The Hermitian-on-R polynomial Psi_k for k = 2n (parity 0) or
    2n + 1 (parity 1).

    Psi_2n(z) = R_T(z)(H T* - u v* - z T H T*) R_{T*}(z), with the
    shifted Hankel matrix and coupling in the odd case.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    data = seq.hankel()
    data.check_level(n, shifted=(parity == 1))
    q = data.q
    H, c = fundamental_corner(seq, n, parity == 1)
    v = first_column_embedding(q, n)
    T = shift_matrix(q, n)
    mid = Poly([
        H @ T.conj().T - c @ v.conj().T,
        -T @ H @ T.conj().T,
    ])
    return shift_resolvent_poly(q, n) @ mid @ resolvent_poly(q, n)


def congruence_matrices(q, n, z):
    """The congruence factors (Gamma_k(z), Delta_k(z)) linking P and Q.

    Gamma maps Q to P via P = Gamma Q Gamma*; Delta maps back via
    Q = Delta P Delta*.  Both depend only on the parity-independent
    shift data.
    """
    T = shift_matrix(q, n)
    v = first_column_embedding(q, n)
    RTs_star = shift_resolvent(q, n, z).conj()
    p = (n + 1) * q
    gamma = np.block([
        [np.eye(p, dtype=complex), np.zeros((p, p), dtype=complex)],
        [-v.conj().T @ RTs_star @ T, v.conj().T],
    ])
    delta = np.block([
        [np.eye(p, dtype=complex), np.zeros((p, q), dtype=complex)],
        [RTs_star @ T, RTs_star @ v],
    ])
    return gamma, delta


def compression_embedding(q, n):
    """[v_{q,n+1}, vg_{q,n+1}]: picks the corner 2q x 2q compression."""
    return np.hstack([first_column_embedding(q, n + 1),
                      last_column_embedding(q, n + 1)])


def congruence_check(seq, n, f, z):
    """Residuals of the P/Q congruences, corner compressions, and the
    conjugate-reflection relation, each side assembled independently.

    Returns a dict of relative residual norms.
    """
    data = seq.hankel()     # held, so the checks below share it
    z = complex(z)
    _off_real_axis(z)
    q = seq.q
    out = {}
    gamma, delta = congruence_matrices(q, n, z)
    for k, key in ((2 * n, "even"), (2 * n + 1, "odd")):
        if k > seq.m:
            continue
        P = potapov_matrix(seq, n, f, z, k)
        _, Q = fq_matrices(seq, n, f, z, k)
        scale = 1.0 + np.linalg.norm(P)
        out[f"P_eq_gamma_Q_gamma_{key}"] = \
            np.linalg.norm(P - gamma @ Q @ gamma.conj().T) / scale
        out[f"Q_eq_delta_P_delta_{key}"] = \
            np.linalg.norm(Q - delta @ P @ delta.conj().T) / scale

    E = compression_embedding(q, n)
    fz = f(z)
    P = potapov_matrix(seq, n, f, z, 2 * n)
    target = np.block([
        [seq.moments[0], fz],
        [fz.conj().T, (fz - fz.conj().T) / (z - np.conj(z))]])
    out["compression_even"] = np.linalg.norm(
        E.conj().T @ P @ E - target) / (1.0 + np.linalg.norm(P))
    if 2 * n + 1 <= seq.m:
        P = potapov_matrix(seq, n, f, z, 2 * n + 1)
        g = (z - seq.alpha) * fz
        target = np.block([
            [-seq.alpha * seq.moments[0] + seq.moments[1], g + seq.moments[0]],
            [(g + seq.moments[0]).conj().T,
             (g - g.conj().T) / (z - np.conj(z))]])
        out["compression_odd"] = np.linalg.norm(
            E.conj().T @ P @ E - target) / (1.0 + np.linalg.norm(P))

    # conjugate reflection: P_k[f_refl](z) = X_k(z) P_k[f](conj z) X_k*(z)
    f_refl = conjugate_reflection(f)
    p = (n + 1) * q
    A = np.block([
        [np.eye(p) - np.conj(z) * shift_matrix(q, n),
         np.zeros((p, q), dtype=complex)],
        [np.zeros((q, p), dtype=complex), np.eye(q, dtype=complex)]])
    Bm = np.eye(p + q, dtype=complex)
    Bm[:p, p:] = (z - np.conj(z)) * first_column_embedding(q, n)
    C = np.block([
        [shift_resolvent(q, n, z), np.zeros((p, q), dtype=complex)],
        [np.zeros((q, p), dtype=complex), np.eye(q, dtype=complex)]])
    X = C @ Bm @ A
    for k, key in ((2 * n, "even"), (2 * n + 1, "odd")):
        if k > seq.m:
            continue
        lhs = potapov_matrix(seq, n, f_refl, z, k)
        rhs = X @ potapov_matrix(seq, n, f, np.conj(z), k) @ X.conj().T
        out[f"reflection_{key}"] = np.linalg.norm(lhs - rhs) / \
            (1.0 + np.linalg.norm(lhs))
    return out


def total_mass(mu):
    """The sum of the atom weights of ``mu``, its mass on [alpha, oo)."""
    out = np.zeros((mu.q, mu.q), dtype=complex)
    for _, M in mu.atoms:
        out = out + M
    return out


def transform_per_atom(mu, z):
    """S(z) = sum_k M_k / (t_k - z) summed atom by atom, at a point or an
    array of points, refusing no point: the reference for
    ``transform``."""
    z = np.asarray(z, dtype=complex)[..., None, None]
    out = np.zeros(z.shape[:-2] + (mu.q, mu.q), dtype=complex)
    for t, M in mu.atoms:
        out += M / (t - z)
    return out


def sharp_measure(mu):
    """The (t - alpha)-reweighted measure: atoms (t, (t - alpha) M).

    Its moments satisfy s_j^sharp = s_{j+1} - alpha s_j; atoms at the
    endpoint are annihilated.
    """
    atoms = [(t, (t - mu.alpha) * M) for t, M in mu.atoms
             if (t - mu.alpha) > 0.0]
    return AtomicMeasure(mu.alpha, mu.q, atoms, mu.tol)


def pair_eval(p, z):
    """Values (phi(z), psi(z)) = B + E f(z) [I_k, 0] of the pair at z off
    the slit: q x q matrices at a point, (G, q, q) stacks at a 1-D array
    of G points."""
    z = np.asarray(z, dtype=complex)
    val = np.zeros(z.shape + p.B.shape, dtype=complex)
    val += p.B
    if p.f is not None:
        val[..., :p.f.q] += p.E @ p.f(z)
    return val[..., :p.q, :], val[..., p.q:, :]


def restriction_products(data, n):
    """The restriction products of level n in the paper's form,
    ((I - H^+ H) R_T(alpha) v, (I - Hs^+ Hs) H v), from the
    Moore-Penrose inverses of H_n and Hs_n and the dense R_T(alpha) and
    v, not from the null bases that ``classify`` forms them with."""
    data.check_level(n, shifted=True)
    q, H, Hs = data.q, data.H[n], data.shift.H[n]
    v, eye = first_column_embedding(q, n), np.eye(len(H))
    return ((eye - data.factor(n).pinv() @ H)
            @ shift_resolvent(q, n, data.seq.alpha) @ v,
            (eye - data.shift.factor(n).pinv() @ Hs) @ H @ v)


def in_restricted_class_at_points(p, seq, n, zs):
    """The two vanishing conditions of the restricted class, A_phi phi(z)
    = 0 and A_psi psi(z) = 0 with (A_phi, A_psi) the restriction products
    (I - H^+ H) R_T(alpha) v and (I - Hs^+ Hs) H v of level n
    (``restriction_products``), tested point by point under
    ``seq.tol``.  Each residual is bounded relative to the block the
    projector acts on times |[phi; psi](z)|.  Decisive when ``zs`` holds
    more points off the slit than the pair has poles."""
    data = seq.hankel()
    A_phi, A_psi = restriction_products(data, n)
    q = seq.q
    ref_phi = np.linalg.norm(shift_resolvent(q, n, seq.alpha)[:, :q])
    ref_psi = np.linalg.norm(data.H[n][:, :q])
    for z in zs:
        phi, psi = pair_eval(p, z)
        bound = 10 * seq.tol.tol_identity * np.linalg.norm(
            np.vstack([phi, psi]))
        if np.linalg.norm(A_phi @ phi) > bound * ref_phi or \
                np.linalg.norm(A_psi @ psi) > bound * ref_psi:
            return False
    return True


def default_pair_grid(alpha):
    """Evaluation grid for pair checks: the points of ``standard_grid``
    with |Im z| >= 1 in both half planes, plus a real point left of
    alpha."""
    return [z for z in standard_grid(alpha) if abs(z.imag) >= 1.0] + \
        [alpha - 3.0 + 0j]


def pair_is_valid(p, grid=None):
    """Check the defining positivity and rank conditions of a pair under
    its ``tol``.

    At every non-real grid point both quadratic J-forms (the plain one
    and the (z - alpha)-weighted one) must be PSD and col(phi; psi)
    must have full rank q; at real points x < alpha the Hermitian part
    of psi* phi must be PSD.
    """
    tol = p.tol
    alpha = _pair_alpha(p)
    if grid is None:
        grid = default_pair_grid(alpha)
    J = signature_matrix(p.q)
    for z in grid:
        z = complex(z)
        try:
            phi, psi = pair_eval(p, z)
        except ValueError:
            continue
        col = np.vstack([phi, psi])
        if mrank(col, tol) != p.q:
            return False
        if abs(z.imag) > 1e-9:
            form = col.conj().T @ (-J / (2.0 * z.imag)) @ col
            if not is_psd(_herm(form), tol):
                return False
            colw = np.vstack([(z - alpha) * phi, psi])
            formw = colw.conj().T @ (-J / (2.0 * z.imag)) @ colw
            if not is_psd(_herm(formw), tol):
                return False
        elif z.real < alpha:
            if not is_psd(_herm(psi.conj().T @ phi), tol):
                return False
    return True


def _herm(A):
    return 0.5 * (A + A.conj().T)


def _pair_alpha(p):
    return 0.0 if p.f is None else p.f.measure.alpha


def pairs_equivalent(p1, p2, grid=None):
    """Equivalence of pairs via equality of the Cayley transforms
    (psi + i phi)(psi - i phi)^{-1} at upper-half-plane sample points,
    under the ``tol`` of ``p1``, at the points where
    ``right_divide_three_norms`` finds both denominators psi - i phi
    invertible."""
    if p1.q != p2.q:
        return False
    alpha = _pair_alpha(p1)
    if grid is None:
        grid = [z for z in default_pair_grid(alpha) if z.imag > 0][:8]
    vals, usable = [], True
    for p in (p1, p2):
        phi, psi = pair_eval(p, np.asarray(grid, dtype=complex))
        val, ok = right_divide_three_norms(psi + 1j * phi, psi - 1j * phi,
                                           p1.tol)
        vals.append(val)
        usable = usable & ok
    if not np.any(usable):
        raise ValueError("all equivalence sample points were singular")
    diff = np.linalg.norm(vals[0][usable] - vals[1][usable], axis=(-2, -1))
    return bool(np.all(diff <= 1e3 * p1.tol.tol_identity))


def atomic_decomposition_residual(seq, n, mu, z, k):
    """Residual of the exact integral decomposition of P_k[S_mu] for an
    atomic measure mu, k in {2n, 2n + 1}: a number at a point z, an
    array of residuals at a 1-D array of points, computed for all of
    them at once.

    P_2n[S](z) = sum_k [E(t); (t - conj z)^{-1} I] M [..]* + correction,
    the correction charging only the last Hankel corner with the moment
    defect at order 2n.  P_2n+1 is P_2n[(z - alpha) S + s_0] of the
    right-alpha-shifted sequence, whose sum weighs the atoms by t -
    alpha, alpha that of the sequence (a measure may declare a smaller
    one).
    """
    data = seq.hankel()
    z = np.asarray(z, dtype=complex)
    _off_real_axis(z)
    _check_index(data, n, k)
    if k == -1:
        raise ValueError("the atomic decomposition is of P_2n and P_2n+1")
    t, W, g = mu.positions, mu.weights, transform(mu, z)
    if k % 2:
        W = (t - seq.alpha)[:, None, None] * W
        data = data.shift
        g = _z_minus_alpha_times(seq.alpha, g, z) + seq.moments[0]
    return _decomposition_residual(data, n, t, W, g, z)


def _decomposition_residual(data, n, t, W, g, z):
    """Residual of P_2n[g] of ``data`` at the points z against its sum
    over the atoms t with weights W, formed block by block.

    The sum's Hankel corner, the same at every point, is the block
    Hankel matrix of the moments sum t^j W, with its last block
    corrected to that of the sequence; it is formed once.  The coupling
    columns are compared in the eigenbasis Q of that corner of P_2n,
    through the coupling polynomials ``potapov_report`` reads from the
    ``("coupling", n)`` memo of ``data``: the column of P_2n is the
    projected K(z) g - b(z) that the report decides on, and the sum's
    column sum E(t) W / (t - z) projects to sum K(t) W / (t - z).  They
    and the diagonal block sum W / |t - z|^2 come from one contraction
    over the atoms each, and ||P_2n - sum||_F from the norms of the
    blocks, as Q is unitary, so no (n+2)q x (n+2)q matrix and no
    coupling column in the standard basis is formed.
    """
    q = data.q
    H = data.H[n]
    _, K, b, hnorm = data._once(("coupling", n), lambda: _coupling(data, n))
    X = K(z) @ g - b(z)
    diag = _diagonal_block(g, z)
    moments = (t ** np.arange(2 * n + 1)[:, None] @ W.reshape(-1, q * q)
               ).reshape(-1, q, q)
    corner = block_hankel_by_blocks(moments, n)
    corner[-q:, -q:] += H[-q:, -q:] - moments[-1]
    KW = K(t) @ W
    d = t - z[..., None]
    col = ((1.0 / d) @ KW.reshape(len(t), -1)).reshape(X.shape)
    diag_sum = ((1.0 / np.abs(d) ** 2) @ W.reshape(-1, q * q)).reshape(
        diag.shape)
    resid = _norm_of_blocks(np.linalg.norm(H - corner), X - col,
                            diag - diag_sum)
    return (resid / (1.0 + _norm_of_blocks(hnorm, X, diag)))[()]


def decomposition_residual_per_atom(seq, n, mu, z, k):
    """Residual of the exact integral decomposition of P_k for an atomic
    measure mu whose transform plays the role of f, summed atom by atom
    over the full (n+2)q x (n+2)q matrices: a number at a point z, an
    array of residuals at a 1-D array of points.

    P_2n[S](z) = sum_k [E(t); (t - conj z)^{-1} I] M [..]* + correction,
    with a sqrt(t - alpha) weight, alpha that of the sequence, in the odd
    case; the correction charges only the last Hankel corner with the
    moment defect at order k.
    """
    data = seq.hankel()
    z = np.asarray(z, dtype=complex)
    _off_real_axis(z)
    _check_index(data, n, k)
    q = seq.q
    P = _fundamental(data, n, k, transform(mu, z), z)
    odd = (k % 2 == 1)
    total = np.zeros_like(P)
    s_top = np.zeros((q, q), dtype=complex)
    eye = np.eye(q)
    for t, M in mu.atoms:
        E = monomial_stack(q, n, t)
        colblk = np.concatenate(
            [np.broadcast_to(E, z.shape + E.shape),
             (1.0 / (t - np.conj(z)))[..., None, None] * eye], axis=-2)
        weight = (t - seq.alpha) if odd else 1.0
        total += weight * (colblk @ M @ _star(colblk))
        s_top += (t ** k) * M if not odd else \
            (t - seq.alpha) * (t ** (2 * n)) * M
    vg = last_column_embedding(q, n)
    corr_col = np.vstack([vg, np.zeros((q, q), dtype=complex)])
    if odd:
        s = seq.moments
        defect = (-seq.alpha * s[2 * n] + s[2 * n + 1]) - s_top
    else:
        defect = seq.moments[k] - s_top
    total += corr_col @ defect @ corr_col.conj().T
    return (_fro(P - total) / (1.0 + _fro(P)))[()]
