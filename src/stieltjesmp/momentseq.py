"""Moment sequences on a half line and their block Hankel machinery.

A :class:`MomentSequence` stores Hermitian q x q moment matrices
s_0, ..., s_m together with the left endpoint alpha of the half line
[alpha, oo).  The module assembles block Hankel matrices, the shifted
Hankel matrices of the right-alpha-shifted sequence, the associated
stacked vectors, Schur-complement ladders, and membership tests for the
four solvability classes (Hankel-nonnegative, Hankel-nonnegative
extendable, Stieltjes-nonnegative, Stieltjes-nonnegative extendable).
A :class:`HankelData` holds these matrices for one sequence and factors
each of them at most once; the functions here that take a sequence
also accept its HankelData, so that callers can share the work.
"""

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .matcore import (
    DEFAULT_TOL,
    dubovoj_subspace,
    hermitize,
    is_psd,
    mrank,
    pseudo_inverse,
    range_included,
)


class MomentSequence:
    """A finite sequence of Hermitian q x q moment matrices.

    Parameters
    ----------
    alpha : float
        Left endpoint of the half line [alpha, oo).
    q : int
        Matrix size.
    moments : sequence of (q, q) arrays
        The moments s_0, ..., s_m; each must be Hermitian within
        ``tol.tol_herm`` and is symmetrized at load.
    """

    def __init__(self, alpha, q, moments, tol=DEFAULT_TOL):
        if q < 1:
            raise ValueError("q must be a positive integer")
        if len(moments) == 0:
            raise ValueError("at least one moment matrix is required")
        self.alpha = float(alpha)
        self.q = int(q)
        self.tol = tol
        ms = []
        for j, s in enumerate(moments):
            s = np.asarray(s, dtype=complex).reshape(q, q)
            ms.append(hermitize(s, tol, what=f"moment s_{j}"))
        self.moments = ms

    @property
    def m(self):
        """Largest available moment index."""
        return len(self.moments) - 1

    def s(self, j):
        """Moment s_j, with the convention s_{-1} = 0."""
        if j == -1:
            return np.zeros((self.q, self.q), dtype=complex)
        return self.moments[j]

    def __repr__(self):
        return (f"MomentSequence(alpha={self.alpha}, q={self.q}, "
                f"m={self.m})")


def shift_right(seq):
    """Right-alpha-shifted sequence: s_shift_j = -alpha s_j + s_{j+1}."""
    if seq.m < 1:
        raise ValueError("shift_right needs at least two moments")
    shifted = [-seq.alpha * seq.s(j) + seq.s(j + 1) for j in range(seq.m)]
    return MomentSequence(seq.alpha, seq.q, shifted, seq.tol)


def stack_y(seq, lo, hi):
    """Column stack col(s_j)_{j=lo}^{hi} (lo may be -1, giving a zero block)."""
    return np.vstack([seq.s(j) for j in range(lo, hi + 1)])


def stack_z(seq, lo, hi):
    """Row stack row(s_j)_{j=lo}^{hi}."""
    return np.hstack([seq.s(j) for j in range(lo, hi + 1)])


def block_hankel(seq, n, offset=0):
    """Block Hankel matrix [s_{j+k+offset}]_{j,k=0}^{n}."""
    q = seq.q
    H = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            H[j * q:(j + 1) * q, k * q:(k + 1) * q] = seq.s(j + k + offset)
    return H


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


def last_column_embedding(q, n):
    """vg_{q,n} = col(delta_{n-j,0} I_q), the last block column of I."""
    v = np.zeros(((n + 1) * q, q), dtype=complex)
    v[n * q:, :] = np.eye(q)
    return v


def _levels(M, q, top):
    """Leading (k+1)q x (k+1)q slices of ``M`` for k = 0..top."""
    return [M[:(k + 1) * q, :(k + 1) * q] for k in range(top + 1)]


class HankelData:
    """Block Hankel matrices of one sequence up to level n, each factored
    at most once.

    ``H[k]`` and ``Hs[k]`` are the level-k block Hankel matrices of the
    sequence and of its right-alpha-shifted sequence ``shifted``; both
    are leading slices of the matrix built at the top level (n for H,
    min(n, floor((m-1)/2)) for Hs).  PSD verdicts, pseudo-inverses,
    Schur ladders, class verdicts and the restriction products are
    computed when first asked for and kept on this object only, so
    every caller holding it shares one factorization of each matrix.
    The arrays handed out are the kept ones; do not write to them.

    The default level n = floor(m/2) covers all levels of the sequence,
    which the class tests need.  The coupling matrices ``T``, ``v``,
    ``vg``, ``V``, ``Vg``, ``u``, ``w``, ``ug`` and the offset-1 Hankel
    matrices ``K`` of the Ljapunov identities are assembled at level n
    on access.
    """

    def __init__(self, seq, n=None):
        n = seq.m // 2 if n is None else n
        if n < 0 or 2 * n > seq.m:
            raise ValueError(f"H_{n} needs 2n = {2 * n} <= m = {seq.m}")
        self.seq = seq
        self.n = n
        self.q = seq.q
        self.H = _levels(block_hankel(seq, n, 0), seq.q, n)
        self.shifted = shift_right(seq) if seq.m >= 1 else None
        self.Hs = []
        if self.shifted is not None:
            ns = min(n, (seq.m - 1) // 2)
            self.Hs = _levels(block_hankel(self.shifted, ns, 0), seq.q, ns)
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _mats(self, shifted):
        return self.Hs if shifted else self.H

    @property
    def complete(self):
        """True when every level of the sequence is present."""
        return self.n == self.seq.m // 2

    def psd(self, k, shifted=False):
        """Whether H_k (Hs_k when ``shifted``) is PSD under ``seq.tol``."""
        return self._once(("psd", shifted, k), lambda: is_psd(
            self._mats(shifted)[k], self.seq.tol))

    def pinv(self, k, shifted=False, tol=None):
        """Moore-Penrose inverse of H_k (Hs_k when ``shifted``)."""
        tol = tol or self.seq.tol
        return self._once(("pinv", shifted, k, tol), lambda: pseudo_inverse(
            self._mats(shifted)[k], tol))

    def ladder(self, shifted=False):
        """Schur complements L_k = s_2k - z_{k,2k-1} H_{k-1}^+ y_{k,2k-1}
        of the sequence (of ``shifted`` when ``shifted``), one per level."""
        return self._once(("ladder", shifted), lambda: self._ladder(shifted))

    def _ladder(self, shifted):
        seq = self.shifted if shifted else self.seq
        out = []
        for k in range(len(self._mats(shifted))):
            if k == 0:
                out.append(seq.s(0).copy())
            else:
                y = stack_y(seq, k, 2 * k - 1)
                z = stack_z(seq, k, 2 * k - 1)
                out.append(seq.s(2 * k) - z @ self.pinv(k - 1, shifted) @ y)
        return out

    def _require_complete(self):
        if not self.complete:
            raise ValueError("class tests need the Hankel data of every "
                             "level of the sequence")

    def nonnegative(self, shifted=False):
        """Membership of the sequence (of ``shifted``) in class H>=."""
        self._require_complete()
        return all(self.psd(k, shifted)
                   for k in range(len(self._mats(shifted))))

    def extendable(self, shifted=False):
        """Membership of the sequence (of ``shifted``) in class H>=,e."""
        self._require_complete()
        return self._once(("extendable", shifted),
                          lambda: self._extendable(shifted))

    def _extendable(self, shifted):
        seq = self.shifted if shifted else self.seq
        m, q, tol = seq.m, seq.q, seq.tol
        if m % 2 == 0:
            n = m // 2
            if not self.psd(n, shifted):
                return False
            if n == 0:
                # Both completing moments are free; s_1 = 0 always works.
                return True
            # Extending needs some Hermitian s_{2n+1} with
            # col(s_{n+1}, ..., s_{2n+1}) in the range of H_n.  Splitting
            # the free last block out of the projector equation
            # (I - H H^+) Y = 0 leaves an affine solvability condition in
            # s_{2n+1}.
            H = self._mats(shifted)[n]
            P = np.eye((n + 1) * q, dtype=complex) - \
                H @ self.pinv(n, shifted)
            c = np.vstack([stack_y(seq, n + 1, 2 * n),
                           np.zeros((q, q), dtype=complex)])
            P_last = P[:, n * q:]
            return range_included(P_last, P @ c, tol)
        n = (m - 1) // 2
        if not self.psd(n, shifted):
            return False
        y = stack_y(seq, n + 1, 2 * n + 1)
        return range_included(self._mats(shifted)[n], y, tol,
                              B_pinv=self.pinv(n, shifted))

    def in_Kgeq(self):
        """Membership in the Stieltjes class K>=."""
        if not self.nonnegative():
            return False
        return self.seq.m == 0 or self.psd(len(self.Hs) - 1, shifted=True)

    def in_Kgeq_e(self):
        """Membership in the Stieltjes-extendable class K>=,e."""
        self._require_complete()
        if self.seq.m == 0:
            return self.psd(0)
        if self.seq.m % 2 == 1:
            return self.extendable() and self.nonnegative(shifted=True)
        return self.nonnegative() and self.extendable(shifted=True)

    def restriction_products(self, n, tol):
        """(A_phi, A_psi) = ((I - H^+ H) R_T(alpha) v, (I - Hs^+ Hs) H v)
        at level n, with the pseudo-inverses cut under ``tol``; a pair
        is in the restricted class when A_phi phi and A_psi psi vanish
        identically."""
        if n >= len(self.Hs):
            raise ValueError(f"restriction products at level {n} need "
                             f"2n+1 = {2 * n + 1} <= m = {self.seq.m}")
        return self._once(("products", n, tol),
                          lambda: self._restriction_products(n, tol))

    def _restriction_products(self, n, tol):
        H, Hs = self.H[n], self.Hs[n]
        eye = np.eye(H.shape[0], dtype=complex)
        Ralpha = shift_resolvent(self.q, n, self.seq.alpha)
        v = first_column_embedding(self.q, n)
        A_phi = (eye - self.pinv(n, tol=tol) @ H) @ Ralpha @ v
        A_psi = (eye - self.pinv(n, True, tol) @ Hs) @ H @ v
        return A_phi, A_psi

    @property
    def K(self):
        nk = min(self.n, (self.seq.m - 1) // 2)
        if nk < 0:
            return []
        return _levels(block_hankel(self.seq, nk, 1), self.q, nk)

    @property
    def T(self):
        return shift_matrix(self.q, self.n)

    @property
    def v(self):
        return first_column_embedding(self.q, self.n)

    @property
    def vg(self):
        return last_column_embedding(self.q, self.n)

    @property
    def V(self):
        eye = np.eye((self.n + 1) * self.q, dtype=complex)
        return eye[:, :self.n * self.q]

    @property
    def Vg(self):
        eye = np.eye((self.n + 1) * self.q, dtype=complex)
        return eye[:, self.q:]

    @property
    def u(self):
        return -stack_y(self.seq, -1, self.n - 1)

    @property
    def w(self):
        return stack_z(self.seq, -1, self.n - 1)

    @property
    def ug(self):
        """Fraktur u; None unless 2n+1 <= m."""
        if 2 * self.n + 1 > self.seq.m:
            return None
        zero = np.zeros((self.q, self.q), dtype=complex)
        if self.n == 0:
            return zero
        return np.vstack([-stack_y(self.seq, self.n + 1, 2 * self.n), zero])


def hankel_data(seq, n=None):
    """The :class:`HankelData` of ``seq`` reaching level n (every level
    when n is None).  ``seq`` may be a :class:`MomentSequence` or a
    HankelData; one that already reaches the level is returned as is, so
    callers that pass it along share its factorizations."""
    if isinstance(seq, HankelData):
        if seq.complete if n is None else seq.n >= n:
            return seq
        seq = seq.seq
    return HankelData(seq, n)


@dataclass
class SchurLadder:
    """Schur complement ladders of the plain and shifted Hankel matrices."""

    L: list
    Ls: list


def schur_ladder(seq):
    """Ladders L_0..L_n and shifted L_s0..L_sn' for all available levels."""
    data = hankel_data(seq)
    return SchurLadder(L=data.ladder(), Ls=data.ladder(shifted=True))


@dataclass
class ClassReport:
    """Membership of a sequence in the four solvability classes."""

    in_Hgeq: bool
    in_Hgeq_e: bool
    in_Kgeq: bool
    in_Kgeq_e: bool
    witness_extension: np.ndarray = None

    def to_dict(self):
        d = {
            "in_Hgeq": bool(self.in_Hgeq),
            "in_Hgeq_e": bool(self.in_Hgeq_e),
            "in_Kgeq": bool(self.in_Kgeq),
            "in_Kgeq_e": bool(self.in_Kgeq_e),
        }
        if self.witness_extension is not None:
            d["witness_extension"] = jsonio.matrix_to_json(
                self.witness_extension)
        return d


def class_membership(seq):
    """Evaluate membership in all four classes and a canonical witness.

    ``seq`` is a :class:`MomentSequence` or its :class:`HankelData`.  The
    witness extension is the Schur-complement-zero Hankel extension
    s_{m+1}; it is attached whenever the sequence is
    Stieltjes-extendable.
    """
    data = hankel_data(seq)
    in_He = data.extendable()
    in_Ke = data.in_Kgeq_e()
    witness = canonical_extension(data) if (in_Ke and in_He) else None
    return ClassReport(in_Hgeq=data.nonnegative(), in_Hgeq_e=in_He,
                       in_Kgeq=data.in_Kgeq(), in_Kgeq_e=in_Ke,
                       witness_extension=witness)


def canonical_extension(seq):
    """Minimal Hermitian extension s_{m+1} with zero Schur complement.

    Returns s_{m+1} = z_{floor(m/2)+1, m} H^+ y_{floor(m/2)+1, m} with
    H the Hankel matrix of level ceil(m/2) - 1; for m = 0 the empty
    product gives the zero matrix.  ``seq`` may be its
    :class:`HankelData`.
    """
    data = hankel_data(seq)
    seq = data.seq
    if not data.extendable():
        raise ValueError("sequence is not Hankel-extendable")
    m = seq.m
    if m == 0:
        return np.zeros((seq.q, seq.q), dtype=complex)
    lo = m // 2 + 1
    lvl = (m + 1) // 2 - 1
    y = stack_y(seq, lo, m)
    z = stack_z(seq, lo, m)
    s_next = z @ data.pinv(lvl) @ y
    return 0.5 * (s_next + s_next.conj().T)


def extended(seq):
    """New sequence with the canonical extension appended."""
    return MomentSequence(seq.alpha, seq.q,
                         seq.moments + [canonical_extension(seq)], seq.tol)


def dubovoj_candidates(seq, n):
    """Canonical block-diagonal range subspaces at level n.

    Returns the pair (D_n, D_shift_n) built from the Schur ladders of
    the sequence and of its right-alpha-shifted sequence via
    :func:`stieltjesmp.matcore.dubovoj_subspace`.  ``seq`` may be its
    :class:`HankelData`.
    """
    data = hankel_data(seq)
    seq = data.seq
    if 2 * n + 1 > seq.m:
        raise ValueError("dubovoj_candidates needs 2n+1 <= m")
    D = dubovoj_subspace(data.ladder()[:n + 1], seq.tol)
    Ds = dubovoj_subspace(data.ladder(shifted=True)[:n + 1], seq.tol)
    return D, Ds


def rank_profile(seq):
    """Ranks of the ladder blocks and of the top Hankel matrix."""
    data = hankel_data(seq)
    tol = data.seq.tol
    return {
        "rank_H": mrank(data.H[-1], tol),
        "rank_L": [mrank(L, tol) for L in data.ladder()],
        "rank_Ls": [mrank(L, tol) for L in data.ladder(shifted=True)],
    }
