"""Moment sequences on a half line and their block Hankel machinery.

A :class:`MomentSequence` stores Hermitian q x q moment matrices
s_0, ..., s_m as one (m + 1, q, q) array, together with the left
endpoint alpha of the half line [alpha, oo).  The module reads block
Hankel matrices, the right-alpha-shifted sequence and the associated
stacked vectors as indices of that array, and assembles the one
stack T^j x of powers of the block shift T applied to a block column
(``shift_stack``, from which every product with T, R_T(z) or R_{T*}(z)
is read; ``resolvent_column`` is R_T(alpha) v in closed form), and
membership tests for the four solvability classes
(Hankel-nonnegative, Hankel-nonnegative extendable,
Stieltjes-nonnegative, Stieltjes-nonnegative extendable).  A
:class:`HankelData` holds the Hankel matrices at every level of one
sequence and factors each of them at most once; the shifted Hankel
matrices Hs_k are the H_k of the shifted sequence's own data,
``data.shift``.  The canonical (Dubovoj) range bases of the resolvent
build are read from the null spaces of those factors
(``dubovoj_candidates``), and no Schur complement is formed.  A
sequence hands out its one HankelData through
:meth:`MomentSequence.hankel`, so every call on the sequence shares the
work while a result that holds the data is alive.
"""

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .matcore import DEFAULT_TOL, HermitianFactor, _positive_definite, \
    as_square, hermitize


class MomentSequence:
    """A finite sequence of Hermitian q x q moment matrices.

    Parameters
    ----------
    alpha : float
        Left endpoint of the half line [alpha, oo), a finite number.
    q : int
        Matrix size.
    moments : sequence of (q, q) arrays
        The moments s_0, ..., s_m; each must be Hermitian within
        ``tol.tol_herm`` and is symmetrized at load.  They are stored as
        one read-only (m + 1, q, q) array ``moments``, so that no factor
        of them can go stale; ``moments[j]`` is s_j, and every block
        stack and block Hankel matrix of the sequence is an index of it.
    """

    def __init__(self, alpha, q, moments, tol=DEFAULT_TOL):
        if q < 1:
            raise ValueError("q must be a positive integer")
        if len(moments) == 0:
            raise ValueError("at least one moment matrix is required")
        self.alpha = float(alpha)
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        self.q = int(q)
        self.tol = tol
        self.moments = _read_only(np.array([hermitize(
            as_square(s, q, f"moment s_{j}"), tol, what=f"moment s_{j}")
            for j, s in enumerate(moments)]))
        self._hankel = None

    def hankel(self):
        """The one :class:`HankelData` of this sequence, built on first
        use and held weakly: it lives while a result that holds it (a
        ``ClassReport``, ``ClassificationReport`` or ``ResolventMatrix``)
        is alive, and every call on the sequence meanwhile reads its
        factors."""
        data = self._hankel and self._hankel()
        if data is None:
            data = HankelData(self)
            self._hankel = weakref.ref(data)
        return data

    def __reduce__(self):
        # A copy or an unpickled sequence is built anew, with its own data.
        return MomentSequence, (self.alpha, self.q, self.moments, self.tol)

    @property
    def m(self):
        """Largest available moment index."""
        return len(self.moments) - 1

    def __repr__(self):
        return (f"MomentSequence(alpha={self.alpha}, q={self.q}, "
                f"m={self.m})")


def _read_only(a):
    a.flags.writeable = False
    return a


def shift_right(seq):
    """Right-alpha-shifted sequence: s_shift_j = -alpha s_j + s_{j+1}."""
    if seq.m < 1:
        raise ValueError("shift_right needs at least two moments")
    s = seq.moments
    return MomentSequence(seq.alpha, seq.q, -seq.alpha * s[:-1] + s[1:],
                          seq.tol)


def stack_y(s, lo, hi):
    """Column stack col(s_j)_{j=lo}^{hi} of a (m + 1, q, q) moment stack
    ``s``, a read-only view when ``s`` is one.  Its conjugate transpose
    is the row stack row(s_j), exactly so for Hermitian s_j."""
    return s[lo:hi + 1].reshape(-1, s.shape[-1])


def block_hankel(s, n):
    """Block Hankel matrix [s_{j+k}]_{j,k=0}^{n} of a moment stack ``s``
    (a slice ``s[1:]`` gives [s_{j+k+1}])."""
    q = s.shape[-1]
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    return s[idx].swapaxes(1, 2).reshape((n + 1) * q, -1)


def shift_stack(x, q):
    """The stack T^j x, j = 0..n, of an N x r block column ``x``, for the
    block shift T = T_{q,n} = [delta_{j,k+1} I_q] and N = (n + 1) q:
    row j is x moved down j blocks, so it is the coefficient stack of
    R_T(z) x = (I - zT)^{-1} x = sum_j z^j T^j x, and (T^j L)* M is that
    of L* R_{T*}(z) M.  For n = 0, T = 0 and the stack is x alone."""
    N = x.shape[0]
    out = np.zeros((N // q,) + x.shape, dtype=complex)
    for j in range(N // q):
        out[j, j * q:] = x[:N - j * q]
    return out


def resolvent_column(alpha, q, n):
    """R_T(alpha) v = col(alpha^j I_q), j = 0..n, for v = col(I_q, 0, ...,
    0): T^j v is I_q in block j, so the sum has one term per block."""
    powers = alpha ** np.arange(n + 1)
    return (powers[:, None, None] * np.eye(q)).reshape(-1, q)


class HankelData:
    """Block Hankel matrices of one sequence at every level, each factored
    at most once.

    ``H[k]`` (2k <= m) is the level-k block Hankel matrix of the sequence, a
    leading slice of the matrix built at the top level.  Each is factored at
    most once, none below a definite one, into the ``factor`` that every
    verdict, rank and null basis about it is read from.  The
    right-alpha-shifted sequence is a sequence too, with Hankel data of its
    own, :attr:`shift`.  Factors, class verdicts and the canonical witness
    extension (read-only), and per level the defects of ``classify`` (read
    from the null bases of ``factor(n)`` and ``shift.factor(n)``) and the
    parts of ``build_resolvent``, are computed when first asked for and kept
    in one memo (``_once``); the library reaches this object through
    :meth:`MomentSequence.hankel` only, and the matrices are read-only.
    Readers of level n call :meth:`check_level`.  The results assembled from
    the memo hold this object, and the memo holds none of them.
    """

    def __init__(self, seq):
        self.seq = seq
        self.q = seq.q
        H = _read_only(block_hankel(seq.moments, seq.m // 2))
        self.H = [H[:k, :k] for k in range(seq.q, len(H) + 1, seq.q)]
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def shift(self):
        """The HankelData of ``shift_right(seq)``, whose ``H[k]`` is Hs_k,
        built on first use and held by this object; a one-moment
        sequence has none and raises ``ValueError``."""
        return self._once("shift", lambda: shift_right(self.seq).hankel())

    def check_level(self, n, shifted=False):
        """Refuse a level n the sequence lacks: H_n needs the moments up
        to s_2n, Hs_n (``shifted``) those up to s_2n+1."""
        if not 0 <= 2 * n + shifted <= self.seq.m:
            need = f"2n+1 = {2 * n + 1}" if shifted else f"2n = {2 * n}"
            raise ValueError(f"{'Hs' if shifted else 'H'}_{n} needs "
                             f"{need} <= m = {self.seq.m}")

    def factor(self, k):
        """The factor of H_k under ``seq.tol``: its PSD verdict, rank,
        eigenvalues and null basis, and its pseudo-inverse on demand.
        Below a factored H_j flagged ``pd`` (Cauchy interlacing), or where
        one Cholesky certifies it (``_positive_definite``), H_k is
        ``HermitianFactor.definite``, with no eigh."""
        def compute():
            H, tol = self.H[k], self.seq.tol
            if any(getattr(self._memo.get(("factor", j)), "pd", False)
                   for j in range(k + 1, len(self.H))) or \
                    _positive_definite(H, tol):
                return HermitianFactor.definite(H, tol)
            return HermitianFactor(H, tol)
        return self._once(("factor", k), compute)

    def nonnegative(self):
        """Membership of the sequence in class H>=, read top down."""
        return all(self.factor(k).psd for k in reversed(range(len(self.H))))

    def extendable(self):
        """Membership of the sequence in class H>=,e."""
        return self._once("extendable", self._extendable)

    def _extendable(self):
        seq = self.seq
        m = seq.m
        if not self.factor(m // 2).psd:
            return False
        if m == 0:
            # Both completing moments are free; s_1 = 0 always works.
            return True
        # With H_{m//2} PSD, extendable iff col(s_{m//2+1}, ..., s_m) is
        # orthogonal to null(H_{(m-1)//2}).  For even m these are the
        # null vectors of H_{m/2} with a zero last block, the ones that
        # no choice of the free s_{m+1} can meet.
        y = stack_y(seq.moments, m // 2 + 1, m)
        N = self.factor((m - 1) // 2).null
        return bool(np.linalg.norm(N.conj().T @ y)
                    <= seq.tol.tol_identity * (1.0 + np.linalg.norm(y)))

    def in_Kgeq(self):
        """Membership in the Stieltjes class K>=."""
        return self.nonnegative() and (
            self.seq.m == 0 or self.shift.factor((self.seq.m - 1) // 2).psd)

    def in_Kgeq_e(self):
        """Membership in the Stieltjes-extendable class K>=,e."""
        if self.seq.m == 0:
            return self.factor(0).psd
        if self.seq.m % 2 == 1:
            return self.extendable() and self.shift.nonnegative()
        return self.nonnegative() and self.shift.extendable()


@dataclass
class ClassReport:
    """Membership of a sequence in the four solvability classes.

    ``data``, the Hankel data of the sequence, lives while the report
    does, so later calls on the sequence read its factors; it is left
    out of ``to_dict``, repr and comparison.
    """

    in_Hgeq: bool
    in_Hgeq_e: bool
    in_Kgeq: bool
    in_Kgeq_e: bool
    witness_extension: np.ndarray = None
    data: HankelData = field(default=None, repr=False, compare=False)

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

    The witness extension is the Schur-complement-zero Hankel extension
    s_{m+1}; it is attached whenever the sequence is
    Stieltjes-extendable.
    """
    data = seq.hankel()
    in_He = data.extendable()
    in_Ke = data.in_Kgeq_e()
    witness = canonical_extension(seq) if (in_Ke and in_He) else None
    return ClassReport(in_Hgeq=data.nonnegative(), in_Hgeq_e=in_He,
                       in_Kgeq=data.in_Kgeq(), in_Kgeq_e=in_Ke,
                       witness_extension=witness, data=data)


def canonical_extension(seq):
    """Minimal Hermitian extension s_{m+1} with zero Schur complement.

    Returns s_{m+1} = z_{floor(m/2)+1, m} H^+ y_{floor(m/2)+1, m} with
    H the Hankel matrix of level ceil(m/2) - 1, whose factor forms H^+
    for this product only; for m = 0 the empty product gives the zero
    matrix.  It is computed once and kept, read-only, on the sequence's
    Hankel data, so ``class_membership`` and this function hand out the
    same array while the data lives.
    """
    data = seq.hankel()
    if not data.extendable():
        raise ValueError("sequence is not Hankel-extendable")
    return data._once("witness", lambda: _read_only(_witness(data)))


def _witness(data):
    seq = data.seq
    m = seq.m
    if m == 0:
        return np.zeros((seq.q, seq.q), dtype=complex)
    lo = m // 2 + 1
    lvl = (m + 1) // 2 - 1
    y = stack_y(seq.moments, lo, m)
    s_next = y.conj().T @ data.factor(lvl).pinv() @ y
    return 0.5 * (s_next + s_next.conj().T)


def dubovoj_candidates(seq, n):
    """Canonical block-diagonal range subspaces at level n.

    Returns the orthonormal bases (D_n, D_shift_n) of range diag(L_0,
    ..., L_n), L_k the Schur complement of H_{k-1} in H_k, for the
    sequence and for its right-alpha-shifted sequence, both read from the
    factors of the Hankel matrices (``_range_basis``).  The pair is not
    kept: its one reader, ``build_resolvent``, runs once per level while
    the data lives.
    """
    data = seq.hankel()
    data.check_level(n, shifted=True)
    return _range_basis(data, n), _range_basis(data.shift, n)


def _range_basis(data, n):
    """Orthonormal basis of range diag(L_0, ..., L_n), an (n + 1) q x
    rank H_n array, read from the factors of H_0, ..., H_n.

    For PSD H_k = [[H_{k-1}, y], [y*, s_2k]], w is in null(L_k) iff some
    [u; w] is in null(H_k) (u = -H_{k-1}^+ y w; conversely null(H_{k-1})
    lies in null(y*)), so range(L_k) is the orthogonal complement of the
    span of the last block rows P of the null basis of H_k.  Block k is
    the r_k = rank H_k - rank H_{k-1} left singular vectors of P that lie
    least in its range; a nonsingular H_k has an empty P and gives I_q,
    with no SVD.  The factors are asked top down, so a definite H_n
    certifies the levels below it.
    """
    q = data.q
    ranks = [data.factor(k).rank for k in reversed(range(n + 1))]
    ranks = np.diff(ranks[::-1], prepend=0)
    if not all(0 <= r <= q for r in ranks):
        raise ValueError(f"block ranks {ranks.tolist()} of the Dubovoj "
                         f"basis must lie in 0..{q}")
    basis = np.zeros(((n + 1) * q, ranks.sum()), dtype=complex)
    col = 0
    for k, r in enumerate(ranks):
        P = data.factor(k).null[-q:]
        basis[k * q:(k + 1) * q, col:col + r] = \
            np.linalg.svd(P)[0][:, q - r:] if P.size else np.eye(q)
        col += r
    return basis
