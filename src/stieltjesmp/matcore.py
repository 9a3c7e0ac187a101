"""Dense complex matrix utilities.

The Hermitian gate, the one PSD rule, the one rank and singularity
rule and the right division of a column [num; den] it guards, and the
one factorization of a Hermitian matrix: its eigenvalues, rank, PSD
verdict and null space, and its Moore-Penrose inverse on demand, or a
Cholesky that certifies it positive definite in its place.  A
subspace is its basis, an array with orthonormal columns.
The checks the tests hold these to (range inclusion, the invariant
complement test, an SVD null space and pseudo-inverse, the reflexive
inverse with prescribed range, the Schur ladder and its block-diagonal
range basis) live in ``tests/identities.py``.

All functions are pure: inputs are never mutated and no module state is
kept, so concurrent use is safe.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances used by all numerical predicates.

    Attributes
    ----------
    tol_herm : float
        Hermitian-deviation gate, relative to 1 + norm.
    tol_psd : float
        Allowed negative part of the smallest eigenvalue, relative.
    tol_rank : float
        Singular values below ``tol_rank * ref`` count as zero (``_rank``).
    tol_identity : float
        Residual gate for algebraic identities, relative.
    """

    tol_herm: float = 1e-10
    tol_psd: float = 1e-9
    tol_rank: float = 1e-10
    tol_identity: float = 1e-10

    def __post_init__(self):
        for name in ("tol_herm", "tol_psd", "tol_rank", "tol_identity"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(A):
    """Return ``A`` as a 2-d complex ndarray, checking finiteness."""
    M = np.atleast_2d(np.asarray(A, dtype=complex))
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def as_square(A, q, what):
    """``A`` as a q x q complex ndarray; any other shape raises
    ``ValueError`` naming ``what``."""
    M = np.asarray(A, dtype=complex)
    if M.shape != (q, q):
        raise ValueError(f"{what} must be {q} x {q}, got shape {M.shape}")
    return M


def hermitize(A, tol=DEFAULT_TOL, what="matrix"):
    """Symmetrize ``A`` to (A + A*)/2 after passing the Hermitian gate.

    Raises ``ValueError`` when the deviation from Hermitian symmetry
    exceeds ``tol.tol_herm`` relative to the norm.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be square, got {A.shape}")
    scale = 1.0 + np.linalg.norm(A)
    if np.linalg.norm(A - A.conj().T) > tol.tol_herm * scale:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return 0.5 * (A + A.conj().T)


def _psd_margin(tol, ref):
    """The one margin of every PSD verdict: a Hermitian matrix passes iff
    its lambda_min >= -tol_psd (1 + ref), ``ref`` the scale that the
    verdict names (elementwise for an array of scales)."""
    return tol.tol_psd * (1.0 + ref)


def _cut(tol, ref):
    """The one rank cut, ``tol_rank`` times the scale ``ref``."""
    return tol.tol_rank * ref


def _significant(s, tol, ref):
    """The one rule of every verdict on rank or invertibility: which of
    the singular values ``s`` exceed the ``_cut`` of the scale ``ref``
    that the verdict names, elementwise."""
    return s > _cut(tol, ref)


def _rank(s, tol, ref=None):
    """How many of the singular values ``s`` are ``_significant``
    relative to ``ref``, by default the largest; none of an empty ``s``."""
    ref = np.max(s, initial=0.0) if ref is None else ref
    return int(np.count_nonzero(_significant(s, tol, ref)))


def _positive_definite(A, tol):
    """Whether one Cholesky, with no eigh, certifies A ``pd``: that of
    A - c diag(A), the congruence by D^-1 of the D A D - cI of
    ``HermitianFactor`` (Demmel and Veselic 1992)."""
    d, n = np.abs(np.diagonal(A)), len(A)
    c = 2 * _cut(tol, n) + (n + 1) ** 2 * np.finfo(float).eps * n
    try:
        np.linalg.cholesky(A - c * np.diag(d))
    except np.linalg.LinAlgError:
        return False
    return bool(d.min() > _cut(tol, d.max()))


def right_divide(N, tol=DEFAULT_TOL):
    """num den^-1 of the halves of a 2q x q column N = [num; den], and whether
    den is invertible by the ``_significant`` rule, a Python bool:
    sigma_min(den) > tol_rank |N|_F, sigma_min read as 1 / |den^-1|_F (at
    most sqrt(q) below it).  An exactly singular den, which ``inv`` refuses,
    has a NaN quotient.  Where a squared norm is 0 or inf (then one
    overflows, as |N|_F |den^-1|_F >= 1), the norms are read on N / max|N|,
    as no scaling of N changes the rule."""
    q = N.shape[-1]
    try:
        inv = np.linalg.inv(N[q:])
    except np.linalg.LinAlgError:
        return np.full_like(N[:q], np.nan), False
    fro = math.sqrt(np.vdot(N, N).real), math.sqrt(np.vdot(inv, inv).real)
    if not 0.0 < min(fro) <= max(fro) < math.inf:
        c = np.abs(N).max()
        fro = [math.sqrt(np.vdot(a, a).real) for a in (N / c, c * inv)]
    return N[:q] @ inv, _significant(1.0 / fro[1], tol, fro[0])


def _fro(a):
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    if a.ndim == 2:
        return np.sqrt(np.vdot(a, a).real)
    return np.linalg.norm(a, axis=(-2, -1))


class HermitianFactor:
    """One ``eigh`` of the equilibrated D A D of a Hermitian matrix A, and
    every verdict on A read from it.

    D = diag(|A_jj|)^(-1/2) (van der Sluis, Numer. Math. 14, 1969), a
    diagonal entry at or below the ``_cut`` of the largest being scaled
    by the largest instead, so that a row of roundoff stays roundoff.
    D A D has the inertia of A and null(A) = D null(D A D).
    ``w`` holds the eigenvalues of D A D by decreasing modulus, the
    order in which the rank rule cuts them; ``rank`` is the ``_rank``
    rule on their moduli; ``psd`` is lambda_min(D A D) >= -tol_psd
    (1 + |A|) min(D)^2, the ``_psd_margin`` of A scaled to D A D, which
    implies lambda_min(A) >= -tol_psd (1 + |A|); ``pd`` is rank N, w > 0
    and no entry at the cutoff, which every leading block of A shares
    (Cauchy interlacing); ``null`` is an orthonormal basis of null(A),
    from which the Dubovoj range basis is read.  No inverse is kept:
    :meth:`pinv` forms A^+ on each call.  ``_positive_definite`` certifies
    ``pd`` with no eigh by a Cholesky of D A D - cI, c = 2 ``_cut``(N) +
    (N + 1)^2 eps N with N >= tr D A D >= lambda_max: c passes Cholesky's
    backward error (N + 1) eps tr D A D (Demmel and Veselic, SIAM J. Matrix
    Anal. Appl. 13, 1992) by more than eigh's, so lambda_min > 2 ``_cut``
    (lambda_max) with eigh's error to spare, under every ``tol_rank``.
    """

    def __init__(self, A, tol=DEFAULT_TOL):
        d = np.abs(np.diagonal(A))
        dmax = np.max(d, initial=0.0) or 1.0
        keep = d > _cut(tol, dmax)
        D = 1.0 / np.sqrt(np.where(keep, d, dmax))
        w, Q = np.linalg.eigh(D[:, None] * A * D)
        order = np.argsort(-np.abs(w), kind="stable")
        self.w, B = w[order], D[:, None] * Q[:, order]
        self.rank = r = _rank(np.abs(self.w), tol)
        self.psd = bool(w.min(initial=0.0) >= -_psd_margin(
            tol, np.linalg.norm(A)) / dmax)
        self.pd = bool(r == len(w) and (w > 0).all() and keep.all())
        self.null, self._kept = B[:, r:], B[:, :r]
        if r < len(d):
            self.null = np.linalg.qr(self.null)[0]

    @classmethod
    def definite(cls, A, tol=DEFAULT_TOL):
        """A's factor with no eigh, A known ``pd`` (``HankelData.factor``);
        ``w`` and ``pinv`` take the eigh when first read."""
        f = cls.__new__(cls)
        f.rank, f.psd, f.pd, f._source = len(A), True, True, (A, tol)
        f.null = np.zeros((len(A), 0), dtype=complex)
        return f

    def __getattr__(self, name):    # an unset w or _kept of ``definite``
        if name not in ("w", "_kept") or "_source" not in vars(self):
            raise AttributeError(name)
        full = HermitianFactor(*vars(self).pop("_source"))
        self.w, self._kept = full.w, full._kept
        return vars(self)[name]

    def pinv(self):
        """The Moore-Penrose inverse of A, formed anew on each call:
        R diag(1/w_r) R*, R the D-scaled eigenvectors of the first r =
        ``rank`` eigenvalues projected onto range(A) = null(A)-perp."""
        R = self._kept - self.null @ (self.null.conj().T @ self._kept)
        return (R / self.w[:self.rank]) @ R.conj().T
