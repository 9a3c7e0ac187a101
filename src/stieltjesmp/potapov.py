"""Fundamental block-matrix inequalities for half-line moment data.

For a candidate solution function f, the matrices P_k[f](z) couple the
block Hankel data of the moment sequence with the values of f; their
joint positive semidefiniteness off the real axis characterizes
solutions of the truncated moment problem.  This module decides that
positivity on a grid (``potapov_report``) and computes the exact atomic
decomposition residual of P_k for a measure.  The P_k themselves, their
Schur complements Sigma_k, the auxiliary F_k/Q_k/Psi_k matrices and the
congruence identities connecting them are test oracles, in
``tests/identities.py``.

``potapov_report`` decides P_k >= 0 on a grid without forming P_k: up
to a margin tau, P_k + tau I >= 0 holds exactly when the Hankel corner
H + tau I is positive definite and the q x q Schur complement
Sigma^tau_k = d - c* (H + tau I)^-1 c has no eigenvalue below -tau.
With H = Q diag(w) Q*, the coupling column c = R_T(z)(v g - c_0) is a
polynomial in z, so Q* c = K(z) g - b(z) for two N x q matrix
polynomials built once per level and parity from Q and the stack
T^j [v, c_0] (``momentseq.shift_stack``): a point costs one
(N x q)(q x q) product and a q x q eigenvalue problem.  The
decomposition residual compares this same projected column with the
atomic sum in H's eigenbasis, so no coupling column is formed in the
standard basis.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import _fro
from .momentseq import shift_stack, stack_y
from .stieltjespairs import transform

_IM_GUARD = 1e-8


def _check_offreal(z):
    if np.any(np.abs(np.imag(z)) < _IM_GUARD):
        raise ValueError("the fundamental matrices are only defined off R")


def _check_index(data, n, k):
    """Refuse a k outside {-1, 2n, 2n+1} and a level the sequence lacks."""
    if k not in (-1, 2 * n, 2 * n + 1):
        raise ValueError(f"index k = {k} does not match level n = {n}")
    data.check_level(n, shifted=(k == 2 * n + 1))


def _adjoint(A):
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(A, -1, -2).conj()


def _im_quotient(g, z):
    """(g - g*) / (z - conj z) at the points z (an array, 0-d for one
    point), for g the stack of values there.  It is Hermitian as it
    stands: g - g* is skew-Hermitian entry by entry, and z - conj z has
    real part exactly 0."""
    return (g - _adjoint(g)) / (z - np.conj(z))[..., None, None]


def _corner(data, n, odd):
    """Hankel corner and coupling column of P_2n: (H_n, u_n); of P_2n+1
    (``odd``): (Hs_n, -alpha u_n - y_{0,n})."""
    seq = data.seq
    u = -stack_y(seq, -1, n - 1)
    if not odd:
        return data.H[n], u
    return data.Hs[n], -seq.alpha * u - stack_y(seq, 0, n)


def _weighted(data, fz, z):
    """(z - alpha) f(z) at the points z."""
    return (z - data.seq.alpha)[..., None, None] * fz


def _block_norm(corner, col, diag):
    """Frobenius norm of P_k per point, formed from the norms of its
    blocks: the norm of the Hankel corner, the coupling column (twice)
    and the diagonal block."""
    return np.sqrt(corner ** 2 + 2.0 * _fro(col) ** 2 + _fro(diag) ** 2)


@dataclass
class PotapovReport:
    """Smallest-eigenvalue table of the Potapov test on a grid.

    ``smin_even`` and ``smin_odd`` hold, per point, lambda_min of the
    q x q Schur complement Sigma^tau_k = d - c* (H + tau I)^-1 c of P_2n
    and P_2n+1 (see :func:`potapov_report`), or lambda_min(H) where
    H + tau I is not positive definite; ``smin_endpoint`` holds
    lambda_min of the q x q endpoint block P_-1.  An entry is None where
    the sequence has too few moments for that P_k.
    """

    points: list
    smin_even: list
    smin_odd: list
    smin_endpoint: list
    passed: bool

    def to_dict(self):
        return {
            "points": [[p.real, p.imag] for p in self.points],
            "sigma_min_even": self.smin_even,
            "sigma_min_odd": self.smin_odd,
            "sigma_min_endpoint": self.smin_endpoint,
            "passed": self.passed,
        }


def _coupling(data, n, odd):
    """The Hankel corner H of P_2n (of P_2n+1 when ``odd``), factored
    as H = Q diag(w) Q*, and the coupling polynomials of its column.

    The column c(z) = R_T(z)(v g - c_0) = sum_j z^j T^j (v g - c_0), so
    Q* c(z) = K(z) g - b(z) with K_j = Q* T^j v = Q*[:, jq:(j+1)q] and
    b_j = Q* T^j c_0, both read from one stack T^j [v, c_0].  Returns
    w, the coefficient stacks of K and b, each (n+1, N q) and
    C-contiguous, and ||H||_F.
    """
    H, c = _corner(data, n, odd)
    w, Q = np.linalg.eigh(H)
    q = data.q
    N = H.shape[0]
    Kb = Q.conj().T @ shift_stack(np.hstack([np.eye(N, q), c]), q)
    return (w, np.ascontiguousarray(Kb[..., :q]).reshape(n + 1, N * q),
            np.ascontiguousarray(Kb[..., q:]).reshape(n + 1, N * q),
            np.linalg.norm(H))


def _projected_column(data, n, odd, g, z):
    """Q* c(z) = K(z) g - b(z) at the points z (an array, 0-d for one
    point) for g = f(z) (k = 2n) or (z - alpha) f(z) (k = 2n + 1,
    ``odd``), with the coupling of :func:`_coupling`, built once per
    level and parity on the sequence's data; also w and ||H||_F."""
    w, K, b, hnorm = data._once(("coupling", odd, n),
                                lambda: _coupling(data, n, odd))
    V = np.vander(z.ravel(), n + 1, increasing=True).reshape(
        z.shape + (n + 1,))
    shape = z.shape + (-1, data.q)
    X = (V @ K).reshape(shape) @ g
    X -= (V @ b).reshape(shape)
    return X, w, hnorm


def _potapov_test(data, n, k, g, diag, z, tol):
    """Per point of the 1-D array z: the reported value of P_k (see
    :class:`PotapovReport`) and whether P_k fails the test, from g, the
    value f(z) (k = 2n) or (z - alpha) f(z) (k in {2n+1, -1}), and the
    diagonal block diag = (g - g*) / (z - conj z), which is all of P_-1.

    For k in {2n, 2n+1}, the Hankel corner H = Q diag(w) Q* is factored
    once per level and parity (:func:`_coupling`), and each point costs
    X = Q* c = K(z) g - b(z), one (N x q)(q x q) product.  As Q is
    unitary, ||c||_F = ||X||_F.  With tau the margin of the point,
    Y = (w + tau)^(-1/2) X and Sigma^tau = diag - Y* Y, whose
    eigenvalues take one call on the (G, q, q) stack.  Where
    w_min <= -tau the point fails and its value is w_min.
    """
    if k == -1:
        lam = np.linalg.eigvalsh(diag).min(axis=-1)
        return lam, lam < -tol.tol_psd * (1.0 + _fro(diag))
    X, w, hnorm = _projected_column(data, n, k % 2 == 1, g, z)
    tau = tol.tol_psd * (1.0 + _block_norm(hnorm, X, diag))
    shifted = w + tau[:, None]
    definite = shifted[:, 0] > 0.0
    X *= (1.0 / np.sqrt(np.where(definite[:, None], shifted, 1.0)))[
        :, :, None]
    lam = np.linalg.eigvalsh(diag - _adjoint(X) @ X).min(axis=-1)
    return np.where(definite, lam, w[0]), ~definite | (lam < -tau)


def potapov_report(seq, n, fz, grid):
    """Decide P_2n, P_2n+1, P_-1 >= 0 (up to the margin) over a non-real
    grid, for the candidate whose values at the grid points are the
    (G, q, q) stack ``fz``.

    A point passes for k when lambda_min of the Hermitian part of P_k is
    at least -tau, tau = tol_psd (1 + ||P_k||_F) with the ``tol_psd`` of
    ``seq.tol``.  For k in {2n, 2n+1} the test runs on the q x q Schur
    complement of the Hankel corner H (H_n, or Hs_n for odd k), with c
    the coupling column and d the Hermitian part of the diagonal block:
    P + tau I >= 0 holds exactly when H + tau I > 0 and its Schur
    complement d + tau I - c* (H + tau I)^-1 c >= 0 (Albert, SIAM J.
    Appl. Math. 17, 1969), that is when Sigma^tau = d - c* (H + tau
    I)^-1 c has lambda_min >= -tau.  Where lambda_min(H) <= -tau the
    point fails, since by interlacing lambda_min(P_k) <= lambda_min(H).
    H is factored once per level and parity on the sequence's data, not
    per report, and no (n+2)q x (n+2)q matrix is formed.  P_-1 is
    already q x q and is tested directly.

    An ``fz`` of another shape than (len(grid), q, q) raises
    ``ValueError``, and so does a value that is not finite, naming the
    first such point.
    """
    data = seq.hankel()
    data.check_level(n)
    tol = seq.tol
    grid = [complex(z) for z in grid]
    if not grid:
        raise ValueError("empty evaluation grid")
    z = np.array(grid)
    _check_offreal(z)
    fz = np.asarray(fz, dtype=complex)
    shape = (len(grid), seq.q, seq.q)
    if fz.shape != shape:
        raise ValueError(f"values of shape {fz.shape}, expected {shape}")
    finite = np.isfinite(fz).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"f({grid[np.argmin(finite)]}) is not finite")
    weighted = _weighted(data, fz, z)
    endpoint = _im_quotient(weighted, z)
    blocks = {2 * n: (fz, _im_quotient(fz, z)),
              2 * n + 1: (weighted, endpoint), -1: (weighted, endpoint)}
    smin = {}
    passed = True
    for k in (2 * n, 2 * n + 1, -1):
        if k > seq.m:
            smin[k] = [None] * len(grid)
            continue
        lam, failed = _potapov_test(data, n, k, *blocks[k], z, tol)
        if np.any(failed):
            passed = False
        smin[k] = lam.tolist()
    return PotapovReport(points=grid, smin_even=smin[2 * n],
                         smin_odd=smin[2 * n + 1], smin_endpoint=smin[-1],
                         passed=passed)


def atomic_decomposition_residual(seq, n, mu, z, k):
    """Residual of the exact integral decomposition of P_k for an atomic
    measure mu whose transform plays the role of f: a number at a point
    z, an array of residuals at a 1-D array of points, computed for all
    of them at once.

    P_2n[S](z) = sum_k [E(t); (t - conj z)^{-1} I] M [..]* + correction,
    with a sqrt(t - alpha) weight in the odd case; the correction charges
    only the last Hankel corner with the moment defect at order k.

    The sum is formed block by block, with w = t - alpha for odd k,
    alpha that of the sequence, and w = 1 otherwise.  Its Hankel corner,
    the same at every point, is the block Hankel matrix of the weighted
    moments sum w t^j M of mu, the correction setting its last block to
    that of the sequence.  The coupling columns are compared in the
    eigenbasis Q of that corner of P_k, where the column of P_k is the
    K(z) g - b(z) that :func:`potapov_report` decides on and the sum's
    column sum w E(t) M / (t - z) is sum K(t) w M / (t - z).  They and
    the diagonal block sum w M / |t - z|^2 come from one contraction
    over the atoms each, and ||P_k - sum||_F from the norms of the
    blocks, as Q is unitary.
    """
    data = seq.hankel()
    z = np.asarray(z, dtype=complex)
    _check_offreal(z)
    _check_index(data, n, k)
    if k == -1:
        raise ValueError("the atomic decomposition is of P_2n and P_2n+1")
    return _decomposition_residual(data, n, mu, transform(mu, z), z,
                                   k % 2 == 1)


def _decomposition_residual(data, n, mu, fz, z, odd):
    """:func:`atomic_decomposition_residual` of P_2n (P_2n+1 when
    ``odd``) from fz, the transform of mu at the points z, which the
    caller has checked."""
    q = data.q
    H, _ = _corner(data, n, odd)
    g = _weighted(data, fz, z) if odd else fz
    X, _, hnorm = _projected_column(data, n, odd, g, z)
    diag = _im_quotient(g, z)
    t = np.array([t for t, _ in mu.atoms], dtype=float)
    M = np.array([M for _, M in mu.atoms], dtype=complex)
    w = t - data.seq.alpha if odd else np.ones_like(t)
    wt = w * t ** np.arange(2 * n + 1)[:, None]         # w t^j, j = 0..2n
    moments = wt @ M.reshape(-1, q * q)
    corner = moments[np.add.outer(np.arange(n + 1), np.arange(n + 1))]
    corner = corner.reshape(n + 1, n + 1, q, q).swapaxes(1, 2).reshape(
        H.shape)
    corner[-q:, -q:] += H[-q:, -q:] - moments[-1].reshape(q, q)
    # In H's eigenbasis the sum's coupling column, sum w E(t) M / (t - z)
    # with E(t) = col(t^j I_q), is sum K(t) w M / (t - z), for the K of
    # the coupling X = Q* c(z) reads.
    K = data._once(("coupling", odd, n), lambda: _coupling(data, n, odd))[1]
    KwM = (np.vander(t, n + 1, increasing=True) @ K).reshape(
        len(t), -1, q) @ (w[:, None, None] * M)
    d = t - z[..., None]
    col = ((1.0 / d) @ KwM.reshape(len(t), -1)).reshape(X.shape)
    diag_sum = ((w / np.abs(d) ** 2) @ M.reshape(-1, q * q)).reshape(
        diag.shape)
    resid = _block_norm(np.linalg.norm(H - corner), X - col, diag - diag_sum)
    return (resid / (1.0 + _block_norm(hnorm, X, diag)))[()]
