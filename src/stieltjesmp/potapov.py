"""Fundamental block-matrix inequalities for half-line moment data.

For a candidate solution function f, the matrices P_k[f](z) couple the
block Hankel data of the moment sequence with the values of f; their
joint positive semidefiniteness off the real axis characterizes
solutions of the truncated moment problem.  This module assembles the
P_k, their Schur complements Sigma_k, the auxiliary F_k/Q_k/Psi_k
matrices, and the congruence identities connecting all of them, each of
which doubles as an independent test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOL
from .momentseq import (
    first_column_embedding,
    hankel_data,
    last_column_embedding,
    shift_matrix,
    shift_resolvent,
    stack_y,
)
from .resolvent import MatrixPolynomial, monomial_stack, resolvent_poly
from .stieltjespairs import StieltjesFunction

_IM_GUARD = 1e-8


class FunctionSamples:
    """An evaluable q x q matrix function handle.

    At a point it returns f(z) as a q x q matrix, at a 1-D array of G
    points a (G, q, q) stack.  An evaluator whose class sets
    ``takes_arrays`` (the library's solution and Stieltjes functions)
    gets the whole array in one call; any other evaluator is called once
    per point, in order.  A value that is not finite raises
    ``ValueError`` naming the first such point.
    """

    def __init__(self, evaluator, q=1, label="f"):
        self.evaluator = evaluator
        self.q = q
        self.label = label

    def __call__(self, z):
        if np.ndim(z) == 0:
            val = np.atleast_2d(np.asarray(self.evaluator(z), dtype=complex))
            if not np.all(np.isfinite(val)):
                raise ValueError(f"{self.label}({z}) is not finite")
            return val
        z = np.asarray(z, dtype=complex)
        if not getattr(self.evaluator, "takes_arrays", False):
            return np.stack([self(w) for w in z.tolist()])
        val = np.asarray(self.evaluator(z), dtype=complex)
        finite = np.isfinite(val).all(axis=(-2, -1))
        if not finite.all():
            first = complex(z[np.argmin(finite)])
            raise ValueError(f"{self.label}({first}) is not finite")
        return val

    def conjugate_reflection(self):
        """The function z -> f(conj z)* on the reflected domain."""
        return FunctionSamples(
            lambda z: self(np.conj(z)).conj().T, self.q,
            label=f"{self.label}_reflected")


def _check_offreal(z):
    if np.any(np.abs(np.imag(z)) < _IM_GUARD):
        raise ValueError("the fundamental matrices are only defined off R")


def _check_index(data, n, k):
    if k != -1:
        if k not in (2 * n, 2 * n + 1):
            raise ValueError(f"index k = {k} does not match level n = {n}")
        if k > data.seq.m:
            raise ValueError(f"P_{k} needs moments up to s_{k}")


def _adjoint(A):
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(A, -1, -2).conj()


def _hermitian_part(A):
    return 0.5 * (A + _adjoint(A))


def _fro(A):
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(A, axis=(-2, -1))


def _im_quotient(g, z):
    """(g - g*) / (z - conj z) at the points z (an array, 0-d for one
    point), for g the stack of values there."""
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


def _column_data(data, n, fz, z, odd):
    """Hankel corner, interior column R_T(z)(v g - c) and diagonal value
    of P_k at the points z (an array, 0-d for one point) from fz = f(z),
    with g = fz for k = 2n and g = (z - alpha) fz for k = 2n + 1
    (``odd``).  R_T(z) x is summed block by block, y_j = z y_{j-1} + x_j,
    for all points at once."""
    H, c = _corner(data, n, odd)
    g = _weighted(data, fz, z) if odd else fz
    q = data.q
    y = np.broadcast_to(-c.reshape(n + 1, q, q),
                        z.shape + (n + 1, q, q)).copy()
    y[..., 0, :, :] += g
    zc = z[..., None, None]
    for j in range(1, n + 1):
        y[..., j, :, :] += zc * y[..., j - 1, :, :]
    return H, y.reshape(z.shape + c.shape), _im_quotient(g, z)


def _fundamental(data, n, k, fz, z, hermitian=False):
    """P_k at the points z from fz = f(z), one matrix per point, and its
    Frobenius norm per point, formed from the norms of its blocks.  With
    ``hermitian`` the matrix is the Hermitian part of P_k, written block
    by block: only the Hankel corner and the diagonal block change, the
    coupling column is the same."""
    if k == -1:
        P = _im_quotient(_weighted(data, fz, z), z)
        return (_hermitian_part(P) if hermitian else P), _fro(P)
    H, col, diag = _column_data(data, n, fz, z, odd=(k % 2 == 1))
    norm = np.sqrt(np.linalg.norm(H) ** 2 + 2.0 * _fro(col) ** 2
                   + _fro(diag) ** 2)
    p = H.shape[0]
    P = np.empty(z.shape + (p + data.q, p + data.q), dtype=complex)
    P[..., :p, :p] = _hermitian_part(H) if hermitian else H
    P[..., :p, p:] = col
    np.conjugate(np.swapaxes(col, -1, -2), out=P[..., p:, :p])
    P[..., p:, p:] = _hermitian_part(diag) if hermitian else diag
    return P, norm


def potapov_matrix(seq, n, f, z, k):
    """The fundamental matrix P_k[f](z) for k in {-1, 2n, 2n+1}.

    For k = 2n the matrix couples H_n with R_T(z)(v f(z) - u_n); for
    k = 2n + 1 the shifted Hankel matrix with the (z - alpha)-weighted
    column; k = -1 gives the q x q endpoint block.  ``seq`` may be its
    :class:`~stieltjesmp.momentseq.HankelData`, as for every function
    here that takes a sequence.
    """
    data = hankel_data(seq, n)
    z = complex(z)
    _check_offreal(z)
    _check_index(data, n, k)
    return _fundamental(data, n, k, f(z), np.asarray(z))[0]


def sigma_matrix(seq, n, f, z, k, ginverse=None, tol=DEFAULT_TOL):
    """Schur complement Sigma_k[f](z) of the Hankel corner of P_k.

    Uses the Moore-Penrose inverse by default; ``ginverse`` substitutes
    any reflexive {1}-inverse of the Hankel corner (the value is
    invariant under that substitution whenever P_k is PSD).
    """
    data = hankel_data(seq, n)
    z = complex(z)
    _check_offreal(z)
    if k == -1:
        return potapov_matrix(data, n, f, z, -1)
    odd = k % 2 == 1
    _, col, diag = _column_data(data, n, f(z), np.asarray(z), odd)
    Hinv = data.pinv(n, odd, tol) if ginverse is None else ginverse
    return diag - col.conj().T @ Hinv @ col


def fq_matrices(seq, n, f, z, k):
    """The pair (F_k(z), Q_k[f](z)).

    F_2n(z) = H_n T* R_{T*}(z) + R_T(z)(v f(z) - u_n) v* R_{T*}(z) and
    the shifted analogue for odd k; Q_k stacks the Hankel corner with
    F_k and its imaginary part.
    """
    data = hankel_data(seq, n)
    z = complex(z)
    if k not in (2 * n, 2 * n + 1):
        raise ValueError(f"index k = {k} does not match level n = {n}")
    _check_offreal(z)
    q = data.q
    H, col, _ = _column_data(data, n, f(z), np.asarray(z),
                             odd=(k % 2 == 1))
    RTs = shift_resolvent(q, n, z).T
    T = shift_matrix(q, n)
    v = first_column_embedding(q, n)
    F = H @ T.conj().T @ RTs + col @ v.conj().T @ RTs
    Q = np.block([[H, F], [F.conj().T, _im_quotient(F, np.asarray(z))]])
    return F, Q


def psi_polynomial(seq, n, parity):
    """The Hermitian-on-R polynomial Psi_k for k = 2n (parity 0) or
    2n + 1 (parity 1).

    Psi_2n(z) = R_T(z)(H T* - u v* - z T H T*) R_{T*}(z), with the
    shifted Hankel matrix and coupling in the odd case.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    data = hankel_data(seq, n)
    q = data.q
    H, c = _corner(data, n, parity == 1)
    v = first_column_embedding(q, n)
    T = shift_matrix(q, n)
    mid = MatrixPolynomial([
        H @ T.conj().T - c @ v.conj().T,
        -T @ H @ T.conj().T,
    ])
    RT = resolvent_poly(q, n, adjoint=False)
    RTs = resolvent_poly(q, n, adjoint=True)
    return RT @ mid @ RTs


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
    data = hankel_data(seq, n)
    seq = data.seq
    z = complex(z)
    _check_offreal(z)
    q = seq.q
    out = {}
    gamma, delta = congruence_matrices(q, n, z)
    for k, key in ((2 * n, "even"), (2 * n + 1, "odd")):
        if k > seq.m:
            continue
        P = potapov_matrix(data, n, f, z, k)
        _, Q = fq_matrices(data, n, f, z, k)
        scale = 1.0 + np.linalg.norm(P)
        out[f"P_eq_gamma_Q_gamma_{key}"] = \
            np.linalg.norm(P - gamma @ Q @ gamma.conj().T) / scale
        out[f"Q_eq_delta_P_delta_{key}"] = \
            np.linalg.norm(Q - delta @ P @ delta.conj().T) / scale

    E = compression_embedding(q, n)
    fz = f(z)
    if 2 * n <= seq.m:
        P = potapov_matrix(data, n, f, z, 2 * n)
        target = np.block([
            [seq.s(0), fz],
            [fz.conj().T, (fz - fz.conj().T) / (z - np.conj(z))]])
        out["compression_even"] = np.linalg.norm(
            E.conj().T @ P @ E - target) / (1.0 + np.linalg.norm(P))
    if 2 * n + 1 <= seq.m:
        P = potapov_matrix(data, n, f, z, 2 * n + 1)
        g = (z - seq.alpha) * fz
        target = np.block([
            [-seq.alpha * seq.s(0) + seq.s(1), g + seq.s(0)],
            [(g + seq.s(0)).conj().T, (g - g.conj().T) / (z - np.conj(z))]])
        out["compression_odd"] = np.linalg.norm(
            E.conj().T @ P @ E - target) / (1.0 + np.linalg.norm(P))

    # conjugate reflection: P_k[f_refl](z) = X_k(z) P_k[f](conj z) X_k*(z)
    f_refl = f.conjugate_reflection()
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
        lhs = potapov_matrix(data, n, f_refl, z, k)
        rhs = X @ potapov_matrix(data, n, f, np.conj(z), k) @ X.conj().T
        out[f"reflection_{key}"] = np.linalg.norm(lhs - rhs) / \
            (1.0 + np.linalg.norm(lhs))
    return out


@dataclass
class PotapovReport:
    """Minimum-eigenvalue table of the fundamental matrices on a grid."""

    points: list
    lmin_even: list
    lmin_odd: list
    lmin_endpoint: list
    passed: bool

    def to_dict(self):
        return {
            "points": [[p.real, p.imag] for p in self.points],
            "lambda_min_even": self.lmin_even,
            "lambda_min_odd": self.lmin_odd,
            "lambda_min_endpoint": self.lmin_endpoint,
            "passed": self.passed,
        }


def potapov_report(seq, n, f, grid, tol=DEFAULT_TOL):
    """Evaluate lambda_min of P_2n, P_2n+1, P_-1 over a non-real grid.

    f is called once with the whole grid.  Each P_k is assembled for all
    points as one stack of Hermitian parts, whose eigenvalues take one
    call; the stack is dropped before the next k.  A point passes when
    lambda_min >= -tol_psd (1 + ||P_k||).
    """
    data = hankel_data(seq, n)
    grid = [complex(z) for z in grid]
    if not grid:
        raise ValueError("empty evaluation grid")
    z = np.array(grid)
    _check_offreal(z)
    fz = f(z)
    lmin = {}
    passed = True
    for k in (2 * n, 2 * n + 1, -1):
        if k > data.seq.m:
            lmin[k] = [None] * len(grid)
            continue
        P, norm = _fundamental(data, n, k, fz, z, hermitian=True)
        lam = np.linalg.eigvalsh(P).min(axis=-1)
        del P
        if np.any(lam < -tol.tol_psd * (1.0 + norm)):
            passed = False
        lmin[k] = lam.tolist()
    return PotapovReport(points=grid, lmin_even=lmin[2 * n],
                         lmin_odd=lmin[2 * n + 1], lmin_endpoint=lmin[-1],
                         passed=passed)


def atomic_decomposition_residual(seq, n, mu, z, k):
    """Residual of the exact integral decomposition of P_k for an atomic
    measure mu whose transform plays the role of f: a number at a point
    z, an array of residuals at a 1-D array of points, computed for all
    of them at once.

    P_2n[S](z) = sum_k [E(t); (t - conj z)^{-1} I] M [..]* + correction,
    with a sqrt(t - alpha) weight in the odd case; the correction charges
    only the last Hankel corner with the moment defect at order k.
    """
    data = hankel_data(seq, n)
    seq = data.seq
    z = np.asarray(z, dtype=complex)
    _check_offreal(z)
    _check_index(data, n, k)
    q = seq.q
    f = FunctionSamples(StieltjesFunction(None, mu), q)
    P, _ = _fundamental(data, n, k, f(z), z)
    odd = (k % 2 == 1)
    total = np.zeros_like(P)
    s_top = np.zeros((q, q), dtype=complex)
    eye = np.eye(q)
    for t, M in mu.atoms:
        E = monomial_stack(q, n, t)
        colblk = np.concatenate(
            [np.broadcast_to(E, z.shape + E.shape),
             (1.0 / (t - np.conj(z)))[..., None, None] * eye], axis=-2)
        weight = (t - mu.alpha) if odd else 1.0
        total += weight * (colblk @ M @ _adjoint(colblk))
        s_top += (t ** k) * M if not odd else \
            (t - mu.alpha) * (t ** (2 * n)) * M
    vg = last_column_embedding(q, n)
    corr_col = np.vstack([vg, np.zeros((q, q), dtype=complex)])
    if odd:
        defect = (-seq.alpha * seq.s(2 * n) + seq.s(2 * n + 1)) - s_top
    else:
        defect = seq.s(k) - s_top
    total += corr_col @ defect @ corr_col.conj().T
    return (_fro(P - total) / (1.0 + _fro(P)))[()]
