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
from .resolvent import MatrixPolynomial, resolvent_poly

_IM_GUARD = 1e-8


class FunctionSamples:
    """An evaluable q x q matrix function handle."""

    def __init__(self, evaluator, q=1, label="f"):
        self.evaluator = evaluator
        self.q = q
        self.label = label

    def __call__(self, z):
        val = np.atleast_2d(np.asarray(self.evaluator(z), dtype=complex))
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{self.label}({z}) is not finite")
        return val

    def conjugate_reflection(self):
        """The function z -> f(conj z)* on the reflected domain."""
        return FunctionSamples(
            lambda z: self(np.conj(z)).conj().T, self.q,
            label=f"{self.label}_reflected")


def _check_offreal(z):
    if abs(z.imag) < _IM_GUARD:
        raise ValueError("the fundamental matrices are only defined off R")


def _corner(data, n, odd):
    """Hankel corner and coupling column of P_2n: (H_n, u_n); of P_2n+1
    (``odd``): (Hs_n, -alpha u_n - y_{0,n})."""
    seq = data.seq
    u = -stack_y(seq, -1, n - 1)
    if not odd:
        return data.H[n], u
    return data.Hs[n], -seq.alpha * u - stack_y(seq, 0, n)


def _column_data(data, n, fz, RT, z, odd):
    """Hankel corner, interior column R_T(z)(v g - c) and diagonal value
    of P_k from fz = f(z) and RT = R_T(z), with g = fz for k = 2n and
    g = (z - alpha) fz for k = 2n + 1 (``odd``)."""
    H, c = _corner(data, n, odd)
    g = (z - data.seq.alpha) * fz if odd else fz
    col = RT @ (first_column_embedding(data.q, n) @ g - c)
    diag = (g - g.conj().T) / (z - np.conj(z))
    return H, col, diag


def _fundamental(data, n, k, fz, RT, z):
    """P_k from fz = f(z) and RT = R_T(z)."""
    if k == -1:
        g = (z - data.seq.alpha) * fz
        return (g - g.conj().T) / (z - np.conj(z))
    H, col, diag = _column_data(data, n, fz, RT, z, odd=(k % 2 == 1))
    return np.block([[H, col], [col.conj().T, diag]])


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
    if k != -1:
        if k not in (2 * n, 2 * n + 1):
            raise ValueError(f"index k = {k} does not match level n = {n}")
        if k > data.seq.m:
            raise ValueError(f"P_{k} needs moments up to s_{k}")
    return _fundamental(data, n, k, f(z), shift_resolvent(data.q, n, z), z)


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
    _, col, diag = _column_data(data, n, f(z), shift_resolvent(data.q, n, z),
                                z, odd)
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
    q = data.q
    RT = shift_resolvent(q, n, z)
    H, col, _ = _column_data(data, n, f(z), RT, z, odd=(k % 2 == 1))
    T = shift_matrix(q, n)
    v = first_column_embedding(q, n)
    F = H @ T.conj().T @ RT.T + col @ v.conj().T @ RT.T
    _check_offreal(z)
    Q = np.block([[H, F],
                  [F.conj().T, (F - F.conj().T) / (z - np.conj(z))]])
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


def congruence_check(seq, n, f, z, tol=DEFAULT_TOL):
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
    """Evaluate lambda_min of P_2n, P_2n+1, P_-1 over a non-real grid,
    from one value of f and of R_T(z) per point."""
    data = hankel_data(seq, n)
    grid = [complex(z) for z in grid]
    if not grid:
        raise ValueError("empty evaluation grid")
    lmin_even, lmin_odd, lmin_end = [], [], []
    passed = True
    for z in grid:
        _check_offreal(z)
        fz = f(z)
        RT = shift_resolvent(data.q, n, z)
        for k, store in ((2 * n, lmin_even), (2 * n + 1, lmin_odd),
                         (-1, lmin_end)):
            if k > data.seq.m:
                store.append(None)
                continue
            P = _fundamental(data, n, k, fz, RT, z)
            Ph = 0.5 * (P + P.conj().T)
            lam = float(np.linalg.eigvalsh(Ph).min())
            store.append(lam)
            scale = 1.0 + np.linalg.norm(P)
            if lam < -tol.tol_psd * scale:
                passed = False
    return PotapovReport(points=grid, lmin_even=lmin_even,
                         lmin_odd=lmin_odd, lmin_endpoint=lmin_end,
                         passed=passed)


def atomic_decomposition_residual(seq, n, mu, z, k, tol=DEFAULT_TOL):
    """Residual of the exact integral decomposition of P_k for an atomic
    measure mu whose transform plays the role of f.

    P_2n[S](z) = sum_k [E(t); (t - conj z)^{-1} I] M [..]* + correction,
    with a sqrt(t - alpha) weight in the odd case; the correction charges
    only the last Hankel corner with the moment defect at order k.
    """
    from .stieltjespairs import transform
    data = hankel_data(seq, n)
    seq = data.seq
    z = complex(z)
    _check_offreal(z)
    q = seq.q
    f = FunctionSamples(lambda zz: transform(mu, zz), q)
    P = potapov_matrix(data, n, f, z, k)
    odd = (k % 2 == 1)
    total = np.zeros_like(P)
    from .resolvent import monomial_stack
    s_top = np.zeros((q, q), dtype=complex)
    for t, M in mu.atoms:
        E = monomial_stack(q, n, t)
        colblk = np.vstack([E, (1.0 / (t - np.conj(z))) * np.eye(q)])
        weight = (t - mu.alpha) if odd else 1.0
        total += weight * (colblk @ M @ colblk.conj().T)
        s_top += (t ** k) * M if not odd else \
            (t - mu.alpha) * (t ** (2 * n)) * M
    vg = last_column_embedding(q, n)
    corr_col = np.vstack([vg, np.zeros((q, q), dtype=complex)])
    if odd:
        defect = (-seq.alpha * seq.s(2 * n) + seq.s(2 * n + 1)) - s_top
    else:
        defect = seq.s(k) - s_top
    total += corr_col @ defect @ corr_col.conj().T
    return np.linalg.norm(P - total) / (1.0 + np.linalg.norm(P))
