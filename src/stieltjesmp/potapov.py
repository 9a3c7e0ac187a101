"""Fundamental block-matrix inequalities for half-line moment data.

For a candidate solution function f, the matrices P_k[f](z) couple the
block Hankel data of the moment sequence with the values of f; their
joint positive semidefiniteness off the real axis characterizes
solutions of the truncated moment problem.  This module decides that
positivity on a grid (``potapov_report``) for ``verify_solution`` on a
function candidate; a measure is decided by its support and moments.
The P_k themselves, their Schur complements Sigma_k, the F_k/Q_k/Psi_k
matrices, the congruences connecting them and the atomic decomposition
of P_k for a measure are test oracles, in ``tests/identities.py``.

The P_k are defined off R only.  P_2n[g] has the Hankel corner H_n,
the coupling column c = R_T(z)(v g - c_0) and the diagonal block (g -
g*) / (z - conj z), and P_2n[f] is it at g = f(z).  P_2n+1[f] is
P_2n[(z - alpha) f + s_0] of the right-alpha-shifted sequence, whose
diagonal block (s_0 is Hermitian) is the endpoint block P_-1[f], that
of g = (z - alpha) f; so only P_2n is built, on ``data`` or its shift.

``potapov_report`` decides P_k >= 0 on a grid without forming P_k: up
to a margin tau, P_k + tau I >= 0 holds exactly when the Hankel corner
H + tau I is positive definite and the q x q Schur complement
Sigma^tau_k = d - c* (H + tau I)^-1 c has no eigenvalue below -tau.
With H = Q diag(w) Q*, the coupling column is a polynomial in z, so
X = Q* c = K(z) g - b(z) for two N x q matrix polynomials built once
per level from Q and the stack T^j [v, c_0] (``momentseq.shift_stack``):
a point costs one (N x q)(q x q) product and a q x q eigenvalue
problem.  As Q is unitary, ||c||_F = ||X||_F, so ||P_k||_F is read from
the norms of its blocks, sqrt(||H||^2 + 2 ||X||^2 + ||d||^2).
"""

from dataclasses import dataclass

import numpy as np

from .matcore import _fro, _psd_margin
from .momentseq import shift_stack, stack_y
from .resolvent import MatrixPolynomial

_IM_GUARD = 1e-8


def _adjoint(A):
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(A, -1, -2).conj()


def _im_quotient(g, z):
    """(g - g*) / (z - conj z) at the points z (an array, 0-d for one
    point), for g the stack of values there.  It is Hermitian as it
    stands: g - g* is skew-Hermitian entry by entry, and z - conj z has
    real part exactly 0."""
    return (g - _adjoint(g)) / (z - np.conj(z))[..., None, None]


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


def _coupling(data, n):
    """The Hankel corner H = H_n of P_2n, factored as H = Q diag(w) Q*,
    and the coupling polynomials of its column.

    The column c(z) = R_T(z)(v g - c_0) = sum_j z^j T^j (v g - c_0),
    with c_0 = u_n = -col(0, s_0, ..., s_{n-1}), so Q* c(z) = K(z) g -
    b(z) with K_j = Q* T^j v = Q*[:, jq:(j+1)q] and b_j = Q* T^j c_0,
    both read from one stack T^j [v, c_0].  Returns w, K and b as N x q
    matrix polynomials, and ||H||_F.
    """
    H, q = data.H[n], data.q
    c = np.zeros((len(H), q), dtype=complex)
    c[q:] = -stack_y(data.seq.moments, 0, n - 1)
    w, Q = np.linalg.eigh(H)
    Kb = Q.conj().T @ shift_stack(np.hstack([np.eye(len(H), q), c]), q)
    return (w, MatrixPolynomial(Kb[..., :q]), MatrixPolynomial(Kb[..., q:]),
            np.linalg.norm(H))


def _potapov_test(data, n, g, diag, z, tol):
    """Per point of the 1-D array z: the reported value of P_2n[g] of
    ``data`` (see :class:`PotapovReport`) and whether it fails the test,
    from g and the diagonal block diag = (g - g*) / (z - conj z).

    The coupling (:func:`_coupling`) is built once per level, in the
    ``("coupling", n)`` memo of ``data``; a point costs X = K(z) g - b(z).
    With tau the margin of the point, Y = (w + tau)^(-1/2) X and Sigma^tau
    = diag - Y* Y, whose eigenvalues take one call on the (G, q, q)
    stack.  Where w_min <= -tau the point fails and its value is w_min.
    """
    w, K, b, hnorm = data._once(("coupling", n), lambda: _coupling(data, n))
    X = K(z) @ g
    X -= b(z)
    tau = _psd_margin(tol, np.sqrt(
        hnorm ** 2 + 2.0 * _fro(X) ** 2 + _fro(diag) ** 2))
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
    at least -tau, tau = tol_psd (1 + ||P_k||_F) (``_psd_margin`` with
    ``seq.tol``).  For k in {2n, 2n+1} the test runs on the q x q Schur
    complement of the Hankel corner H (H_n, or Hs_n for odd k), with c
    the coupling column and d the Hermitian part of the diagonal block:
    P + tau I >= 0 holds exactly when H + tau I > 0 and its Schur
    complement d + tau I - c* (H + tau I)^-1 c >= 0 (Albert, SIAM J.
    Appl. Math. 17, 1969), that is when Sigma^tau = d - c* (H + tau
    I)^-1 c has lambda_min >= -tau.  Where lambda_min(H) <= -tau the
    point fails, since by interlacing lambda_min(P_k) <= lambda_min(H).
    P_2n+1 is tested as P_2n of the shifted sequence (see the module).
    H is factored once per level on the Hankel data it belongs to, not
    per report, and no (n+2)q x (n+2)q matrix is formed.  P_-1 is
    already q x q and is tested directly.
    Far from R the test is not decided reliably: Sigma cancels once |c|
    grows like |z|^n, and at n = 3 a generating measure fails at 1e5j.

    A grid point that is not finite raises ``ValueError`` naming it, and
    so do a point within ``_IM_GUARD`` of R, an ``fz`` of another shape
    than (len(grid), q, q) and a value that is not finite, naming the
    first such point.
    """
    data = seq.hankel()
    data.check_level(n)
    tol = seq.tol
    grid = [complex(z) for z in grid]
    if not grid:
        raise ValueError("empty evaluation grid")
    z = np.array(grid)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"grid point {grid[np.argmin(finite)]} is not "
                         f"finite")
    if np.any(np.abs(np.imag(z)) < _IM_GUARD):
        raise ValueError("the fundamental matrices are only defined off R")
    fz = np.asarray(fz, dtype=complex)
    shape = (len(grid), seq.q, seq.q)
    if fz.shape != shape:
        raise ValueError(f"values of shape {fz.shape}, expected {shape}")
    finite = np.isfinite(fz).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"f({grid[np.argmin(finite)]}) is not finite")
    weighted = (z - seq.alpha)[..., None, None] * fz
    endpoint = _im_quotient(weighted, z)
    forms = [(data, fz, _im_quotient(fz, z))]
    if 2 * n + 1 <= seq.m:
        forms.append((data.shift, weighted + seq.moments[0], endpoint))
    tests = [_potapov_test(d, n, g, diag, z, tol) for d, g, diag in forms]
    lam = np.linalg.eigvalsh(endpoint).min(axis=-1)
    tests.append((lam, lam < -_psd_margin(tol, _fro(endpoint))))
    smin = [lam.tolist() for lam, _ in tests]
    return PotapovReport(
        points=grid, smin_even=smin[0],
        smin_odd=smin[1] if len(smin) == 3 else [None] * len(grid),
        smin_endpoint=smin[-1],
        passed=not any(failed.any() for _, failed in tests))
