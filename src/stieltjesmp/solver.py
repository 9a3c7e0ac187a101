"""Degeneracy classification and the linear-fractional solution map.

Given a Stieltjes-extendable moment sequence, this module computes the
degeneracy ranks (m, ell, r), builds the unitary frame W aligning the
two defect subspaces, lifts low-dimensional parameter pairs into the
full-size degenerate structure, decides from the defect subspaces
whether a pair is in the restricted class, forms the linear fractional
transformation of the resolvent matrix that produces solutions of the
truncated moment problem, reads the one solution of completely
degenerate data from its Gauss rule, and verifies candidate solutions.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    _fro,
    _psd_margin,
    _rank,
    hermitize,
    right_divide,
)
from .momentseq import HankelData, resolvent_column
from .potapov import potapov_report
from .resolvent import MatrixPolynomial, standard_grid
from .stieltjespairs import (
    _SLIT_GUARD,
    AtomicMeasure,
    StieltjesPair,
    moments_of,
    transform,
)

# Below it, z^j stays under 1e300 to deg Theta = 12 (n = 11); from it on, a
# point of S is read from the powers of 1 / z, which cannot overflow.
_FAR = 1e25


@dataclass
class ClassificationReport:
    """Degeneracy data of a sequence at level n.

    m and ell are the ranks of the two defect products, r = q - m - ell;
    U and V are orthonormal bases (q x m and q x ell) of the
    corresponding orthogonal subspaces of C^q and W is the unitary frame
    [complement | U | V] (or [U | V] when r = 0); every report of level
    n shares these arrays through the Hankel data's memo: do not mutate.
    ``tol`` and ``data``, the sequence's tolerance and the Hankel data
    the report keeps alive for later calls, are left out of ``to_dict``.
    """

    m: int
    ell: int
    r: int
    case: str
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    tol: ToleranceConfig = DEFAULT_TOL
    data: HankelData = field(default=None, repr=False, compare=False)

    def to_dict(self):
        return {
            "m": self.m,
            "ell": self.ell,
            "r": self.r,
            "case": self.case,
            "U_basis": jsonio.matrix_to_json(self.U),
            "V_basis": jsonio.matrix_to_json(self.V),
            "W": jsonio.matrix_to_json(self.W),
        }


def _defect_subspace(N, X, ref, tol):
    """An orthonormal basis of the row space of N N* X (a subspace of
    C^q), N a null basis, and its rank under the ``_rank`` rule relative
    to ``ref``: {0}, with no SVD, for an empty N."""
    if not N.shape[1]:
        return np.zeros((X.shape[1], 0), dtype=complex), 0
    _, s, vh = np.linalg.svd(N @ (N.conj().T @ X), full_matrices=False)
    r = _rank(s, tol, ref)
    return vh[:r].conj().T, r


def _defects(data, n):
    """(U, m, V, ell, W): the defect subspaces of level n, their ranks
    and the frame W = [complement | U | V], kept on the sequence's
    Hankel data: the row spaces of (I - H^+ H) R_T(alpha) v and
    (I - Hs^+ Hs) H v, formed as N N* R_T(alpha) v and Ns Ns* H v from
    the null bases of H_n and Hs_n, each ranked relative to the block
    R_T(alpha) v = col(alpha^j I_q) or H_n v that its projector acts on."""
    def defects():
        q, tol = data.q, data.seq.tol
        data.check_level(n, shifted=True)
        N, Ns = data.factor(n).null, data.shift.factor(n).null
        Rv, Hv = resolvent_column(data.seq.alpha, q, n), data.H[n][:, :q]
        U, m = _defect_subspace(N, Rv, np.sqrt(q * np.sum(
            abs(data.seq.alpha) ** (2.0 * np.arange(n + 1)))), tol)
        V, ell = _defect_subspace(Ns, Hv, np.linalg.norm(Hv), tol)
        if m + ell > q:
            raise ValueError("defect ranks exceed q; inconsistent input")
        cols = [U, V]
        if m + ell == 0:            # I - UU* - VV* = I, its own complement
            cols.insert(0, np.eye(q, dtype=complex))
        elif m + ell < q:
            P = np.eye(q, dtype=complex) - U @ U.conj().T - V @ V.conj().T
            comp, s, _ = np.linalg.svd(P, full_matrices=False)
            if _rank(s, tol) != q - m - ell:
                raise ValueError("complement dimension mismatch")
            cols.insert(0, comp[:, :q - m - ell])
        return U, m, V, ell, np.hstack(cols)
    return data._once(("defects", n), defects)


def classify(seq, n):
    """Compute (m, ell, r), the defect subspaces, and the frame W.

    Each call returns a new report, assembled from the defects kept in
    the memo of the sequence's Hankel data, which the report holds:
    while the data lives, nothing is computed again.
    """
    data = seq.hankel()
    U, m, V, ell, W = _defects(data, n)
    r = seq.q - m - ell
    if m == 0 and ell == 0:
        case = "NonDegenerate"
    elif r == 0:
        case = "CompletelyDegenerate"
    else:
        case = "Degenerate"
    return ClassificationReport(m=m, ell=ell, r=r, case=case, U=U, V=V, W=W,
                                tol=seq.tol, data=data)


def lift_pair(report, inner=None):
    """Lift an r x r parameter pair into the full q x q structure.

    Non-degenerate data returns the inner pair unchanged; degenerate
    data wraps it in the lifted block pattern with the frame W; the
    completely degenerate case ignores ``inner`` and returns the fixed
    constant pair determined by W, under the tolerance of the report.
    """
    if report.case == "NonDegenerate":
        if inner is None:
            raise ValueError("non-degenerate lift needs an inner pair")
        return inner
    if report.case == "CompletelyDegenerate":
        # W = [U | V]: phi = W diag(0_m, I_ell), psi = W diag(I_m, 0_ell)
        on_v = np.arange(report.W.shape[1]) >= report.m
        return StieltjesPair.constant(report.W * on_v, report.W * ~on_v,
                                      report.tol)
    if inner is None:
        raise ValueError(f"inner pair must be {report.r} x {report.r}")
    return StieltjesPair.lifted(report.W, inner, report.m, report.ell)


class SolutionFunction:
    """Evaluable solution S(z) of the truncated moment problem.

    Wraps the resolvent matrix and an admissible parameter pair; the
    value is the linear fractional transformation
    (Theta11 phi + Theta12 psi)(Theta21 phi + Theta22 psi)^{-1}.
    With the pair's column [phi; psi](z) = C K(z) (``_affine_parts``;
    C = B, K = I_q without f), construction multiplies Theta out once
    into P = Theta C, and a call divides the top q rows of N(z) = P(z)
    K(z) by its bottom q rows, evaluating neither Theta nor f.  The
    weights of f stay in K, meeting P(z) after its sum over the powers
    of z: folded into P, they made S up to 50 times less accurate.
    """

    def __init__(self, resolvent, pair):
        self.resolvent, self.pair = resolvent, pair
        self.q, self._tol = resolvent.q, resolvent.data.seq.tol
        C = pair.B
        if pair.f is not None:
            C, K, self._t = _affine_parts(pair)
            self._K, self._M = K[0], K[1:].reshape(len(K) - 1, K[0].size)
        self._P = MatrixPolynomial(resolvent.theta.coeffs @ C)

    def __call__(self, z):
        """S(z) at a point (q x q), taken as a Python complex; at an array
        of points (any shape), S at each point in turn, a z.shape + (q, q)
        stack.  A point on an atom raises the error of ``transform``, a
        denominator singular by ``right_divide`` one naming the point, and
        a NaN point one saying that it is not finite.  A point with |z| >=
        ``_FAR`` takes z^-d N(z), which has the same S."""
        if not isinstance(z, (complex, float, int)) and np.ndim(z):
            return _each_point(self, z)
        P, z = self._P, complex(z)
        if abs(z) < _FAR:
            N = (z ** P._exps @ P._flat).reshape(P.shape)
        else:       # z^-d N(z), d = deg P, from the powers of 1 / z
            if not cmath.isfinite(1 / z):   # a NaN fails abs(z) < _FAR
                raise ValueError(f"point z = {z} is not finite")
            F = P._flat[:np.flatnonzero(P._flat.any(axis=1))[-1] + 1]
            N = ((1 / z) ** P._exps[len(F) - 1::-1] @ F).reshape(P.shape)
        if self.pair.f is not None:     # N(z) = P(z) K(z)
            d = self._t - z
            if (abs(z.imag) <= _SLIT_GUARD      # |t - z| >= |Im z|
                    and np.abs(d).min(initial=np.inf) <= _SLIT_GUARD):
                self.pair.f(z)          # raises the error of transform
            N = N @ (self._K + ((1.0 / d) @ self._M).reshape(self._K.shape))
        S, ok = right_divide(N, self._tol)
        if not ok:
            raise ValueError(f"singular LFT denominator at z = {z}")
        return S


def _each_point(S, z):
    """S at each point of an array z (any shape) in turn, a z.shape + (q, q)
    stack: bit for bit S at each point alone."""
    return np.array([S(w) for w in np.ravel(z)], dtype=complex).reshape(
        np.shape(z) + (S.q, S.q))


def _affine_parts(p):
    """C = [B | E], K_0 = [I_q; gamma [I_k, 0]], the K_i = [0; M_i [I_k,
    0]] and the t_i of a pair on f = gamma + sum M_i / (t_i - z), whose
    column is B + E f(z) [I_k, 0] = C (K_0 + sum K_i / (t_i - z))."""
    q, k, mu = p.q, p.f.q, p.f.measure
    K = np.zeros((1 + len(mu.atoms), q + k, q), dtype=complex)
    K[0, :q], K[1:, q:, :k] = np.eye(q), mu.weights
    if p.f.gamma is not None:
        K[0, q:, :k] = p.f.gamma
    return np.concatenate([p.B, p.E], axis=1), K, mu.positions


def _on_half_line(mu, alpha):
    """Whether the atoms of ``mu`` lie on [alpha, oo), up to
    ``_SLIT_GUARD``: they are sorted, so the first one decides."""
    return all(t >= alpha - _SLIT_GUARD for t, _ in mu.atoms[:1])


def pair_in_restricted_class(p, seq, n):
    """Whether phi vanishes on the defect subspace U and psi on V of
    ``classify(seq, n)``, decided under ``seq.tol``; no report is built.
    A pair of another size than the sequence's q raises ``ValueError``.

    A pair on f = gamma + sum M_i / (t_i - z) with an atom t_i below
    ``seq.alpha`` (by the support rule of ``verify_solution``) is in no
    class.  On non-degenerate data (m = ell = 0) U and V are {0} and
    every other pair is in the class, so its coefficients are not read.
    Otherwise, as the poles of f are distinct (the measure merges
    duplicate atoms), [phi; psi] = B + E f [I_k, 0] is a constant plus
    linearly independent partial fractions.  So U* phi vanishes
    identically exactly when U* C_phi = 0, and V* psi when V* C_psi = 0,
    for the top and bottom halves of the coefficient block
    C = [B + E gamma [I_k, 0] | E M_1 [I_k, 0] | ... ].  The bound is
    relative to |C|, so the verdict does not change when the pair is
    scaled.
    """
    _check_size("pair", p.q, seq.q)
    U, m, V, ell, _ = _defects(seq.hankel(), n)
    if p.f is not None and not _on_half_line(p.f.measure, seq.alpha):
        return False
    if m == ell == 0:
        return True
    C = p.B
    if p.f is not None:         # [C K_0 | C K_1 | ... | C K_a]
        C = np.hstack(np.matmul(*_affine_parts(p)[:2]))
    bound = 10 * seq.tol.tol_identity * _fro(C)
    return bool(_fro(U.conj().T @ C[:p.q]) <= bound
                and _fro(V.conj().T @ C[p.q:]) <= bound)


def _check_size(what, k, q):
    """Refuse a k x k pair or measure for q x q moment data."""
    if k != q:
        raise ValueError(f"{what} is {k} x {k}, the moment data {q} x {q}")


def lft_solution(R, p, seq=None, n=None):
    """Build the solution function for a pair in the restricted class.

    The pair is gated at level n of ``seq``, by default the level and
    the sequence R was built from; a pair outside the class raises
    ``ValueError``.  The gate reads the defects of ``seq`` kept in the
    memo of its Hankel data, which R holds, so on R's own sequence it
    factors and classifies nothing again.  A pair of another size than
    R's q raises ``ValueError`` before the gate.
    """
    _check_size("pair", p.q, R.q)
    seq = R.data.seq if seq is None else seq
    if not pair_in_restricted_class(p, seq, R.n if n is None else n):
        raise ValueError("pair is not in the restricted class for "
                         "this sequence")
    return SolutionFunction(R, p)


def unique_solution(seq, n):
    """The single solution in the completely degenerate case.

    Classification must yield r = 0 and the sequence be in K>=e; the
    solution is then the transform of the Gauss rule of H_n, kept in the
    memo of the sequence's Hankel data, which the result holds: while it
    lives, nothing is classified or built twice.  No resolvent is built
    and no LFT is formed.
    """
    report = classify(seq, n)
    if report.case != "CompletelyDegenerate":
        raise ValueError("unique_solution needs the completely degenerate "
                         f"case, got {report.case}")
    data = report.data
    return _RuleTransform(data._once(("unique", n),
                                     lambda: _gauss_rule(data, n)), data)


def _gauss_rule(data, n):
    """The block Gauss rule of H_n on range(H_n) (Sinap and Van Assche,
    J. Comput. Appl. Math. 66, 1996), refused outside K>=e.  B, the kept
    D-scaled eigenvectors of H_n's factor over sqrt(w), has B* H_n B = I;
    with B* Hs_n B = Y diag(u) Y*, the atoms are alpha + max(u, 0) (Hs_n
    is PSD: a negative u is rounding, which would put an atom at alpha
    below it), with the weights g_k g_k*, g_k the columns of H_n[:q] B Y.
    """
    if not data.in_Kgeq_e():
        raise ValueError("sequence is not Stieltjes-extendable (not in K>=e)")
    f, q, seq = data.factor(n), data.q, data.seq
    B = f._kept / np.sqrt(f.w[:f.rank])
    u, Y = np.linalg.eigh(B.conj().T @ data.shift.H[n] @ B)
    G = (data.H[n][:q] @ B @ Y).T
    return AtomicMeasure(seq.alpha, q, zip(seq.alpha + np.maximum(u, 0.0),
                                           G[:, :, None] * G[:, None].conj()),
                         seq.tol)


class _RuleTransform:
    """The unique solution S(z) = transform(measure, z), holding the Hankel
    data ``data``; an array of points (any shape) is S at each in turn."""

    def __init__(self, measure, data):
        self.measure, self.data, self.q = measure, data, measure.q

    def __call__(self, z):
        if not isinstance(z, (complex, float, int)) and np.ndim(z):
            return _each_point(self, z)
        return transform(self.measure, z)


def recover_s0(S):
    """Estimate sigma([alpha, oo)) = s_0 from -iy S(iy) at y = 1e6."""
    y = 1e6
    val = -1j * y * S(1j * y)
    return 0.5 * (val + val.conj().T)


def verify_solution(seq, n, candidate):
    """Verification report for a measure or a solution function.

    A measure solves the problem when it lives on [alpha, oo), alpha
    that of the sequence, its moments match s_j exactly for j <= 2n and
    the Loewner defect s_2n+1 - its moment of order 2n + 1 is PSD; it is
    decided on these three checks (``support``, ``moment_match``,
    ``top_defect_psd``) alone, from its positions and ``moments_of``.
    A function candidate, such as a ``SolutionFunction``, is called once
    with ``standard_grid(seq.alpha)`` as a 1-D array and returns the
    (G, q, q) stack of its values, which the fundamental-matrix report
    reads; s_0 is recovered from it at a single large imaginary point.
    The report reads the Hankel data of ``seq``, alive while any result
    on it is held.
    A measure needs 2n + 1 <= m (its checks read s_2n+1), a function 2n <= m,
    and a measure of another size than the sequence's q raises ``ValueError``.
    """
    seq.hankel().check_level(n, shifted=isinstance(candidate, AtomicMeasure))
    tol = seq.tol
    out = {"valid": True, "checks": {}}
    if isinstance(candidate, AtomicMeasure):
        _check_size("measure", candidate.q, seq.q)
        s = seq.moments
        mom = moments_of(candidate, 2 * n + 1).moments
        worst = float(np.max(_fro(mom[:-1] - s[:2 * n + 1])
                             / (1.0 + _fro(s[:2 * n + 1]))))
        match = worst <= 100 * tol.tol_identity
        defect = hermitize(s[2 * n + 1] - mom[-1], tol, "top moment defect")
        lam = float(np.linalg.eigvalsh(defect).min())
        defect_ok = lam >= -_psd_margin(tol, np.linalg.norm(s[2 * n + 1]))
        support = _on_half_line(candidate, seq.alpha)
        out["checks"]["moment_match_residual"] = worst
        out["checks"]["moment_match"] = match
        out["checks"]["top_defect_lambda_min"] = lam
        out["checks"]["top_defect_psd"] = bool(defect_ok)
        out["checks"]["support"] = support
        out["valid"] = bool(match and defect_ok and support)
        return out
    # SolutionFunction (or any function of a 1-D array of points)
    grid = standard_grid(seq.alpha)
    rep = potapov_report(seq, n, candidate(np.asarray(grid, dtype=complex)),
                         grid)
    s0_est = recover_s0(candidate)
    s0 = seq.moments[0]
    s0_resid = float(np.linalg.norm(s0_est - s0) / (1.0 + np.linalg.norm(s0)))
    out["checks"]["potapov_passed"] = rep.passed
    out["checks"]["s0_recovery_residual"] = s0_resid
    out["valid"] = bool(rep.passed and s0_resid <= 1e-4)
    out["potapov"] = rep.to_dict()
    return out
