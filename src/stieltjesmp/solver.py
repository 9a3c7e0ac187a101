"""Degeneracy classification and the linear-fractional solution map.

Given a Stieltjes-extendable moment sequence, this module computes the
degeneracy ranks (m, ell, r), builds the unitary frame W aligning the
two defect subspaces, lifts low-dimensional parameter pairs into the
full-size degenerate structure, forms the linear fractional
transformation of the resolvent matrix that produces solutions of the
truncated moment problem, and verifies candidate solutions.
"""

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .matcore import (
    DEFAULT_TOL,
    Subspace,
    projector,
    subspace_from_columns,
)
from .momentseq import hankel_data
from .potapov import FunctionSamples, atomic_decomposition_residual, \
    potapov_report
from .resolvent import build_resolvent, eval_theta, standard_grid
from .stieltjespairs import (
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    pair_eval,
    pair_in_restricted_class,
)


@dataclass
class ClassificationReport:
    """Degeneracy data of a sequence at level n.

    m and ell are the ranks of the two defect products, r = q - m - ell;
    U and V are the corresponding orthogonal subspaces of C^q and W is
    the unitary frame [complement | U | V] (or [U | V] when r = 0).
    """

    m: int
    ell: int
    r: int
    case: str
    U: Subspace
    V: Subspace
    W: np.ndarray

    def to_dict(self):
        return {
            "m": self.m,
            "ell": self.ell,
            "r": self.r,
            "case": self.case,
            "U_basis": jsonio.matrix_to_json(self.U.basis),
            "V_basis": jsonio.matrix_to_json(self.V.basis),
            "W": jsonio.matrix_to_json(self.W),
        }


def _defect_subspace(A, q, cutoff):
    """Row space of ``A`` (a subspace of C^q) with an absolute singular
    value cutoff; returns (subspace, rank)."""
    if A.size == 0:
        return Subspace(q, np.zeros((q, 0))), 0
    _, s, vh = np.linalg.svd(A)
    r = int(np.count_nonzero(s > cutoff))
    return Subspace(q, vh[:r].conj().T), r


def classify(seq, n, tol=None, basis_rotation=None):
    """Compute (m, ell, r), the defect subspaces, and the frame W.

    ``basis_rotation`` optionally post-rotates the orthonormal bases of
    U and V by given unitaries (used to confirm basis independence of
    downstream results); the subspaces themselves are unchanged.
    ``seq`` may be its :class:`~stieltjesmp.momentseq.HankelData`.
    """
    data = hankel_data(seq)
    seq = data.seq
    tol = tol or seq.tol
    q = seq.q
    A_phi, A_psi = data.restriction_products(n, tol)
    # Rank cutoffs are absolute relative to the ingredient scale: the
    # defect products vanish identically for nondegenerate data, and a
    # cutoff relative to their own largest singular value would then
    # count pure numerical noise as rank.
    scale = 1.0 + np.linalg.norm(seq.s(0)) + abs(seq.alpha)
    cutoff = max(tol.tol_rank, 1e3 * np.finfo(float).eps) * scale
    U, m = _defect_subspace(A_phi, q, cutoff)
    V, ell = _defect_subspace(A_psi, q, cutoff)
    r = q - m - ell
    if r < 0:
        raise ValueError("defect ranks exceed q; inconsistent input")
    if basis_rotation is not None:
        RU, RV = basis_rotation
        U = Subspace(q, U.basis @ RU) if U.dim else U
        V = Subspace(q, V.basis @ RV) if V.dim else V
    if m == 0 and ell == 0:
        case = "NonDegenerate"
    elif r == 0:
        case = "CompletelyDegenerate"
    else:
        case = "Degenerate"
    comp_cols = []
    if r:
        P = np.eye(q, dtype=complex)
        if U.dim:
            P = P - projector(U)
        if V.dim:
            P = P - projector(V)
        comp = subspace_from_columns(P, tol)
        if comp.dim != r:
            raise ValueError("complement dimension mismatch")
        comp_cols.append(comp.basis)
    if U.dim:
        comp_cols.append(U.basis)
    if V.dim:
        comp_cols.append(V.basis)
    W = np.hstack(comp_cols) if comp_cols else np.zeros((q, 0), dtype=complex)
    if W.shape[1] != q:
        raise ValueError("frame W is not square; subspaces not complementary")
    return ClassificationReport(m=m, ell=ell, r=r, case=case, U=U, V=V, W=W)


def lift_pair(report, inner=None, tol=DEFAULT_TOL):
    """Lift an r x r parameter pair into the full q x q structure.

    Non-degenerate data returns the inner pair unchanged; degenerate
    data wraps it in the lifted block pattern with the frame W; the
    completely degenerate case ignores ``inner`` and returns the fixed
    constant pair determined by W.
    """
    if report.case == "NonDegenerate":
        if inner is None:
            raise ValueError("non-degenerate lift needs an inner pair")
        return inner
    q = report.W.shape[0]
    if report.case == "CompletelyDegenerate":
        m, ell = report.m, report.ell
        if m == 0:
            phi = np.eye(q, dtype=complex)
            psi = np.zeros((q, q), dtype=complex)
        elif ell == 0:
            phi = np.zeros((q, q), dtype=complex)
            psi = np.eye(q, dtype=complex)
        else:
            dphi = np.zeros((q, q), dtype=complex)
            dphi[m:, m:] = np.eye(ell)
            dpsi = np.zeros((q, q), dtype=complex)
            dpsi[:m, :m] = np.eye(m)
            phi = report.W @ dphi
            psi = report.W @ dpsi
        return StieltjesPair.constant(phi, psi, tol)
    if inner is None or inner.q != report.r:
        raise ValueError(f"inner pair must be {report.r} x {report.r}")
    return StieltjesPair.lifted(report.W, inner, report.m, report.ell, tol)


class SolutionFunction:
    """Evaluable solution S(z) of the truncated moment problem.

    Wraps the resolvent matrix and an admissible parameter pair; the
    value is the linear fractional transformation
    (Theta11 phi + Theta12 psi)(Theta21 phi + Theta22 psi)^{-1}.
    """

    # Evaluators with this flag take a 1-D array of points in one call.
    takes_arrays = True

    def __init__(self, resolvent, pair):
        self.resolvent = resolvent
        self.pair = pair
        self.q = resolvent.q

    def __call__(self, z):
        """S(z) at a point (q x q) or at a 1-D array of G points
        ((G, q, q)).  A singular denominator raises ``ValueError``
        naming the first such point."""
        z = np.asarray(z, dtype=complex)
        q = self.q
        th = eval_theta(self.resolvent, z)
        phi, psi = pair_eval(self.pair, z)
        num = th[..., :q, :q] @ phi + th[..., :q, q:] @ psi
        den = th[..., q:, :q] @ phi + th[..., q:, q:] @ psi
        scale = np.maximum(1.0, np.linalg.norm(den, axis=(-2, -1)) ** q)
        small = np.abs(np.linalg.det(den)) < 1e-14 * scale
        singular = small.ravel().nonzero()[0]
        if singular.size:
            first = complex(z.flat[singular[0]])
            raise ValueError(f"singular LFT denominator at z = {first}")
        return num @ np.linalg.inv(den)


def lft_solution(R, p, check=True, seq=None, n=None):
    """Build the solution function for an admissible pair.

    When ``check`` is true and the originating sequence is supplied, the
    pair is gated through the restricted-class test.  For the sequence R
    was built from, the test reads R's Hankel data and factors nothing
    again.
    """
    if check and seq is not None:
        if R.data is not None and seq is R.data.seq:
            seq = R.data
        if not pair_in_restricted_class(p, seq, n if n is not None else R.n,
                                        R.tol):
            raise ValueError("pair is not in the restricted class for "
                             "this sequence")
    return SolutionFunction(R, p)


def unique_solution(seq, n, tol=None):
    """The single solution in the completely degenerate case.

    Classification must yield r = 0; the parameter is then forced to the
    fixed constant pair and the LFT collapses to a unique rational
    function.  Classification and resolvent share one Hankel data.
    """
    data = hankel_data(seq)
    tol = tol or data.seq.tol
    report = classify(data, n, tol)
    if report.case != "CompletelyDegenerate":
        raise ValueError("unique_solution needs the completely degenerate "
                         f"case, got {report.case}")
    R = build_resolvent(data, n, tol)
    pair = lift_pair(report, tol=tol)
    return SolutionFunction(R, pair)


def recover_s0(S, y=1e6):
    """Estimate sigma([alpha, oo)) = s_0 from -iy S(iy) at one large y."""
    val = -1j * y * S(1j * y)
    return 0.5 * (val + val.conj().T)


def verify_solution(seq, n, candidate, grid=None, tol=None):
    """Verification report for a measure or a solution function.

    Measures are checked by exact moment matching for j <= 2n, a Loewner
    defect at order 2n + 1, the fundamental-matrix report of their
    transform, and the exact atomic decomposition residual.  Solution
    functions are checked by the fundamental-matrix report and s_0
    recovery at a single large imaginary point.  ``seq`` may be its
    :class:`~stieltjesmp.momentseq.HankelData`; one is built otherwise
    and shared by every check.
    """
    data = hankel_data(seq, n)
    seq = data.seq
    tol = tol or seq.tol
    if grid is None:
        grid = standard_grid(seq.alpha)
    from .stieltjespairs import AtomicMeasure
    out = {"valid": True, "checks": {}}
    if isinstance(candidate, AtomicMeasure):
        mom = moments_of(candidate, 2 * n + 1)
        match = True
        worst = 0.0
        for j in range(2 * n + 1):
            scale = 1.0 + np.linalg.norm(seq.s(j))
            resid = np.linalg.norm(mom.s(j) - seq.s(j)) / scale
            worst = max(worst, resid)
            if resid > 100 * tol.tol_identity:
                match = False
        defect = seq.s(2 * n + 1) - mom.s(2 * n + 1)
        defect = 0.5 * (defect + defect.conj().T)
        lam = float(np.linalg.eigvalsh(defect).min()) if seq.q else 0.0
        scale = 1.0 + np.linalg.norm(seq.s(2 * n + 1))
        defect_ok = lam >= -tol.tol_psd * scale
        out["checks"]["moment_match_residual"] = worst
        out["checks"]["moment_match"] = match
        out["checks"]["top_defect_lambda_min"] = lam
        out["checks"]["top_defect_psd"] = bool(defect_ok)
        f = FunctionSamples(StieltjesFunction(None, candidate), seq.q)
        rep = potapov_report(data, n, f, grid, tol)
        out["checks"]["potapov_passed"] = rep.passed
        zs = np.array(grid[:4], dtype=complex)
        dec = max([0.0] + [
            r for k in (2 * n, 2 * n + 1)
            for r in atomic_decomposition_residual(
                data, n, candidate, zs, k).tolist()])
        out["checks"]["decomposition_residual"] = dec
        out["valid"] = bool(match and defect_ok and rep.passed
                            and dec <= 1e-8)
        out["potapov"] = rep.to_dict()
        return out
    # SolutionFunction (or any evaluable matrix function)
    f = FunctionSamples(candidate, seq.q)
    rep = potapov_report(data, n, f, grid, tol)
    s0_est = recover_s0(candidate)
    scale = 1.0 + np.linalg.norm(seq.s(0))
    s0_resid = float(np.linalg.norm(s0_est - seq.s(0)) / scale)
    out["checks"]["potapov_passed"] = rep.passed
    out["checks"]["s0_recovery_residual"] = s0_resid
    out["valid"] = bool(rep.passed and s0_resid <= 1e-4)
    out["potapov"] = rep.to_dict()
    return out
