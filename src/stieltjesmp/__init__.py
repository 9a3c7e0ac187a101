"""Truncated matricial moment problems on a half line.

Solvability tests via block Hankel nonnegativity classes, resolvent
matrix polynomials, linear fractional parametrization of the solution
set, and verification of candidate solutions, for finitely atomic
nonnegative-Hermitian matrix measures on [alpha, oo).
"""

from .matcore import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    dubovoj_subspace,
    is_dubovoj,
    is_psd,
    mrank,
    one_two_inverse,
    projector,
    pseudo_inverse,
    range_included,
)
from .momentseq import (
    ClassReport,
    HankelData,
    MomentSequence,
    canonical_extension,
    class_membership,
    hankel_data,
    schur_ladder,
    shift_right,
)
from .potapov import (
    FunctionSamples,
    congruence_check,
    fq_matrices,
    potapov_matrix,
    potapov_report,
    psi_polynomial,
    sigma_matrix,
)
from .resolvent import (
    MatrixPolynomial,
    ResolventMatrix,
    build_resolvent,
    eval_theta,
    j_defect,
    kernel_polys,
    monomial_stack,
    resolvent_poly,
    signature_matrix,
    standard_grid,
    theta_inverse,
)
from .solver import (
    ClassificationReport,
    SolutionFunction,
    classify,
    lft_solution,
    lift_pair,
    recover_s0,
    unique_solution,
    verify_solution,
)
from .stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    pair_eval,
    pair_in_restricted_class,
    pair_is_valid,
    pairs_equivalent,
    sharp_measure,
    transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
