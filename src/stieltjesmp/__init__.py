"""Truncated matricial moment problems on a half line.

Solvability tests via block Hankel nonnegativity classes, resolvent
matrix polynomials, linear fractional parametrization of the solution
set, and verification of candidate solutions, for finitely atomic
nonnegative-Hermitian matrix measures on [alpha, oo).
"""

from .matcore import DEFAULT_TOL, ToleranceConfig
from .momentseq import (
    ClassReport,
    HankelData,
    MomentSequence,
    canonical_extension,
    class_membership,
    shift_right,
)
from .potapov import potapov_report
from .resolvent import (
    MatrixPolynomial,
    ResolventMatrix,
    build_resolvent,
    standard_grid,
)
from .solver import (
    ClassificationReport,
    SolutionFunction,
    classify,
    lft_solution,
    lift_pair,
    pair_in_restricted_class,
    recover_s0,
    unique_solution,
    verify_solution,
)
from .stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
