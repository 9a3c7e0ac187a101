"""Seeded moment problems with a known solution.

Every problem is the moment sequence s_0, ..., s_{2n+1} of a finitely
atomic measure mu on [alpha, oo), built the same way as the test suite's
``atomic_fixture``: atom positions alpha + U(0.3, 4.0), weights
A A* / rank with complex Gaussian A.  mu solves the problem by
construction, so it is the ground truth the oracle checks against.  The
library only ever sees the generated ``MomentSequence`` and pair
objects.

The structure of each workload's problem set (which q, n, alpha and
weight pattern, in which order) is fixed; the seed only draws the atom
positions and weights.  That keeps the work per pass the same across
seeds while the numbers change.
"""

from dataclasses import dataclass

import numpy as np

from stieltjesmp import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
)

# Weight patterns.  Each one is there for the case label it produces:
#   full      n + 2 full-rank atoms strictly above alpha: H_n and the
#             shifted Hs_n are positive definite, so the data is
#             NonDegenerate by construction (the oracle checks the label).
#   rankdef   n + 2 atoms with rank-1 weights: H_n is singular once
#             (n + 1) q > n + 2, giving Degenerate or CompletelyDegenerate
#             data; for q = 1 it coincides with ``full``.
#   endpoint  n + 2 full-rank atoms plus an atom at alpha itself: still
#             non-degenerate, but the shifted measure loses an atom, which
#             exercises the (t - alpha) weighting on the boundary.
#   fewatoms  a single full-rank atom: the Hankel matrices have rank q,
#             the classical completely degenerate case for n >= 1 (and a
#             non-degenerate one for n = 0).
PATTERNS = ("full", "rankdef", "endpoint", "fewatoms")


@dataclass
class Problem:
    """One moment problem: the data, its level, and the measure behind it."""

    pid: str
    q: int
    n: int
    alpha: float
    pattern: str
    mu: AtomicMeasure
    seq: object
    nondegenerate: bool
    pair_seed: int

    @property
    def points(self):
        """Four off-real sample points, two in each half plane."""
        a = self.alpha
        return [a + 1.0 + 1.0j, a - 2.0 + 0.5j, a + 3.0 - 2.0j, a + 0.5 - 1.0j]


def random_psd(rng, q, rank=None):
    """Random PSD q x q matrix of the given rank (full rank by default)."""
    rank = q if rank is None else rank
    A = rng.normal(size=(q, rank)) + 1j * rng.normal(size=(q, rank))
    return (A @ A.conj().T) / rank


def make_problem(rng, pid, q, n, alpha, pattern):
    """Draw the measure for ``pattern`` and return its moment problem."""
    natoms = 1 if pattern == "fewatoms" else n + 2
    rank = 1 if pattern == "rankdef" else None
    positions = alpha + np.sort(rng.uniform(0.3, 4.0, size=natoms))
    atoms = [(float(t), random_psd(rng, q, rank)) for t in positions]
    if pattern == "endpoint":
        atoms.append((alpha, random_psd(rng, q)))
    mu = AtomicMeasure(alpha, q, atoms)
    seq = moments_of(mu, 2 * n + 1)
    # n + 1 full-rank atoms strictly above alpha make H_n and Hs_n
    # positive definite.
    full_rank = rank is None or rank == q
    nondeg = full_rank and natoms >= n + 1
    pair_seed = int(rng.integers(2 ** 31))
    return Problem(pid, q, n, alpha, pattern, mu, seq, nondeg, pair_seed)


def pass_order(problems):
    """A fixed interleaving of the pass, the same for every seed, so that
    the part of a pass a time-bounded run ends in is a fair sample of it
    rather than only the smallest q."""
    order = np.random.default_rng(0).permutation(len(problems))
    return [problems[k] for k in order]


def parametrize_problems(seed):
    """Every (q, n, alpha, pattern) of the small grid, once: 240 problems.

    q in {1, 2, 3, 4, 8} and n in {0..3} span the sizes where construction
    dominates; alpha in {0, 0.5, -1} moves the endpoint.  The n = 3 cases
    are ill-conditioned (smallest relative eigenvalue of H near 1e-7 to
    1e-10) and stay in, so rank-decision defects show as failures.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for q in (1, 2, 3, 4, 8):
        for n in range(4):
            for alpha in (0.0, 0.5, -1.0):
                for pattern in PATTERNS:
                    pid = f"p-q{q}-n{n}-a{alpha:g}-{pattern}"
                    out.append(make_problem(rng, pid, q, n, alpha, pattern))
    return pass_order(out)


def verify_dense_problems(seed):
    """Fewer, larger problems: q in {8, 16, 32}, n in {1, 2}.

    Each (q, n) appears with full-rank weights (non-degenerate) and with
    rank-deficient weights (degenerate), at alpha = 0 and alpha = -1,
    three draws each: 72 problems.  How much of ``verify_solution`` runs
    before a point is rejected depends on the draw, so one draw per
    combination let the median problem time move by 17% from seed to
    seed; three draws average that out.  q = 32 stays in although today
    every LFT point there is rejected by the determinant singularity
    test, and so do the degenerate q = 8 cases that fail in
    ``recover_s0``.
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for q in (8, 16, 32):
        for n in (1, 2):
            for alpha in (0.0, -1.0):
                for pattern in ("full", "rankdef"):
                    for draw in range(3):
                        pid = f"v-q{q}-n{n}-a{alpha:g}-{pattern}-d{draw}"
                        out.append(make_problem(rng, pid, q, n, alpha,
                                                pattern))
    return pass_order(out)


def dense_points(alpha, count=64):
    """``count`` points on two arcs around the slit, both half planes,
    kept at least 22.5 degrees off the real axis."""
    k = np.arange(count // 2)
    angles = np.pi / 8 + 0.75 * np.pi * (k + 0.5) / (count // 2)
    upper = [alpha + 1.0 + r * np.exp(1j * th)
             for r, th in zip(np.where(k % 2 == 0, 1.5, 4.0), angles)]
    return [complex(z) for z in upper] + [complex(z).conjugate()
                                          for z in upper]


def inner_pairs(problem, r):
    """Parameter pairs of size r for the LFT: the canonical constant pair
    (0, I), the constant pair (I, I), and a Stieltjes-function pair.

    The first one is the canonical choice the oracle verifies.
    """
    rng = np.random.default_rng([problem.pair_seed, r])
    alpha = problem.alpha
    eye = np.eye(r, dtype=complex)
    zero = np.zeros((r, r), dtype=complex)
    t = float(alpha + rng.uniform(0.5, 3.0))
    f = StieltjesFunction(zero, AtomicMeasure(alpha, r, [(t, random_psd(rng, r))]))
    return [StieltjesPair.constant(zero, eye),
            StieltjesPair.constant(eye, eye),
            StieltjesPair.from_function(f)]
