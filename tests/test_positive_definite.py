"""Positive definite data: its label, its canonical solution, and the pair
of a known solution.

n + 1 atoms of full-rank weight strictly above alpha make H_n and Hs_n
positive definite, so the data is non-degenerate by construction.  The
canonical (0, I) solution then solves the problem, and the generating
measure's transform, a solution too, is the transformation of a pair
that the parametrization reads back from it.
"""

import itertools

import numpy as np
import pytest

from stieltjesmp import build_resolvent, classify, lft_solution, transform, \
    verify_solution

from conftest import atomic_fixture, canonical_pair
from identities import mrank, pair_of_solution, signature_matrix

ALPHAS = (0.0, 0.5, -1.0)

# (seed, q, n, alpha) where the fixed rank cutoff of the Hankel factor
# cuts a true eigenvalue: the case is mislabelled or refused.  A cutoff
# on the data's own noise floor turns each into a pass.
MISLABELLED = {
    "minimal": {
        (1, 2, 3, 0.0), (1, 2, 3, 0.5), (1, 4, 3, 0.5), (1, 8, 3, 0.0),
        (1, 8, 3, 0.5), (5, 2, 3, 0.0), (5, 2, 3, 0.5), (5, 4, 2, 0.0),
        (5, 4, 2, 0.5), (5, 4, 3, 0.0), (5, 4, 3, 0.5), (5, 8, 3, 0.0),
        (5, 8, 3, 0.5)},
    "pd": {
        (1, 1, 5, 0.0), (1, 1, 5, 0.5), (1, 2, 5, 0.0), (1, 2, 5, 0.5),
        (1, 4, 5, 0.0), (1, 4, 5, 0.5), (1, 8, 5, 0.0), (1, 8, 5, 0.5),
        (1, 8, 5, -1.0), (2, 8, 5, 0.0), (2, 8, 5, 0.5), (3, 2, 5, 0.5),
        (3, 4, 5, 0.0), (3, 4, 5, 0.5), (3, 8, 5, 0.0), (3, 8, 5, 0.5),
        (4, 4, 5, 0.5), (4, 8, 5, 0.5), (5, 1, 5, 0.5), (5, 2, 5, 0.0),
        (5, 2, 5, 0.5), (5, 4, 5, 0.0), (5, 4, 5, 0.5), (5, 8, 5, 0.0),
        (5, 8, 5, 0.5)},
}


def _cases(kind, levels):
    for case in itertools.product(range(1, 6), (1, 2, 4, 8), levels, ALPHAS):
        marks = [pytest.mark.xfail(strict=True)] \
            if case in MISLABELLED[kind] else []
        yield pytest.param(*case, marks=marks, id="s{}-q{}-n{}-a{}".format(
            *case))


def _check_positive_definite(s, q, n, alpha, natoms):
    _, seq = atomic_fixture(np.random.default_rng(s), q, n, alpha, natoms)
    report = classify(seq, n)
    assert report.case == "NonDegenerate"
    S = lft_solution(build_resolvent(seq, n), canonical_pair(report))
    assert verify_solution(seq, n, S)["valid"]


@pytest.mark.parametrize("s, q, n, alpha", _cases("minimal", (1, 2, 3)))
def test_minimal_positive_definite_data_is_non_degenerate(s, q, n, alpha):
    # n + 1 atoms: the fewest that keep H_n and Hs_n positive definite.
    _check_positive_definite(s, q, n, alpha, n + 1)


@pytest.mark.parametrize("s, q, n, alpha", _cases("pd", (2, 3, 4, 5)))
def test_positive_definite_data_is_non_degenerate(s, q, n, alpha):
    _check_positive_definite(s, q, n, alpha, n + 3)


def test_a_generating_measure_comes_from_an_admissible_pair():
    # The LFT read backwards: [phi; psi](z) = Theta(z)^-1 [S(z); I] with
    # S the transform of the generating measure, at off-R points.  Both
    # J-forms, -[phi; psi]* Jt [phi; psi] / (2 Im z) and the one of
    # [(z - alpha) phi; psi], are PSD: divided by |[phi; psi]|^2 their
    # smallest eigenvalue is at worst a rounding error below tol_psd
    # (-1.3e-11 here).  col(phi; psi) has rank q.  Cases the rank rule
    # mislabels (3 of the 243) are skipped: their resolvent is built for
    # other ranks.
    checked, worst = 0, np.inf
    for s, q, n, extra, alpha in itertools.product(
            (1, 2, 3), (1, 2, 4), (1, 2, 3), (1, 3, 6), ALPHAS):
        mu, seq = atomic_fixture(np.random.default_rng(s), q, n, alpha,
                                 n + extra)
        try:
            if classify(seq, n).case != "NonDegenerate":
                continue
        except ValueError:
            continue
        checked += 1
        R, J = build_resolvent(seq, n), signature_matrix(q)
        for z in (alpha + 1.0 + 1.0j, alpha - 2.0 + 0.5j,
                  alpha + 3.0 - 2.0j, alpha + 0.5 - 1.0j):
            col = pair_of_solution(R, transform(mu, z), z)
            assert mrank(col, seq.tol) == q
            for c in (col, np.vstack([(z - alpha) * col[:q], col[q:]])):
                F = c.conj().T @ (-J / (2.0 * z.imag)) @ c
                lam = np.linalg.eigvalsh(0.5 * (F + F.conj().T)).min()
                worst = min(worst, lam / np.linalg.norm(c) ** 2)
    assert checked >= 240
    assert worst >= -seq.tol.tol_psd
