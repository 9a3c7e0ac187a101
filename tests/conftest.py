"""Shared fixture factories for the test suite.

Moment-sequence fixtures are generated from finitely atomic measures so
that every Hankel positivity property holds by construction and all
integral identities reduce to exact finite sums.
"""

import collections

import numpy as np
import pytest

from stieltjesmp import AtomicMeasure, HankelData, MomentSequence, \
    StieltjesPair, lift_pair, matcore, moments_of, momentseq
from stieltjesmp.momentseq import block_hankel, stack_y

from identities import first_column_embedding, last_column_embedding, \
    shift_matrix


def random_psd(rng, q, rank=None, scale=1.0):
    """Random PSD matrix of the given size and (optional) rank."""
    rank = q if rank is None else rank
    if rank == 0:
        return np.zeros((q, q), dtype=complex)
    A = rng.normal(size=(q, rank)) + 1j * rng.normal(size=(q, rank))
    return scale * (A @ A.conj().T) / rank


def random_hermitian(rng, q, scale=1.0):
    A = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return scale * 0.5 * (A + A.conj().T)


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def delta(t, mass=1.0, alpha=0.0):
    return AtomicMeasure(alpha, 1, [(t, [[mass]])])


def random_hermitian_sequence(rng, q, m, alpha=0.0):
    """A sequence of random Hermitian moments (no positivity imposed)."""
    return MomentSequence(alpha, q, [random_hermitian(rng, q)
                                     for _ in range(m + 1)])


def ljapunov_data(seq, n):
    """(T, v, vg, u, ug, K) of the Ljapunov identities at level n
    (2n + 1 <= m): the block shift, the first and last block columns of
    I, the coupling columns u = -col(s_{j-1})_{j=0}^{n} and
    ug = col(-s_{n+1}, ..., -s_2n, 0), and K_n = [s_{j+k+1}]."""
    s, q = seq.moments, seq.q
    zero = np.zeros((q, q), dtype=complex)
    ug = zero if n == 0 else np.vstack([-stack_y(s, n + 1, 2 * n), zero])
    u = -np.vstack([zero, stack_y(s, 0, n - 1)])
    return (shift_matrix(q, n), first_column_embedding(q, n),
            last_column_embedding(q, n), u, ug, block_hankel(s[1:], n))


def atomic_fixture(rng, q, n, alpha=0.0, natoms=None, ranks=None,
                   include_endpoint=False):
    """An atomic measure with atoms on [alpha, oo) and its moments.

    With ``natoms >= n + 1`` atoms strictly above alpha and full-rank
    weights the Hankel matrices are positive definite (non-degenerate
    data); fewer atoms, endpoint atoms, or rank-deficient weights give
    degenerate members of the extendable class.
    """
    natoms = natoms if natoms is not None else n + 2
    positions = alpha + np.sort(rng.uniform(0.3, 4.0, size=natoms))
    atoms = []
    for j, t in enumerate(positions):
        rank = None if ranks is None else ranks[j % len(ranks)]
        atoms.append((float(t), random_psd(rng, q, rank)))
    if include_endpoint:
        atoms.append((alpha, random_psd(rng, q)))
    mu = AtomicMeasure(alpha, q, atoms)
    seq = moments_of(mu, 2 * n + 1)
    return mu, seq


# ``atomic_fixture`` keyword sets, one per kind of data: full-rank
# atoms (non-degenerate), rank-1 weights, an atom at alpha, one atom.
WEIGHT_PATTERNS = {
    "full": {},
    "rankdef": {"ranks": [1]},
    "endpoint": {"include_endpoint": True},
    "fewatoms": {"natoms": 1},
}


def kge_fixtures(count, seed=7):
    """A mixed batch of extendable fixtures: (mu, seq, n) triples.

    Cycles through matrix sizes, levels, endpoints, and degeneracy
    patterns (full-rank, rank-deficient weights, endpoint atoms, too few
    atoms).
    """
    rng = np.random.default_rng(seed)
    out = []
    patterns = list(WEIGHT_PATTERNS.values())
    sizes = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (2, 2)]
    k = 0
    while len(out) < count:
        q, n = sizes[k % len(sizes)]
        pat = dict(patterns[k % len(patterns)])
        if "ranks" in pat and q == 1:
            pat = dict()
        alpha = [0.0, 0.5, -1.0][k % 3]
        mu, seq = atomic_fixture(rng, q, n, alpha, **pat)
        out.append((mu, seq, n))
        k += 1
    return out


def canonical_pair(report):
    """The lifted canonical pair (0, I) of a classification."""
    if report.case == "CompletelyDegenerate":
        return lift_pair(report)
    r = report.r
    return lift_pair(report, StieltjesPair.constant(np.zeros((r, r)),
                                                    np.eye(r)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def factor_calls(monkeypatch):
    """Counter of the factorizations of each Hankel matrix, keyed by the
    kind (``"cholesky"``, the certificate ``_positive_definite`` of
    ``HankelData.factor``, or ``"eigh"``) and the matrix factored (shape
    and bytes), for checks that nothing is factored twice.  A call made
    for a ``HermitianFactor`` or a certificate (through the name
    ``momentseq`` binds) counts for the matrix it was asked about, not for
    the scaled copy LAPACK gets, which two Hankel matrices equal up to a
    diagonal scaling (H and Hs of a single atom) share."""
    calls = collections.Counter()
    building = []

    def counting(name, call):
        def counted(a, *args, **kwargs):
            key = building[-1] if building else _matrix_key(a)
            calls[(name,) + key] += 1
            return call(a, *args, **kwargs)
        return counted

    def tracking(call, at):     # the matrix is argument ``at`` of call
        def tracked(*args, **kwargs):
            building.append(_matrix_key(args[at]))
            try:
                return call(*args, **kwargs)
            finally:
                building.pop()
        return tracked

    for name in ("eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(matcore.HermitianFactor, "__init__",
                        tracking(matcore.HermitianFactor.__init__, 1))
    monkeypatch.setattr(momentseq, "_positive_definite",
                        tracking(momentseq._positive_definite, 0))
    return calls


def _matrix_key(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def hankel_factor_counts(seq, n=None, witness=False):
    """The ``factor_calls`` of work that factors the Hankel matrices of
    ``seq`` and of its shift top down, each at most once: a Cholesky
    certificate, and an eigh where it fails (``certified_hankel``), and
    nothing below a positive definite one (``definite_hankel``); with
    ``witness``, also the eigh that the pseudo-inverse of the canonical
    witness extension takes of its level where that level has none; with
    ``n`` given, also the one plain ``eigh`` of each Hankel corner (H_n
    and Hs_n) that Potapov reports read."""
    data = HankelData(seq)
    out = collections.Counter()
    for ladder in (data.H, data.shift.H):
        for H in reversed(ladder):
            out[("cholesky",) + _matrix_key(H)] += 1
            if certified_hankel(H, seq.tol):
                break
            out[("eigh",) + _matrix_key(H)] += 1
            if definite_hankel(H, seq.tol):
                break
    if witness and seq.m:
        key = ("eigh",) + _matrix_key(data.H[(seq.m + 1) // 2 - 1])
        out[key] = max(out[key], 1)
    if n is not None:
        out.update(("eigh",) + _matrix_key(H)
                   for H in (data.H[n], data.shift.H[n]))
    return out


def _equilibrated_spectrum(H, tol):
    """The eigenvalues of the equilibrated D H D (``eigvalsh``, which
    ``factor_calls`` does not count), or None where a diagonal entry of
    H is at the equilibration cutoff."""
    d = np.abs(np.diagonal(H))
    if not d.min() > tol.tol_rank * d.max():
        return None
    return np.linalg.eigvalsh(H / np.sqrt(np.outer(d, d)))


def definite_hankel(H, tol):
    """Whether ``H`` is positive definite with no diagonal entry at the
    equilibration cutoff and every eigenvalue of the equilibrated
    D H D above ``tol_rank`` times the largest, so that each leading
    block of it is too."""
    w = _equilibrated_spectrum(H, tol)
    return w is not None and bool(w.min() > tol.tol_rank * w.max())


def certified_hankel(H, tol):
    """Whether the Cholesky certificate passes ``H``, up to the rounding
    of its factorization: every eigenvalue of D H D above the shift
    c = (2 tol_rank + (N + 1)^2 eps) N, N >= tr(D H D)."""
    w = _equilibrated_spectrum(H, tol)
    c = 2 * tol.tol_rank + (len(H) + 1) ** 2 * np.finfo(float).eps
    return w is not None and bool(w.min() > c * len(H))
