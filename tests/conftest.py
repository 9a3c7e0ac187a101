"""Shared fixture factories for the test suite.

Moment-sequence fixtures are generated from finitely atomic measures so
that every Hankel positivity property holds by construction and all
integral identities reduce to exact finite sums.
"""

import collections

import numpy as np
import pytest

from stieltjesmp import AtomicMeasure, MomentSequence, matcore, moments_of
from stieltjesmp.momentseq import block_hankel, first_column_embedding, \
    last_column_embedding, shift_matrix, stack_y


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


def random_hermitian_sequence(rng, q, m, alpha=0.0):
    """A sequence of random Hermitian moments (no positivity imposed)."""
    return MomentSequence(alpha, q, [random_hermitian(rng, q)
                                     for _ in range(m + 1)])


def ljapunov_data(seq, n):
    """(T, v, vg, u, ug, K) of the Ljapunov identities at level n
    (2n + 1 <= m): the block shift, the first and last block columns of
    I, the coupling columns u = -col(s_{j-1})_{j=0}^{n} and
    ug = col(-s_{n+1}, ..., -s_2n, 0), and K_n = [s_{j+k+1}]."""
    q = seq.q
    zero = np.zeros((q, q), dtype=complex)
    ug = zero if n == 0 else np.vstack([-stack_y(seq, n + 1, 2 * n), zero])
    return (shift_matrix(q, n), first_column_embedding(q, n),
            last_column_embedding(q, n), -stack_y(seq, -1, n - 1), ug,
            block_hankel(seq, n, 1))


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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def factor_calls(monkeypatch):
    """Counter of ``np.linalg.eigh`` calls, the one factorization of each
    Hankel matrix, keyed by the matrix factored (shape and bytes), for
    checks that nothing is factored twice.  A call made for a
    ``HermitianFactor`` counts for the matrix the factor was built on,
    not for its equilibrated copy, which two Hankel matrices equal up to
    a diagonal scaling (H and Hs of a single atom) share."""
    calls = collections.Counter()
    building = []
    eigh, init = np.linalg.eigh, matcore.HermitianFactor.__init__

    def key(a):
        a = np.asarray(a)
        return a.shape, a.tobytes()

    def counting_eigh(a, *args, **kwargs):
        calls[building[-1] if building else key(a)] += 1
        return eigh(a, *args, **kwargs)

    def tracking_init(self, A, *args, **kwargs):
        building.append(key(A))
        try:
            init(self, A, *args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(matcore.HermitianFactor, "__init__", tracking_init)
    return calls
