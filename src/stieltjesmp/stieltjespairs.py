"""Atomic matrix measures, Stieltjes transforms, and parameter pairs.

An :class:`AtomicMeasure` is a finitely atomic nonnegative-Hermitian
q x q measure on [alpha, oo).  Its Stieltjes transform
S(z) = sum (t_k - z)^{-1} M_k belongs to the half-line Nevanlinna class,
and every in-scope identity about such measures reduces to an exact
finite sum.  A :class:`StieltjesPair` is the parameter (phi, psi) of
the linear-fractional solution description, affine in at most one
Stieltjes function: constant, backed by a Stieltjes function, or lifted
into a degenerate block structure.
Its restricted-class gate reads the classification and lives in
``solver``; evaluating a pair, its validity and equivalence checks,
and the reweighted measure are test oracles in ``tests/identities.py``.
"""

import numpy as np

from .matcore import DEFAULT_TOL, _psd_margin, _rank, as_matrix, \
    as_square, hermitize
from .momentseq import MomentSequence

_SLIT_GUARD = 1e-12


class AtomicMeasure:
    """Finitely atomic nonnegative-Hermitian measure on [alpha, oo).

    Atoms are (t, M) with t finite, t >= alpha and M PSD; duplicate
    positions are merged at load and atoms are stored once, in
    increasing position order, as the read-only arrays ``positions``
    (a,) and ``weights`` (a, q, q).  ``atoms`` lists the (t, M) pairs,
    each M a view into ``weights``.
    """

    def __init__(self, alpha, q, atoms, tol=DEFAULT_TOL):
        self.alpha = float(alpha)
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        self.q = int(q)
        self.tol = tol
        merged = {}
        for t, M in atoms:
            t = float(t)
            if not np.isfinite(t):
                raise ValueError(f"atom position must be finite, got {t}")
            what = f"atom weight at t = {t}"
            M = as_square(M, q, what)
            if t < self.alpha - _SLIT_GUARD:
                raise ValueError(f"atom position {t} below alpha = {alpha}")
            M = hermitize(M, tol, what)
            if np.linalg.eigvalsh(M).min() < -_psd_margin(
                    tol, np.linalg.norm(M)):
                raise ValueError(f"{what} is not PSD")
            if t in merged:
                merged[t] = merged[t] + M
            else:
                merged[t] = M
        positions = sorted(merged)
        self.positions = np.array(positions, dtype=float)
        self.weights = np.array([merged[t] for t in positions],
                                dtype=complex).reshape(-1, self.q, self.q)
        self.positions.flags.writeable = False
        self.weights.flags.writeable = False
        self.atoms = list(zip(positions, self.weights))

    def __repr__(self):
        return (f"AtomicMeasure(alpha={self.alpha}, q={self.q}, "
                f"atoms={len(self.atoms)})")


def moments_of(mu, m):
    """Moment sequence s_j = sum t^j M for j = 0..m (exact finite sums),
    its (m + 1, q, q) stack filled atom by atom.  The powers t^j are
    taken one by one, as Python floats: NumPy's ``t ** np.arange`` may
    differ from them in the last bit."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    s = np.zeros((m + 1, mu.q, mu.q), dtype=complex)
    for t, M in mu.atoms:
        s += np.array([t ** j for j in range(m + 1)])[:, None, None] * M
    return MomentSequence(mu.alpha, mu.q, s, mu.tol)


def transform(mu, z):
    """Stieltjes transform S(z) = sum (t - z)^{-1} M off the slit, at a
    point (q x q) or at an array of points (a z.shape + (q, q) stack):
    one product of the reciprocals 1 / (t - z) with the weights.

    A point that is not finite, or within the slit guard of an atom,
    raises ``ValueError`` naming the first such point, and for a point
    near the slit the first such atom.
    """
    z = np.asarray(z, dtype=complex)
    d = mu.positions - z[..., None]          # t - z, per point and atom
    dist = np.abs(d)
    finite = np.isfinite(z)
    # inf: no atom, no point; a NaN point has NaN distances
    if not finite.all() or dist.min(initial=np.inf) <= _SLIT_GUARD:
        near = (dist <= _SLIT_GUARD).reshape(z.size, d.shape[-1])
        point = np.argmax(near.any(axis=1) | ~finite.ravel())
        if not finite.flat[point]:
            raise ValueError(f"point z = {complex(z.flat[point])} is not "
                             "finite")
        raise _on_atom(complex(z.flat[point]), mu.atoms[np.argmax(
            near[point])][0])
    q = mu.q
    return (np.reciprocal(d) @ mu.weights.reshape(-1, q * q)).reshape(
        z.shape + (q, q))


def _on_atom(z, t):
    return ValueError(f"evaluation point {z} coincides with atom {t}")


class StieltjesFunction:
    """gamma + transform of an atomic measure, gamma PSD (None: the
    transform alone) under the measure's ``tol``.

    Holomorphic off [alpha, oo), with nonnegative imaginary part in the
    upper half plane and PSD values on (-oo, alpha).
    """

    def __init__(self, gamma, measure):
        self.measure = measure
        self.q = measure.q
        if gamma is not None:
            gamma = hermitize(as_square(gamma, self.q, "gamma"),
                              measure.tol, "gamma")
            if np.linalg.eigvalsh(gamma).min() < -_psd_margin(
                    measure.tol, np.linalg.norm(gamma)):
                raise ValueError("gamma must be PSD")
        self.gamma = gamma

    def __call__(self, z):
        """The value at a point (q x q) or at a 1-D array of points
        ((G, q, q))."""
        S = transform(self.measure, z)
        if self.gamma is not None:
            S += self.gamma
        return S


class StieltjesPair:
    """A parameter pair (phi, psi), affine in at most one
    Stieltjes function f: [phi; psi](z) = B + E f(z) [I_k, 0].

    B is 2q x q of full column rank; with f (k x k, k <= q), E is
    2q x k, and without f it is empty (2q x 0).

    ``constant``
        B = [Phi; Psi], and no f.
    ``from_function``
        (f(z), I_q): B = [0; I], E = [I; 0], two views of one buffer.
    ``lifted``
        W diag(phi_r, 0_m, I_ell), W diag(psi_r, I_m, 0_ell) around an
        inner r x r pair, whose B and E it composes with W once.

    ``tol`` is that of a constant pair; a function or lifted pair takes
    the one of its measure or inner pair.
    """

    def __init__(self, B, f=None, E=None, tol=DEFAULT_TOL):
        self.B = np.asarray(B, dtype=complex)
        q = self.q = self.B.shape[1]
        if self.B.shape != (2 * q, q):
            raise ValueError(f"B must be 2q x q, got {self.B.shape}")
        if _rank(np.linalg.svd(as_matrix(self.B), compute_uv=False),
                 tol) != q:
            raise ValueError("pair must have full column rank")
        k = 0 if f is None else f.q
        self.E = np.zeros((2 * q, 0), dtype=complex) if E is None \
            else np.asarray(E, dtype=complex)
        if k > q or self.E.shape != (2 * q, k):
            raise ValueError(f"E must be 2q x k = {2 * q} x {k}, "
                             f"got {self.E.shape}")
        self.f = f
        self.tol = tol

    @classmethod
    def constant(cls, phi, psi, tol=DEFAULT_TOL):
        phi = np.atleast_2d(np.asarray(phi, dtype=complex))
        q = phi.shape[0]
        return cls(np.vstack([as_square(phi, q, "phi"),
                              as_square(psi, q, "psi")]), tol=tol)

    @classmethod
    def from_function(cls, f):
        # B = [0; I] and E = [I; 0] are read-only views of one [0; I; 0]
        q = f.q
        stack = np.zeros((3 * q, q), dtype=complex)
        stack[q:2 * q] = np.eye(q)
        stack.flags.writeable = False
        return cls(stack[:2 * q], f, stack[q:], f.measure.tol)

    @classmethod
    def lifted(cls, W, inner, m, ell):
        q = len(W)
        W = as_square(W, q, "W")
        if np.linalg.norm(W.conj().T @ W - np.eye(q)) > 1e-8:
            raise ValueError("W must be unitary")
        m, ell = int(m), int(ell)
        r = q - m - ell
        if r < 1:
            raise ValueError("lifted pairs need r = q - m - ell >= 1")
        if inner.q != r:
            raise ValueError(f"inner pair must be {r} x {r}")
        # [phi; psi] = [W diag(.); W diag(.)] of the inner halves, padded
        blocks = np.zeros((2, q, q), dtype=complex)
        blocks[:, :r, :r] = inner.B.reshape(2, r, r)
        blocks[0, r + m:, r + m:] = np.eye(ell)
        blocks[1, r:r + m, r:r + m] = np.eye(m)
        k = inner.E.shape[1]
        E = np.zeros((2, q, k), dtype=complex)
        E[:, :r] = inner.E.reshape(2, r, k)
        return cls((W @ blocks).reshape(2 * q, q), inner.f,
                   (W @ E).reshape(2 * q, k), inner.tol)
