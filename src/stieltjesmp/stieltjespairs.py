"""Atomic matrix measures, Stieltjes transforms, and parameter pairs.

An :class:`AtomicMeasure` is a finitely atomic nonnegative-Hermitian
q x q measure on [alpha, oo).  Its Stieltjes transform
S(z) = sum (t_k - z)^{-1} M_k belongs to the half-line Nevanlinna class,
and every in-scope identity about such measures reduces to an exact
finite sum.  A :class:`StieltjesPair` is the evaluable parameter (phi,
psi) of the linear-fractional solution description: constant, backed by
a Stieltjes function, or lifted into a degenerate block structure.
"""

import numpy as np

from .matcore import DEFAULT_TOL, is_psd, mrank
from .momentseq import MomentSequence, hankel_data
from .resolvent import signature_matrix, standard_grid

_SLIT_GUARD = 1e-12


class AtomicMeasure:
    """Finitely atomic nonnegative-Hermitian measure on [alpha, oo).

    Atoms are (t, M) with t >= alpha and M PSD; duplicate positions are
    merged at load and atoms are stored in increasing position order.
    """

    def __init__(self, alpha, q, atoms, tol=DEFAULT_TOL):
        self.alpha = float(alpha)
        self.q = int(q)
        self.tol = tol
        merged = {}
        for t, M in atoms:
            t = float(t)
            M = np.asarray(M, dtype=complex).reshape(q, q)
            if t < self.alpha - _SLIT_GUARD:
                raise ValueError(f"atom position {t} below alpha = {alpha}")
            if not is_psd(M, tol):
                raise ValueError(f"atom weight at t = {t} is not PSD")
            M = 0.5 * (M + M.conj().T)
            if t in merged:
                merged[t] = merged[t] + M
            else:
                merged[t] = M
        self.atoms = [(t, merged[t]) for t in sorted(merged)]

    def total_mass(self):
        out = np.zeros((self.q, self.q), dtype=complex)
        for _, M in self.atoms:
            out = out + M
        return out

    def __repr__(self):
        return (f"AtomicMeasure(alpha={self.alpha}, q={self.q}, "
                f"atoms={len(self.atoms)})")


def moments_of(mu, m):
    """Moment sequence s_j = sum t^j M for j = 0..m (exact finite sums)."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    moments = []
    for j in range(m + 1):
        s = np.zeros((mu.q, mu.q), dtype=complex)
        for t, M in mu.atoms:
            s = s + (t ** j) * M
        moments.append(s)
    return MomentSequence(mu.alpha, mu.q, moments, mu.tol)


def transform(mu, z):
    """Stieltjes transform S(z) = sum (t - z)^{-1} M off the slit, at a
    point (q x q) or at a 1-D array of G points ((G, q, q)).

    A point within the slit guard of an atom raises ``ValueError``
    naming the first such point, and for it the first such atom.
    """
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + (mu.q, mu.q), dtype=complex)
    if not mu.atoms:
        return out
    # t - z for every point (rows) and atom (columns)
    d = np.array([t for t, _ in mu.atoms]) - z[..., None]
    near = (np.abs(d) <= _SLIT_GUARD).ravel().nonzero()[0]
    if near.size:
        point, atom = divmod(near[0], len(mu.atoms))
        raise ValueError(f"evaluation point {complex(z.flat[point])} "
                         f"coincides with atom {mu.atoms[atom][0]}")
    for j, (_, M) in enumerate(mu.atoms):
        out = out + M / d[..., j, None, None]
    return out


def sharp_measure(mu):
    """The (t - alpha)-reweighted measure: atoms (t, (t - alpha) M).

    Its moments satisfy s_j^sharp = s_{j+1} - alpha s_j; atoms at the
    endpoint are annihilated.
    """
    atoms = [(t, (t - mu.alpha) * M) for t, M in mu.atoms
             if (t - mu.alpha) > 0.0]
    return AtomicMeasure(mu.alpha, mu.q, atoms, mu.tol)


class StieltjesFunction:
    """gamma + transform of an atomic measure, gamma PSD (None: the
    transform alone).

    Holomorphic off [alpha, oo), with nonnegative imaginary part in the
    upper half plane and PSD values on (-oo, alpha).
    """

    # Evaluators with this flag take a 1-D array of points in one call.
    takes_arrays = True

    def __init__(self, gamma, measure, tol=DEFAULT_TOL):
        self.measure = measure
        self.q = measure.q
        self.gamma = None
        if gamma is not None:
            gamma = np.asarray(gamma, dtype=complex).reshape(self.q, self.q)
            if not is_psd(gamma, tol):
                raise ValueError("gamma must be PSD")
            self.gamma = 0.5 * (gamma + gamma.conj().T)

    def __call__(self, z):
        """The value at a point (q x q) or at a 1-D array of points
        ((G, q, q))."""
        S = transform(self.measure, z)
        return S if self.gamma is None else self.gamma + S


class StieltjesPair:
    """An evaluable parameter pair (phi, psi).

    Kinds
    -----
    constant
        Fixed matrices (Phi, Psi) with rank col(Phi; Psi) = q.
    function
        (f(z), I_q) for a Stieltjes function f.
    lifted
        W diag(phi_r, 0_m, I_l), W diag(psi_r, I_m, 0_l) around an inner
        r x r pair, with the obvious reductions when m = 0 or l = 0.
    """

    def __init__(self, kind, q, phi=None, psi=None, f=None, W=None,
                 inner=None, m=0, ell=0, tol=DEFAULT_TOL):
        self.kind = kind
        self.q = int(q)
        self.tol = tol
        if kind == "constant":
            self.phi = np.asarray(phi, dtype=complex).reshape(q, q)
            self.psi = np.asarray(psi, dtype=complex).reshape(q, q)
            if mrank(np.vstack([self.phi, self.psi]), tol) != q:
                raise ValueError("constant pair must have full column rank")
        elif kind == "function":
            if f.q != q:
                raise ValueError("function size mismatch")
            self.f = f
        elif kind == "lifted":
            self.W = np.asarray(W, dtype=complex).reshape(q, q)
            if np.linalg.norm(self.W.conj().T @ self.W - np.eye(q)) > 1e-8:
                raise ValueError("W must be unitary")
            self.inner = inner
            self.m = int(m)
            self.ell = int(ell)
            r = q - self.m - self.ell
            if r < 1:
                raise ValueError("lifted pairs need r = q - m - ell >= 1")
            if inner.q != r:
                raise ValueError(f"inner pair must be {r} x {r}")
        else:
            raise ValueError(f"unknown pair kind {kind!r}")

    @classmethod
    def constant(cls, phi, psi, tol=DEFAULT_TOL):
        phi = np.atleast_2d(np.asarray(phi, dtype=complex))
        return cls("constant", phi.shape[0], phi=phi, psi=psi, tol=tol)

    @classmethod
    def from_function(cls, f, tol=DEFAULT_TOL):
        return cls("function", f.q, f=f, tol=tol)

    @classmethod
    def lifted(cls, W, inner, m, ell, tol=DEFAULT_TOL):
        W = np.asarray(W, dtype=complex)
        return cls("lifted", W.shape[0], W=W, inner=inner, m=m, ell=ell,
                   tol=tol)

    def degree_bound(self):
        """Degree bound of the rational entries, for sampling decisions."""
        if self.kind == "constant":
            return 0
        if self.kind == "function":
            return len(self.f.measure.atoms)
        return self.inner.degree_bound()


def pair_eval(p, z):
    """Values (phi(z), psi(z)) of the pair at z off the slit: q x q
    matrices at a point, (G, q, q) stacks at a 1-D array of G points."""
    z = np.asarray(z, dtype=complex)
    shape = z.shape + (p.q, p.q)
    if p.kind == "constant":
        return _at_each_point(p.phi, shape), _at_each_point(p.psi, shape)
    if p.kind == "function":
        return p.f(z), _at_each_point(np.eye(p.q), shape)
    phi_r, psi_r = pair_eval(p.inner, z)
    blocks_phi = [phi_r]
    blocks_psi = [psi_r]
    if p.m:
        blocks_phi.append(np.zeros((p.m, p.m), dtype=complex))
        blocks_psi.append(np.eye(p.m, dtype=complex))
    if p.ell:
        blocks_phi.append(np.eye(p.ell, dtype=complex))
        blocks_psi.append(np.zeros((p.ell, p.ell), dtype=complex))
    phi = p.W @ _blockdiag(blocks_phi, shape)
    psi = p.W @ _blockdiag(blocks_psi, shape)
    return phi, psi


def _at_each_point(A, shape):
    """A new array of ``shape`` holding the matrix A at every point."""
    out = np.empty(shape, dtype=complex)
    out[...] = A
    return out


def _blockdiag(blocks, shape):
    """The block diagonal matrix of ``blocks`` at every point: an array of
    ``shape``; a block without point axes is the same at every point."""
    out = np.zeros(shape, dtype=complex)
    pos = 0
    for b in blocks:
        k = b.shape[-1]
        out[..., pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def default_pair_grid(alpha):
    """Evaluation grid for pair checks: the points of ``standard_grid``
    with |Im z| >= 1 in both half planes, plus a real point left of
    alpha."""
    return [z for z in standard_grid(alpha) if abs(z.imag) >= 1.0] + \
        [alpha - 3.0 + 0j]


def pair_is_valid(p, grid=None, tol=DEFAULT_TOL):
    """Check the defining positivity and rank conditions of a pair.

    At every non-real grid point both quadratic J-forms (the plain one
    and the (z - alpha)-weighted one) must be PSD and col(phi; psi)
    must have full rank q; at real points x < alpha the Hermitian part
    of psi* phi must be PSD.
    """
    alpha = _pair_alpha(p)
    if grid is None:
        grid = default_pair_grid(alpha)
    J = signature_matrix(p.q)
    for z in grid:
        z = complex(z)
        try:
            phi, psi = pair_eval(p, z)
        except ValueError:
            continue
        col = np.vstack([phi, psi])
        if mrank(col, tol) != p.q:
            return False
        if abs(z.imag) > 1e-9:
            form = col.conj().T @ (-J / (2.0 * z.imag)) @ col
            if not is_psd(_herm(form), tol):
                return False
            colw = np.vstack([(z - alpha) * phi, psi])
            formw = colw.conj().T @ (-J / (2.0 * z.imag)) @ colw
            if not is_psd(_herm(formw), tol):
                return False
        elif z.real < alpha:
            if not is_psd(_herm(psi.conj().T @ phi), tol):
                return False
    return True


def _herm(A):
    return 0.5 * (A + A.conj().T)


def _pair_alpha(p):
    if p.kind == "function":
        return p.f.measure.alpha
    if p.kind == "lifted":
        return _pair_alpha(p.inner)
    return 0.0


def pair_in_restricted_class(p, seq, n, tol=DEFAULT_TOL):
    """Sampling test of the two vanishing conditions of the restricted
    class; sample count covers the rational degree bound of the pair.
    ``seq`` may be its :class:`~stieltjesmp.momentseq.HankelData`."""
    data = hankel_data(seq, n)
    seq = data.seq
    A_phi, A_psi = data.restriction_products(n, tol)
    scale = 1.0 + np.linalg.norm(seq.s(0))
    npts = n + 2 + p.degree_bound()
    pts = [seq.alpha + 0.37 + 1j * (1.0 + k) for k in range(npts)]
    for z in pts:
        phi, psi = pair_eval(p, z)
        if np.linalg.norm(A_phi @ phi) > tol.tol_identity * scale * 10:
            return False
        if np.linalg.norm(A_psi @ psi) > tol.tol_identity * scale * 10:
            return False
    return True


def pairs_equivalent(p1, p2, grid=None, tol=DEFAULT_TOL):
    """Equivalence of pairs via equality of the Cayley transforms
    (psi + i phi)(psi - i phi)^{-1} at upper-half-plane sample points."""
    if p1.q != p2.q:
        return False
    alpha = _pair_alpha(p1)
    if grid is None:
        grid = [z for z in default_pair_grid(alpha) if z.imag > 0][:8]
    used = 0
    for z in grid:
        vals = []
        skip = False
        for p in (p1, p2):
            phi, psi = pair_eval(p, z)
            den = psi - 1j * phi
            if abs(np.linalg.det(den)) < 1e-10:
                skip = True
                break
            vals.append((psi + 1j * phi) @ np.linalg.inv(den))
        if skip:
            continue
        used += 1
        if np.linalg.norm(vals[0] - vals[1]) > 1e3 * tol.tol_identity:
            return False
    if used == 0:
        raise ValueError("all equivalence sample points were singular")
    return True
