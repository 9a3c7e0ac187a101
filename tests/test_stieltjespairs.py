"""Unit tests for atomic measures, transforms, and parameter pairs."""

import numpy as np
import pytest

from stieltjesmp import MomentSequence, ToleranceConfig
from stieltjesmp.solver import classify, lift_pair, pair_in_restricted_class
from stieltjesmp.stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    transform,
)

import identities
from conftest import atomic_fixture, canonical_pair, delta, kge_fixtures, \
    random_psd, scalar_seq
from identities import default_pair_grid, in_restricted_class_at_points, \
    pair_eval, pair_is_valid, pairs_equivalent, sharp_measure, total_mass


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(0.0, 1, [(-1.0, [[1.0]])])
    with pytest.raises(ValueError):
        AtomicMeasure(0.0, 1, [(1.0, [[-1.0]])])
    with pytest.raises(ValueError, match="atom weight at t = 1.0"):
        AtomicMeasure(0.0, 2, [(1.0, [[1.0, 0.0, 0.0, 1.0]])])
    # A weight is Hermitian within tol_herm, then PSD within tol_psd.
    skew = [[1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match=r"^atom weight at t = 1\.0 is not "
                                         r"Hermitian within tolerance$"):
        AtomicMeasure(0.0, 2, [(1.0, skew)])
    with pytest.raises(ValueError,
                       match=r"^atom weight at t = 2\.0 is not PSD$"):
        AtomicMeasure(0.0, 2, [(1.0, np.eye(2)), (2.0, [[1.0, 2.0],
                                                        [2.0, 1.0]])])
    # A NaN alpha would pass every atom; alpha is refused as a moment
    # sequence refuses it.
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError,
                           match=f"^alpha must be finite, got {alpha}$"):
            AtomicMeasure(alpha, 1, [(1.0, [[1.0]])])
    # A NaN position would pass the alpha check and make the transform
    # NaN, an infinite one would drop out of it: both are refused.
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=rf"^atom position must be "
                                             rf"finite, got {t}$"):
            AtomicMeasure(0.0, 1, [(t, [[1.0]]), (1.0, [[1.0]])])
    mu = AtomicMeasure(0.0, 1, [(2.0, [[1.0]]), (1.0, [[0.5]]),
                                (2.0, [[0.25]])])
    assert [t for t, _ in mu.atoms] == [1.0, 2.0]
    assert np.allclose(mu.atoms[1][1], 1.25)
    assert np.allclose(total_mass(mu), 1.75)


def test_moments_of_examples():
    seq = moments_of(delta(1.0), 3)
    assert np.allclose(seq.moments.ravel(), [1, 1, 1, 1])
    empty = AtomicMeasure(0.0, 2, [])
    assert np.allclose(moments_of(empty, 2).moments[1], 0.0)
    mu = AtomicMeasure(0.0, 1, [(0.0, [[0.5]]), (2.0, [[0.5]])])
    assert np.allclose(moments_of(mu, 2).moments.ravel(), [1.0, 1.0, 2.0])


def test_transform_examples():
    assert np.allclose(transform(delta(1.0), 1j), (1 + 1j) / 2)
    assert np.allclose(transform(AtomicMeasure(0.0, 2, []), 1j), 0.0)
    mu = AtomicMeasure(0.0, 1, [(0.0, [[1.0]]), (2.0, [[1.0]])])
    assert np.allclose(transform(mu, -1.0), 1.0 + 1.0 / 3.0)
    with pytest.raises(ValueError):
        transform(delta(1.0), 1.0)


def test_the_slit_refusal_names_the_first_point_and_its_first_atom():
    # The third point lies within the slit guard of the second and third
    # atoms, and a later point on the first atom: a stack raises for the
    # third point and the second atom, as the point-by-point loop does.
    near = 2.5 + 2.5e-13j
    mu = AtomicMeasure(0.0, 2, [(1.0, np.eye(2)), (2.5, 0.5 * np.eye(2)),
                                (2.5 + 5e-13, np.eye(2)), (4.0, np.eye(2))])
    zs = np.array([1j, 3.0 - 1j, near, 0.5 + 2j, 1.0])
    with pytest.raises(ValueError) as loop:
        for z in zs:
            transform(mu, complex(z))
    assert str(loop.value) == \
        f"evaluation point {near} coincides with atom 2.5"
    for f in (lambda z: transform(mu, z), StieltjesFunction(np.eye(2), mu)):
        with pytest.raises(ValueError) as batch:
            f(zs)
        assert str(batch.value) == str(loop.value)
    # the stored atoms are read-only, through every view of them
    for write in (lambda: mu.positions.__setitem__(0, 0.5),
                  lambda: mu.weights.__setitem__(0, 0.0),
                  lambda: mu.atoms[0][1].__setitem__(0, 0.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert np.array_equal(mu.positions, [1.0, 2.5, 2.5 + 5e-13, 4.0])
    assert np.array_equal(mu.weights[0], np.eye(2))


def test_a_point_that_is_not_finite_is_refused_by_name():
    # NaN and infinite points are refused before any arithmetic, with no
    # RuntimeWarning: at a point, the first such point of an array, and
    # through a StieltjesFunction, on a measure with atoms and on one
    # without, whose transform is 0 at every finite point.
    nan, inf = complex(np.nan), complex(np.inf)
    zs = np.array([[1j, 2.0], [complex(np.nan, 1.0), inf]])
    for mu in (AtomicMeasure(0.0, 2, [(1.0, np.eye(2))]),
               AtomicMeasure(0.0, 2, [])):
        for f in (lambda z: transform(mu, z), StieltjesFunction(np.eye(2),
                                                                mu)):
            for z, bad in ((np.nan, nan), (np.array(inf), inf),
                           (complex(-np.inf, 1.0), complex(-np.inf, 1.0)),
                           (zs, complex(np.nan, 1.0)),
                           (zs[:, ::-1], inf)):
                with pytest.raises(ValueError) as err:
                    f(z)
                assert str(err.value) == f"point z = {bad} is not finite"
            assert f(zs[0]).shape == (2, 2, 2)
    # Mixed with a point on an atom, the first failing point names the
    # error, as in a loop over the points.
    mu = AtomicMeasure(0.0, 1, [(1.0, [[1.0]]), (2.0, [[1.0]])])
    for zs, message in (
            ([1j, 2.0, complex(np.nan, 1.0)],
             "evaluation point (2+0j) coincides with atom 2.0"),
            ([1j, np.inf, 1.0], "point z = (inf+0j) is not finite")):
        with pytest.raises(ValueError) as loop:
            for z in zs:
                transform(mu, z)
        with pytest.raises(ValueError) as batch:
            transform(mu, np.array(zs))
        assert str(batch.value) == str(loop.value) == message


def test_transform_symmetry_and_positivity(rng):
    mu, _ = atomic_fixture(rng, 2, 1, alpha=0.5)
    for z in (0.3 + 1.2j, -2.0 + 0.4j):
        assert np.allclose(transform(mu, np.conj(z)),
                           transform(mu, z).conj().T)
        im = (transform(mu, z) - transform(mu, z).conj().T) / (2j)
        if z.imag > 0:
            assert np.linalg.eigvalsh(0.5 * (im + im.conj().T)).min() >= -1e-12
    S = transform(mu, -1.0)  # real point left of alpha
    assert np.linalg.eigvalsh(0.5 * (S + S.conj().T)).min() >= -1e-12


def test_transform_asymptotics(rng):
    mu, _ = atomic_fixture(rng, 2, 1, alpha=0.0)
    mass = total_mass(mu)
    tmax = max(t for t, _ in mu.atoms)
    C = 2.0 * tmax * np.linalg.norm(mass)
    for y in (1e3, 1e4, 1e5):
        resid = np.linalg.norm(1j * y * transform(mu, 1j * y) + mass)
        assert resid <= C / y


def test_sharp_measure():
    assert sharp_measure(delta(0.0)).atoms == []
    sh = sharp_measure(delta(1.0))
    assert len(sh.atoms) == 1 and np.allclose(sh.atoms[0][1], 1.0)
    mu = AtomicMeasure(0.0, 1, [(0.0, [[1.0]]), (2.0, [[1.0]])])
    sh = sharp_measure(mu)
    assert [t for t, _ in sh.atoms] == [2.0]
    base = moments_of(mu, 3)
    sharp = moments_of(sh, 2)
    s = base.moments
    assert np.allclose(sharp.moments, s[1:] - mu.alpha * s[:-1])


def test_stieltjes_function():
    f = StieltjesFunction([[2.0]], delta(1.0))
    assert np.allclose(f(1j), 2.0 + (1 + 1j) / 2)
    with pytest.raises(ValueError):
        StieltjesFunction([[-1.0]], delta(1.0))
    with pytest.raises(ValueError, match="gamma must be 2 x 2"):
        StieltjesFunction([[1.0, 0.0, 0.0, 1.0]], AtomicMeasure(0.0, 2, []))
    mu2 = AtomicMeasure(0.0, 2, [(1.0, np.eye(2))])
    with pytest.raises(ValueError,
                       match="^gamma is not Hermitian within tolerance$"):
        StieltjesFunction([[1.0, 1j], [0.0, 1.0]], mu2)
    with pytest.raises(ValueError, match="^gamma must be PSD$"):
        StieltjesFunction([[1.0, 2.0], [2.0, 1.0]], mu2)


def test_pair_eval_examples():
    p = StieltjesPair.constant(np.zeros((2, 2)), np.eye(2))
    phi, psi = pair_eval(p, 0.3 + 1j)
    assert np.allclose(phi, 0.0) and np.allclose(psi, np.eye(2))
    fp = StieltjesPair.from_function(StieltjesFunction([[0.0]], delta(1.0)))
    phi, psi = pair_eval(fp, 1j)
    assert np.allclose(phi, (1 + 1j) / 2) and np.allclose(psi, 1.0)
    inner = StieltjesPair.constant([[0.0]], [[1.0]])
    lifted = StieltjesPair.lifted(np.eye(2), inner, 1, 0)
    phi, psi = pair_eval(lifted, 1j)
    assert np.allclose(phi, np.zeros((2, 2)))
    assert np.allclose(psi, np.eye(2))


def test_a_function_pair_shares_one_read_only_buffer():
    mu = AtomicMeasure(0.0, 3, [(1.0, np.eye(3))])
    p = StieltjesPair.from_function(StieltjesFunction(None, mu))
    eye, zero = np.eye(3), np.zeros((3, 3))
    assert np.array_equal(p.B, np.vstack([zero, eye]))
    assert np.array_equal(p.E, np.vstack([eye, zero]))
    assert p.B.base is p.E.base and p.B.base.nbytes == 9 * 16 * 3
    assert not (p.B.flags.writeable or p.E.flags.writeable)


def _by_hand(W, phi_r, psi_r, m, ell):
    """W diag(phi_r, 0_m, I_ell) and W diag(psi_r, I_m, 0_ell), with
    the point axes of phi_r and psi_r kept."""
    r = phi_r.shape[-1]
    q = r + m + ell
    phi = np.zeros(phi_r.shape[:-2] + (q, q), dtype=complex)
    psi = np.zeros_like(phi)
    phi[..., :r, :r] = phi_r
    psi[..., :r, :r] = psi_r
    phi[..., r + m:, r + m:] = np.eye(ell)
    psi[..., r:r + m, r:r + m] = np.eye(m)
    return W @ phi, W @ psi


def test_lifted_pair_places_the_inner_blocks():
    rng = np.random.default_rng(61)
    zs = np.array([1j, -0.5 + 2j, 3.0 - 1j])
    covered = set()
    for m, ell in ((1, 0), (0, 1), (1, 1)):
        for r in (1, 2):
            q = r + m + ell
            W = np.linalg.qr(rng.normal(size=(q, q))
                             + 1j * rng.normal(size=(q, q)))[0]
            f = StieltjesFunction(random_psd(rng, r), AtomicMeasure(
                0.0, r, [(0.5, random_psd(rng, r)), (2.0, np.eye(r))]))
            for inner in (StieltjesPair.constant(random_psd(rng, r),
                                                 np.eye(r)),
                          StieltjesPair.from_function(f)):
                lifted = StieltjesPair.lifted(W, inner, m, ell)
                for z in (zs[0], zs):
                    want = _by_hand(W, *pair_eval(inner, z), m, ell)
                    for got, ref in zip(pair_eval(lifted, z), want):
                        assert got.shape == ref.shape
                        assert np.linalg.norm(got - ref) <= \
                            1e-12 * np.linalg.norm(ref)
                covered.add((inner.f is not None, m, ell))
    assert len(covered) == 6


def test_pair_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        StieltjesPair.constant(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="psi must be 2 x 2"):
        StieltjesPair.constant(np.zeros((2, 2)), [[1.0, 0.0, 0.0, 1.0]])
    inner = StieltjesPair.constant([[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        StieltjesPair.lifted(np.eye(2), inner, 1, 1)  # r = 0 not liftable
    with pytest.raises(ValueError):
        StieltjesPair.lifted(2 * np.eye(2), inner, 1, 0)  # not unitary
    # the constructor checks every pair it is given, not only constant ones
    f = StieltjesFunction(None, delta(1.0))
    B = np.vstack([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(ValueError, match="full column rank"):
        StieltjesPair(np.zeros((4, 2)), f, np.ones((4, 1)))
    with pytest.raises(ValueError, match="B must be 2q x q"):
        StieltjesPair(np.eye(2))
    with pytest.raises(ValueError, match="E must be 2q x k = 4 x 1"):
        StieltjesPair(B, f, np.ones((4, 2)))
    with pytest.raises(ValueError, match="E must be 2q x k = 4 x 1"):
        StieltjesPair(B, f)
    with pytest.raises(ValueError, match="E must be 2q x k = 4 x 0"):
        StieltjesPair(B, E=np.ones((4, 1)))
    wide = StieltjesFunction(None, AtomicMeasure(0.0, 3, [(1.0, np.eye(3))]))
    with pytest.raises(ValueError, match="E must be 2q x k = 4 x 3"):
        StieltjesPair(B, wide, np.ones((4, 3)))


def test_pair_is_valid_examples():
    assert pair_is_valid(StieltjesPair.constant([[0.0]], [[1.0]]))
    assert pair_is_valid(StieltjesPair.constant([[1.0]], [[0.0]]))
    assert not pair_is_valid(StieltjesPair.constant([[1.0]], [[-1.0]]))
    f = StieltjesFunction([[0.5]], delta(2.0))
    assert pair_is_valid(StieltjesPair.from_function(f))


def test_pair_in_restricted_class_examples(rng):
    mu, seq = atomic_fixture(rng, 1, 0, alpha=0.0)  # nondegenerate scalar
    any_pair = StieltjesPair.constant([[1.0]], [[1.0]])
    assert pair_in_restricted_class(any_pair, seq, 0)
    seq10 = scalar_seq([1, 0])
    assert pair_in_restricted_class(
        StieltjesPair.constant([[1.0]], [[0.0]]), seq10, 0)
    assert not pair_in_restricted_class(
        StieltjesPair.constant([[0.0]], [[1.0]]), seq10, 0)


def test_pairs_equivalent_examples():
    p = StieltjesPair.constant([[1.0]], [[2.0]])
    p2 = StieltjesPair.constant([[2.0]], [[4.0]])
    assert pairs_equivalent(p, p2)
    assert not pairs_equivalent(StieltjesPair.constant([[0.0]], [[1.0]]),
                                StieltjesPair.constant([[1.0]], [[0.0]]))
    # right multiplication by an invertible constant preserves the class
    g = np.array([[2.0, 1.0], [0.0, 3.0]])
    phi = np.array([[1.0, 0.0], [0.0, 0.0]])
    psi = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert pairs_equivalent(StieltjesPair.constant(phi, psi),
                            StieltjesPair.constant(phi @ g, psi @ g))


def test_pairs_equivalent_evaluates_each_pair_once(monkeypatch):
    calls = []
    original = identities.pair_eval

    def counting(p, z):
        calls.append(np.shape(z))
        return original(p, z)

    monkeypatch.setattr(identities, "pair_eval", counting)
    mu, _ = atomic_fixture(np.random.default_rng(5), 2, 1, 0.0)
    p = StieltjesPair.from_function(StieltjesFunction(np.eye(2), mu))
    assert pairs_equivalent(p, p, [1j, 1 + 2j, -3 + 1j])
    assert calls == [(3,), (3,)]


def test_pairs_equivalent_decides_singularity_relative_to_the_pair():
    # psi - i phi = (2 - i) c I_3 is invertible at every scale c; an
    # absolute test on its determinant, (5^(3/2)) c^3, is not.
    for c in (1e-4, 1.0, 1e4):
        scaled = StieltjesPair.constant(c * np.eye(3), 2 * c * np.eye(3))
        assert pairs_equivalent(scaled, StieltjesPair.constant(
            np.eye(3), 2 * np.eye(3)))
    # psi - i phi = 0 at every point: no point is usable.
    null = StieltjesPair.constant(np.eye(2), 1j * np.eye(2))
    with pytest.raises(ValueError, match="all equivalence sample points"):
        pairs_equivalent(null, null)


def test_default_pair_grid_points():
    offsets = [-2 + 1j, -2 - 1j, -2 + 10j, -2 - 10j, 1j, -1j, 10j, -10j,
               1 + 1j, 1 - 1j, 1 + 10j, 1 - 10j,
               3 + 1j, 3 - 1j, 3 + 10j, 3 - 10j, -3 + 0j]
    for alpha in (0.0, 0.5, -1.0):
        assert default_pair_grid(alpha) == [alpha + z for z in offsets]


def test_pair_in_restricted_class_decides_with_the_sequence_tolerance():
    seq10 = scalar_seq([1, 0])
    loose = MomentSequence(0.0, 1, seq10.moments,
                           ToleranceConfig(tol_identity=1e-1))
    near = StieltjesPair.constant([[1.0]], [[1e-4]])
    assert not pair_in_restricted_class(near, seq10, 0)
    assert pair_in_restricted_class(near, loose, 0)


def test_pair_in_restricted_class_does_not_depend_on_the_scale_of_the_pair():
    # (phi, psi) and (c phi, c psi) are one parameter, so they get one
    # verdict: psi = c is never in the class for s = (1, 0), and c times
    # the lifted canonical pair of degenerate data always is.
    seq10 = scalar_seq([1, 0])
    degenerate = []
    for mu, seq, n in kge_fixtures(80, seed=31):
        report = classify(seq, n)
        if report.case == "Degenerate":
            degenerate.append((seq, n, canonical_pair(report)))
    assert len(degenerate) == 6
    for c in (1e-12, 1e-6, 1.0, 1e4, 1e8, 1e12):
        assert not pair_in_restricted_class(
            StieltjesPair.constant([[0.0]], [[c]]), seq10, 0)
        for seq, n, pair in degenerate:
            assert pair_in_restricted_class(StieltjesPair(c * pair.B),
                                            seq, n)


def _gate_agrees_with_points(rng, pair, seq, n):
    """The gate's verdict, checked against the oracle at random points
    off the slit, more of them than the pair has poles."""
    npts = n + 2 + (0 if pair.f is None else len(pair.f.measure.atoms))
    zs = seq.alpha + rng.uniform(-3.0, 3.0, npts) + 1j * rng.choice(
        [-1.0, 1.0], npts) * rng.uniform(0.5, 3.0, npts)
    verdict = pair_in_restricted_class(pair, seq, n)
    assert verdict == in_restricted_class_at_points(pair, seq, n, zs)
    return verdict


def _pairs_in_and_out(rng, report, seq):
    """A lifted constant and function pair of ``report`` and four pairs
    with B, E or both moved by 1e-3."""
    q, r, alpha = seq.q, report.r, seq.alpha
    f = StieltjesFunction(np.eye(r), AtomicMeasure(
        alpha, r, [(alpha + 1.0, np.eye(r)),
                   (alpha + 2.5, random_psd(rng, r))]))
    const = canonical_pair(report)
    func = lift_pair(report, StieltjesPair.from_function(f))
    dB, dE = (1e-3 * (rng.normal(size=(2 * q, c))
                      + 1j * rng.normal(size=(2 * q, c)))
              for c in (q, func.E.shape[1]))
    return (const, StieltjesPair(const.B + dB),
            func, StieltjesPair(func.B + dB, f, func.E),
            StieltjesPair(func.B, f, func.E + dE),
            StieltjesPair(func.B + dB, f, func.E + dE))


def test_pair_in_restricted_class_matches_the_pointwise_conditions():
    # The gate reads the pair's coefficients, the oracle its values.
    # Lifted constant and function pairs of degenerate data are in the
    # class; moving B or E by 1e-3 takes them out.
    rng = np.random.default_rng(11)
    verdicts = []
    for mu, seq, n in kge_fixtures(200, seed=11):
        report = classify(seq, n)
        if report.case != "Degenerate":
            continue
        for pair in _pairs_in_and_out(rng, report, seq):
            verdicts.append(_gate_agrees_with_points(rng, pair, seq, n))
    assert verdicts == [True, False, True, False, False, False] * 16
    # Unlifted pairs on every kind of data, in the class or not.
    verdicts = []
    for mu, seq, n in kge_fixtures(16, seed=8):
        q = seq.q
        f = StieltjesFunction(np.eye(q), AtomicMeasure(
            seq.alpha, q, [(seq.alpha + 1.0, np.eye(q))]))
        for pair in (StieltjesPair.constant(np.zeros((q, q)), np.eye(q)),
                     StieltjesPair.constant(np.eye(q), np.zeros((q, q))),
                     StieltjesPair.from_function(f)):
            verdicts.append(_gate_agrees_with_points(rng, pair, seq, n))
    assert any(verdicts) and not all(verdicts)
    # On non-degenerate data U = V = {0}: every pair is in the class, as
    # the oracle finds it at the points, moved or not.
    rng_nd = np.random.default_rng(12)
    verdicts = []
    for mu, seq, n in kge_fixtures(200, seed=11):
        report = classify(seq, n)
        if report.case != "NonDegenerate":
            continue
        for pair in _pairs_in_and_out(rng_nd, report, seq):
            verdicts.append(_gate_agrees_with_points(rng_nd, pair, seq, n))
    assert len(verdicts) == 6 * 117 and all(verdicts)


def test_pair_checks_decide_with_the_pair_tolerance():
    loose = ToleranceConfig(tol_psd=1e-1)
    strict = StieltjesPair.constant([[1.0]], [[-1e-4]])
    near = StieltjesPair.constant([[1.0]], [[-1e-4]], loose)
    assert not pair_is_valid(strict)
    assert pair_is_valid(near)
    lifted = StieltjesPair.lifted(np.eye(2), near, 1, 0)
    assert lifted.tol is loose
    f = StieltjesFunction(None, AtomicMeasure(0.0, 1, [(1.0, [[1.0]])],
                                              loose))
    assert StieltjesPair.from_function(f).tol is loose
