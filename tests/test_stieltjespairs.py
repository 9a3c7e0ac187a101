"""Unit tests for atomic measures, transforms, and parameter pairs."""

import numpy as np
import pytest

from stieltjesmp import MomentSequence
from stieltjesmp.stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    default_pair_grid,
    moments_of,
    pair_eval,
    pair_in_restricted_class,
    pair_is_valid,
    pairs_equivalent,
    sharp_measure,
    transform,
)

from conftest import atomic_fixture


def delta(t, mass=1.0, alpha=0.0):
    return AtomicMeasure(alpha, 1, [(t, [[mass]])])


def scalar_seq(values, alpha=0.0):
    return MomentSequence(alpha, 1, [[[float(v)]] for v in values])


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(0.0, 1, [(-1.0, [[1.0]])])
    with pytest.raises(ValueError):
        AtomicMeasure(0.0, 1, [(1.0, [[-1.0]])])
    mu = AtomicMeasure(0.0, 1, [(2.0, [[1.0]]), (1.0, [[0.5]]),
                                (2.0, [[0.25]])])
    assert [t for t, _ in mu.atoms] == [1.0, 2.0]
    assert np.allclose(mu.atoms[1][1], 1.25)
    assert np.allclose(mu.total_mass(), 1.75)


def test_moments_of_examples():
    seq = moments_of(delta(1.0), 3)
    assert np.allclose([seq.s(j).item() for j in range(4)], [1, 1, 1, 1])
    empty = AtomicMeasure(0.0, 2, [])
    assert np.allclose(moments_of(empty, 2).s(1), 0.0)
    mu = AtomicMeasure(0.0, 1, [(0.0, [[0.5]]), (2.0, [[0.5]])])
    assert np.allclose([moments_of(mu, 2).s(j).item() for j in range(3)],
                       [1.0, 1.0, 2.0])


def test_transform_examples():
    assert np.allclose(transform(delta(1.0), 1j), (1 + 1j) / 2)
    assert np.allclose(transform(AtomicMeasure(0.0, 2, []), 1j), 0.0)
    mu = AtomicMeasure(0.0, 1, [(0.0, [[1.0]]), (2.0, [[1.0]])])
    assert np.allclose(transform(mu, -1.0), 1.0 + 1.0 / 3.0)
    with pytest.raises(ValueError):
        transform(delta(1.0), 1.0)


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
    mass = mu.total_mass()
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
    for j in range(3):
        assert np.allclose(sharp.s(j), base.s(j + 1) - mu.alpha * base.s(j))


def test_stieltjes_function():
    f = StieltjesFunction([[2.0]], delta(1.0))
    assert np.allclose(f(1j), 2.0 + (1 + 1j) / 2)
    with pytest.raises(ValueError):
        StieltjesFunction([[-1.0]], delta(1.0))


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
    assert lifted.degree_bound() == 0


def test_pair_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        StieltjesPair.constant(np.zeros((2, 2)), np.zeros((2, 2)))
    inner = StieltjesPair.constant([[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        StieltjesPair.lifted(np.eye(2), inner, 1, 1)  # r = 0 not liftable
    with pytest.raises(ValueError):
        StieltjesPair.lifted(2 * np.eye(2), inner, 1, 0)  # not unitary


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


def test_default_pair_grid_points():
    offsets = [-2 + 1j, -2 - 1j, -2 + 10j, -2 - 10j, 1j, -1j, 10j, -10j,
               1 + 1j, 1 - 1j, 1 + 10j, 1 - 10j,
               3 + 1j, 3 - 1j, 3 + 10j, 3 - 10j, -3 + 0j]
    for alpha in (0.0, 0.5, -1.0):
        assert default_pair_grid(alpha) == [alpha + z for z in offsets]
