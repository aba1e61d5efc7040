"""Potential evaluator consistency and the weighted measure."""

import numpy as np
import pytest

from hodgecheck.domains import DomainSpec
from hodgecheck.potentials import Potential, WeightedMeasure, parse_potential


def _random_points(n, count=100, seed=0):
    return np.random.default_rng(seed).uniform(-1.2, 1.2, size=(count, n))


def _fd_discrepancy(pot, points, eps=1e-6):
    """Worst normalized gap between grad/Hess/Laplacian and central
    differences of V (grad) and of grad V (Hess); Laplacian vs trace Hess."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    g = pot.grad(x)
    H = pot.hess(x)
    for i in range(pot.n):
        e = np.zeros(pot.n)
        e[i] = eps
        fd_g = (pot.value(x + e) - pot.value(x - e)) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(fd_g - g[:, i]) / (1.0 + np.abs(g[:, i])))))
        fd_h = (pot.grad(x + e) - pot.grad(x - e)) / (2 * eps)
        for j in range(pot.n):
            worst = max(worst, float(np.max(
                np.abs(fd_h[:, j] - H[:, i, j]) / (1.0 + np.abs(H[:, i, j])))))
    lap_err = np.abs(pot.laplacian(x) - np.trace(H, axis1=1, axis2=2))
    return max(worst, float(np.max(lap_err / (1.0 + np.abs(pot.laplacian(x))))))


@pytest.mark.parametrize("pot", [
    Potential.zero(2),
    Potential.quadratic(1.7, 2),
    Potential.quartic_double_well(0.8, 2),
    Potential.linear(-0.4, 2),
    Potential.polynomial([(2, 1, 0.3), (0, 4, -0.1), (1, 1, 0.5)], 2),
    Potential.quadratic(2.0, 1),
])
def test_finite_difference_consistency(pot):
    """grad/Hess/Laplacian agree with central differences of V at 100 points."""
    assert _fd_discrepancy(pot, _random_points(pot.n)) <= 1e-6


def test_preset_values():
    pot = Potential.quadratic(2.0, 2)
    x = np.array([[0.3, -0.4]])
    assert np.isclose(pot.value(x)[0], (0.3**2 + 0.4**2))
    assert np.allclose(pot.hess(x)[0], 2 * np.eye(2))
    assert np.isclose(pot.laplacian(x)[0], 4.0)
    dw = Potential.quartic_double_well(1.0, 2)
    assert np.allclose(dw.hess(np.array([[0.0, 0.0]]))[0], -np.eye(2))
    lin = Potential.linear(0.7, 2)
    assert np.allclose(lin.grad(x)[0], [0.7, 0.0])


def test_parse_potential():
    assert parse_potential("quadratic(1.5)", 2).name == "quadratic(1.5)"
    assert parse_potential("zero", 1).is_constant
    pot = parse_potential({"terms": [[2, 0, 1.0], [0, 2, 1.0]]}, 2)
    assert np.isclose(pot.value(np.array([[1.0, 2.0]]))[0], 5.0)
    with pytest.raises(ValueError):
        parse_potential("cubic(1)", 2)
    with pytest.raises(ValueError):
        parse_potential("quadratic", 2)


def test_rescaled_and_negated():
    pot = Potential.quadratic(2.0, 1)
    x = np.array([[0.5]])
    assert np.isclose(pot.rescaled(0.5).value(x)[0], 2 * pot.value(x)[0])
    assert pot.rescaled(0.5).h_param == 0.5
    assert np.isclose(pot.negated().value(x)[0], -pot.value(x)[0])
    with pytest.raises(ValueError):
        pot.rescaled(-1.0)


def test_weighted_measure_normalizes():
    nu = WeightedMeasure(Potential.quadratic(2.0, 2), DomainSpec.disk(1.0), 8)
    assert nu.Z > 0
    q = nu.quadrature
    assert np.isclose(nu.expect(np.ones(len(q.weights))), 1.0, atol=1e-12)
    # closed form: int_disk e^{-r^2} = pi (1 - e^{-1})
    assert np.isclose(nu.Z, np.pi * (1 - np.exp(-1)), atol=1e-12)
