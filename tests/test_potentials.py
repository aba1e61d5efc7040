"""Potential evaluator consistency and the weighted measure."""

import numpy as np
import pytest
import sympy as sp

from hodgecheck.checks import _half
from hodgecheck.domains import DomainSpec
from hodgecheck.potentials import Potential, WeightedMeasure, _coords, parse_potential


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


@pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_h_refused(h):
    """rescaled(h) and h_param take only a finite positive h: a NaN h would
    give a NaN potential that reads as constant, an infinite one the zero
    potential."""
    pot = Potential.quadratic(1.0, 2)
    with pytest.raises(ValueError, match="finite and positive"):
        pot.rescaled(h)
    with pytest.raises(ValueError, match="finite and positive"):
        Potential(pot.expr, 2, h_param=h)
    with pytest.raises(ValueError, match="finite and positive"):
        parse_potential("quadratic(1.0)", 2, h_param=h)


PRESETS = [("zero", ()), ("quadratic", (1.7,)), ("quartic_double_well", (0.8,)),
           ("quartic_double_well", (0.0,)), ("linear", (-0.4,))]
VARIANTS = {"plain": lambda V: V, "negated": lambda V: V.negated(), "half": _half}


def _lambdified(expr, n):
    f = sp.lambdify(_coords()[:n], expr, modules="numpy")
    return lambda x: np.broadcast_to(np.asarray(f(*x.T), dtype=float), (len(x),))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("preset, args", PRESETS, ids=lambda v: str(v))
def test_preset_evaluators_equal_lambdify_bit_for_bit(preset, args, n, variant):
    """A preset's closed-form evaluators at V/h, -V/h and V/2h equal
    sp.lambdify of its lazily built expression and of that expression's
    derivatives, bit for bit; is_constant and poly_degree are sympy's."""
    xs = _coords()[:n]
    rng = np.random.default_rng(7)
    for h in (1.0, 0.5, 0.3, 0.125, 0.05):
        V = VARIANTS[variant](getattr(Potential, preset)(*args, n).rescaled(h))
        x = rng.uniform(-1.5, 1.5, (50, n))
        e = V.expr
        assert np.array_equal(V.value(x), _lambdified(e, n)(x))
        assert np.array_equal(V.grad(x), np.column_stack(
            [_lambdified(sp.diff(e, s), n)(x) for s in xs]))
        H = V.hess(x)
        for i, si in enumerate(xs):
            for j, sj in enumerate(xs):
                assert np.array_equal(H[:, i, j], _lambdified(sp.diff(e, si, sj), n)(x))
        lap = sum(sp.diff(e, s, 2) for s in xs)
        assert np.array_equal(V.laplacian(x), _lambdified(lap, n)(x))
        degree = e.as_poly(*xs).total_degree() if e.free_symbols else 0
        assert (V.is_constant, V.poly_degree) == (degree == 0, degree)
        assert V.grad_exprs == tuple(sp.diff(e, s) for s in xs)


_CONSTRUCTIONS = {
    "zero": lambda x: sp.Integer(0),
    "quadratic": lambda x, alpha: sp.Rational(1, 2) * alpha * sum(s**2 for s in x),
    "quartic_double_well": lambda x, a: (sum(s**2 for s in x) - a**2) ** 2 / 4,
    "linear": lambda x, c: c * x[0],
}


def _replayed(expr, h, variant):
    """expr (V at h_param 1) as sympy builds it through rescaled(h) and the
    variant: V/h, then -(V/h) or (V/h)/2 over the new potential's h_param 1."""
    e = expr / h
    return {"plain": e, "negated": -e / 1.0, "half": e / 2 / 1.0}[variant]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("preset, args", PRESETS, ids=lambda v: str(v))
def test_preset_expr_is_its_construction(preset, args, n, variant):
    """A preset's sympy form, built from its closed form (kind, c, A), is
    srepr-identical to the construction the preset has always had, at V/h,
    -V/h and V/2h."""
    base = _CONSTRUCTIONS[preset](_coords()[:n], *args) / 1.0
    for h in (1.0, 0.5, 0.3, 0.125, 0.05):
        V = VARIANTS[variant](getattr(Potential, preset)(*args, n).rescaled(h))
        assert sp.srepr(V.expr) == sp.srepr(_replayed(base, h, variant))


@pytest.mark.parametrize("variant", VARIANTS)
def test_table_expr_scales_exactly(variant):
    """A table potential scales its expression by the exact rational of the
    scale: -expr, expr and expr/2, as sympy builds them."""
    T = Potential.polynomial([[2, 0, 1.5], [1, 1, -0.25], [0, 3, 0.1]], 2)
    for h in (1.0, 0.5, 0.3, 0.125, 0.05):
        V = VARIANTS[variant](T.rescaled(h))
        assert sp.srepr(V.expr) == sp.srepr(_replayed(T.expr, h, variant))


@pytest.mark.parametrize("row", [[2.5, 0, 1.0], [-1, 0, 1.0], [1, 0, float("nan")]],
                         ids=["fractional-exponent", "negative-exponent", "nan-coefficient"])
def test_polynomial_refuses_bad_rows(row):
    """A table row needs non-negative integer exponents and a finite
    coefficient; the error names the row."""
    with pytest.raises(ValueError, match="non-negative integer exponents"):
        Potential.polynomial([[0, 0, 1.0], row], 2)


def test_potential_refuses_other_dimensions():
    """A potential lives on R^1 or R^2, the package's ambient dimensions."""
    for n in (0, 3):
        for make in (lambda: Potential.quartic_double_well(1.0, n),
                     lambda: Potential.quadratic(1.0, n), lambda: Potential.zero(n),
                     lambda: Potential(_coords()[0], n)):
            with pytest.raises(ValueError, match="R\\^1 or R\\^2"):
                make()


def test_content_keys():
    """A potential's cache key is its content: rescaled(1.0) keeps the key,
    a zero-coefficient preset shares the zero potential's key, other h and
    signs do not."""
    for n in (1, 2):
        zero = Potential.zero(n).key
        assert Potential.quadratic(0.0, n).key == Potential.linear(0.0, n).key == zero
        for V in (Potential.quadratic(1.7, n), Potential.quartic_double_well(0.8, n),
                  Potential.linear(-0.4, n)):
            assert V.rescaled(1.0).key == V.key
            assert len({zero, V.key, V.rescaled(0.5).key, V.negated().key}) == 4
        expr = Potential(Potential.quadratic(1.7, n).expr, n)
        assert expr.key == expr.expr == expr.rescaled(1.0).key


def test_weighted_measure_normalizes():
    nu = WeightedMeasure(Potential.quadratic(2.0, 2), DomainSpec.disk(1.0), 8)
    assert nu.Z > 0
    q = nu.quadrature
    assert np.isclose(nu.expect(np.ones(len(q.weights))), 1.0, atol=1e-12)
    # closed form: int_disk e^{-r^2} = pi (1 - e^{-1})
    assert np.isclose(nu.Z, np.pi * (1 - np.exp(-1)), atol=1e-12)
