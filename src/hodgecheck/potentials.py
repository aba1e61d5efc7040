"""Analytic potentials V and the weighted probability measure exp(-V) dmu / Z.

A Potential bundles mutually consistent evaluators for V, grad V, Hess V and
Delta V (= trace Hess V, the Euclidean sign convention), and the symbolic
gradient ``grad_exprs``.  All are derived from one sympy expression so
consistency is structural; the tests check the evaluators against central
differences of V as an independent guard.

Presets: "zero", "quadratic(alpha)" = alpha|x|^2/2,
"quartic_double_well(a)" = (|x|^2 - a^2)^2/4, "linear(c)" = c*x1,
plus arbitrary polynomials from a coefficient table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import sympy as sp

from . import runcache
from .domains import DomainSpec, domain_quadrature

__all__ = ["Potential", "WeightedMeasure", "parse_potential", "PRESET_POTENTIALS"]

_COORDS = [sp.Symbol("x1"), sp.Symbol("x2")]


def _lambdify(expr, n):
    """Vectorized evaluator of a sympy expression in x1..xn: (m, n) points
    -> (m,) values; once per (expr, n) in a run."""
    def build():
        # docstring_limit=0: no printing of the expression into a docstring
        f = sp.lambdify(_COORDS[:n], expr, modules="numpy", docstring_limit=0)

        def wrapped(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            out = f(*[x[:, i] for i in range(n)])
            return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],)).copy()

        return wrapped

    return runcache.cached(("lambdify", expr, n), build)


def _derive(expr, n):
    """(symbolic gradient, gradient, Hessian and Laplacian evaluators,
    is_constant, poly_degree) of V = expr on R^n; once per (expr, n) in a
    run."""
    def build():
        syms = _COORDS[:n]
        grad_exprs = tuple(sp.diff(expr, s) for s in syms)
        grad = tuple(_lambdify(g, n) for g in grad_exprs)
        hess = tuple(tuple(_lambdify(sp.diff(expr, si, sj), n) for sj in syms) for si in syms)
        lap = _lambdify(sum(sp.diff(expr, s, 2) for s in syms), n)
        poly = expr.as_poly(*syms) if expr.free_symbols else None
        poly_degree = poly.total_degree() if poly is not None else (
            None if expr.free_symbols else 0)
        # a non-polynomial counts as non-constant: the conservative side
        return grad_exprs, grad, hess, lap, poly_degree == 0, poly_degree

    return runcache.cached(("potential", expr, n), build)


class Potential:
    """Potential with exact derivative evaluators on R^n."""

    def __init__(self, expr, n: int, name: str = "custom", h_param: float = 1.0):
        if h_param <= 0:
            raise ValueError("h_param must be positive")
        self.n = int(n)
        self.name = name
        self.h_param = float(h_param)
        # effective potential V/h is what every evaluator sees
        self.expr = sp.sympify(expr) / h_param
        self._v = _lambdify(self.expr, self.n)
        (self.grad_exprs, self._grad, self._hess, self._lap, self.is_constant,
         self.poly_degree) = _derive(self.expr, self.n)

    # -- evaluators ----------------------------------------------------------
    def value(self, x) -> np.ndarray:
        return self._v(x)

    def grad(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.column_stack([g(x) for g in self._grad])

    def hess(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m = x.shape[0]
        H = np.empty((m, self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                H[:, i, j] = self._hess[i][j](x)
        return H

    def laplacian(self, x) -> np.ndarray:
        return self._lap(x)

    def weight(self, x) -> np.ndarray:
        """exp(-V)."""
        return np.exp(-self.value(x))

    def normal_derivative(self, x, normals) -> np.ndarray:
        return np.einsum("ij,ij->i", self.grad(x), np.asarray(normals, dtype=float))

    # -- transforms ----------------------------------------------------------
    def negated(self) -> "Potential":
        return Potential(-self.expr, self.n, name=f"neg({self.name})")

    def rescaled(self, h: float) -> "Potential":
        """Semiclassical rescaling: effective potential becomes V/h."""
        return Potential(self.expr, self.n, name=f"{self.name}/h={h:g}", h_param=h)

    def __repr__(self):
        return f"Potential({self.name}, n={self.n})"

    # -- presets ---------------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Potential":
        return Potential(sp.Integer(0), n, name="zero")

    @staticmethod
    def quadratic(alpha: float, n: int) -> "Potential":
        r2 = sum(s**2 for s in _COORDS[:n])
        return Potential(sp.Rational(1, 2) * alpha * r2, n, name=f"quadratic({alpha:g})")

    @staticmethod
    def quartic_double_well(a: float, n: int) -> "Potential":
        r2 = sum(s**2 for s in _COORDS[:n])
        return Potential((r2 - a**2) ** 2 / 4, n, name=f"quartic_double_well({a:g})")

    @staticmethod
    def linear(c: float, n: int) -> "Potential":
        return Potential(c * _COORDS[0], n, name=f"linear({c:g})")

    @staticmethod
    def polynomial(terms, n: int) -> "Potential":
        """terms: iterable of (exponents..., coefficient) rows."""
        expr = sp.Integer(0)
        for row in terms:
            *exps, coef = row
            if len(exps) != n:
                raise ValueError(f"polynomial term {row} needs {n} exponents")
            mono = sp.Integer(1)
            for s, e in zip(_COORDS[:n], exps):
                mono *= s ** int(e)
            expr += float(coef) * mono
        return Potential(expr, n, name="polynomial")


PRESET_POTENTIALS = {
    "zero": "zero dV/dx everywhere; unweighted Lebesgue measure",
    "quadratic(alpha)": "alpha*|x|^2/2 (Hess V = alpha*I)",
    "quartic_double_well(a)": "(|x|^2 - a^2)^2/4 (indefinite Hessian near 0)",
    "linear(c)": "c*x1",
}

_PRESET_RE = re.compile(r"^(zero|quadratic|quartic_double_well|linear)(?:\(([^)]*)\))?$")


def parse_potential(text_or_table, n: int, h_param: float = 1.0) -> Potential:
    """Parse "quadratic(1.0)"-style preset names or a polynomial table."""
    if isinstance(text_or_table, dict):
        pot = Potential.polynomial(text_or_table["terms"], n)
    else:
        m = _PRESET_RE.match(str(text_or_table).strip())
        if not m:
            raise ValueError(f"unknown potential preset {text_or_table!r}")
        kind, arg = m.group(1), m.group(2)
        if kind == "zero":
            pot = Potential.zero(n)
        else:
            if arg is None or arg == "":
                raise ValueError(f"potential {kind!r} needs a parameter")
            val = float(arg)
            if not np.isfinite(val):
                raise ValueError(f"potential {kind!r} needs a finite parameter, got {arg!r}")
            pot = {"quadratic": Potential.quadratic,
                   "quartic_double_well": Potential.quartic_double_well,
                   "linear": Potential.linear}[kind](val, n)
    if h_param != 1.0:
        pot = pot.rescaled(h_param)
    return pot


@dataclass
class WeightedMeasure:
    """Probability measure d nu = exp(-V) dmu / Z on a domain."""

    potential: Potential
    domain: DomainSpec
    quad_order: int = 8

    def __post_init__(self):
        self.quadrature = domain_quadrature(self.domain, self.quad_order)
        w = self.potential.weight(self.quadrature.points)
        if not np.all(np.isfinite(w)):
            raise ValueError("weight exp(-V) not finite on the domain")
        self.Z = float(self.quadrature.integrate(w))
        if not (np.isfinite(self.Z) and self.Z > 0):
            raise ValueError("normalization of exp(-V) d mu must be positive and finite")
        self._weights = self.quadrature.weights * w   # the rule's weights times exp(-V)

    def expect(self, values: np.ndarray) -> float:
        """Integral against d nu, for values sampled at the rule's points."""
        return float(np.dot(self._weights, values)) / self.Z
