"""Analytic potentials V and the weighted probability measure exp(-V) dmu / Z.

A Potential bundles mutually consistent evaluators for V, grad V, Hess V and
Delta V (= trace Hess V, the Euclidean sign convention).  A preset evaluates
its closed form without sympy, with the floating-point operations, in order,
and the printed constants of ``sp.lambdify`` on its sympy expression, so
the two agree bit for bit; another expression (a polynomial table) is
derived by sympy diff and lambdify.  ``expr`` and the symbolic gradient
``grad_exprs`` are built, and sympy imported, on first access.  The tests
check the evaluators against central differences of V as a guard.

Presets: "zero", "quadratic(alpha)" = alpha|x|^2/2,
"quartic_double_well(a)" = (|x|^2 - a^2)^2/4, "linear(c)" = c*x1,
plus arbitrary polynomials from a coefficient table.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable

import numpy as np

from . import runcache
from .domains import DomainSpec, domain_quadrature

__all__ = ["Potential", "WeightedMeasure", "parse_potential", "PRESET_POTENTIALS"]


@functools.cache
def _coords():
    """The sympy symbols [x1, x2]; imports sympy."""
    import sympy as sp
    return [sp.Symbol("x1"), sp.Symbol("x2")]


def __getattr__(name):
    if name == "_COORDS":      # importable as before, without loading sympy on import
        return _coords()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _lambdify(expr, n):
    """Vectorized evaluator of a sympy expression in x1..xn: (m, n) points
    -> (m,) values; once per (expr, n) in a run."""
    def build():
        import sympy as sp
        # docstring_limit=0: no printing of the expression into a docstring
        f = sp.lambdify(_coords()[:n], expr, modules="numpy", docstring_limit=0)

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
        import sympy as sp
        syms = _coords()[:n]
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


def _printed(v: float) -> float:
    """The constant lambdify writes for a sympy Float of value v: 15
    significant digits, a half rounded away from zero (mpmath's to_str)."""
    if v == 0 or not math.isfinite(v):
        return v
    d = Decimal(v)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 14), rounding=ROUND_HALF_UP))


def _squares(coeffs, k=0.0):
    """x -> coeffs[0]*x1**2 + coeffs[1]*x2**2 - k, left to right, no k if 0."""
    def f(x):
        out = coeffs[0] * x[:, 0] ** 2
        for i in range(1, len(coeffs)):
            out = out + coeffs[i] * x[:, i] ** 2
        return out - k if k else out

    return f


@dataclass(frozen=True)
class _Preset:
    """A preset's closed form c*|x|^2, c*(|x|^2 - A)^2, c*x1 or 0, and
    symbolic() building the sympy expression it evaluates.  c is sympy's
    Float: times(s) rounds c*s once, as sympy multiplies Floats."""

    kind: str
    c: float
    A: float = 0.0
    symbolic: Callable = None

    def times(self, s: float, symbolic) -> "_Preset":
        c = self.c * s
        return _Preset(self.kind, c, self.A, symbolic) if c else _Preset("zero", 0.0, 0.0, symbolic)

    def evaluators(self, n: int):
        """(value, gradient, Hessian, Laplacian) evaluators on (m, n) points."""
        c, A = self.c, self.A
        c1, c2, c4, c8, c12 = (_printed(k * c) for k in (1, 2, 4, 8, 12))
        const = lambda v: (lambda x: np.full(x.shape[0], v))   # noqa: E731
        zero = const(0.0)
        flat = ((zero,) * n,) * n
        if self.kind == "zero":
            return zero, (zero,) * n, flat, zero
        if self.kind == "linear":
            return (lambda x: c1 * x[:, 0]), (const(c1),) + (zero,) * (n - 1), flat, zero
        if self.kind == "quadratic":
            hess = tuple(tuple(const(c2) if j == i else zero for j in range(n)) for i in range(n))
            return (_squares([c1] * n), tuple(lambda x, i=i: c2 * x[:, i] for i in range(n)),
                    hess, const(_printed(2 * n * c)))
        if n == 1 and not A:        # sympy writes (x1**2)**2 as x1**4
            h = lambda x: c12 * x[:, 0] ** 2   # noqa: E731
            return (lambda x: c1 * x[:, 0] ** 4), (lambda x: c4 * x[:, 0] ** 3,), ((h,),), h
        base, K = _squares([1.0] * n, _printed(A)), 4 * c * A
        diag = [_squares([c12 if j == i else c4 for j in range(n)], _printed(K)) for i in range(n)]
        hess = tuple(tuple(diag[i] if j == i else (lambda x: c8 * x[:, 0] * x[:, 1])
                           for j in range(n)) for i in range(n))
        lap = (diag[0] if n == 1 else
               (lambda x: diag[0](x) + diag[1](x)) if c < 0 and not K else  # sympy: -(H11) - (H00)
               _squares([_printed(12 * c + 4 * c)] * 2, _printed(2 * K)))
        return ((lambda x: c1 * base(x) ** 2),
                tuple(lambda x, i=i: c4 * x[:, i] * base(x) for i in range(n)), hess, lap)


class Potential:
    """Potential with exact derivative evaluators on R^n, from a sympy
    expression or a preset's closed form.  ``key`` is its content (the
    closed form, else the expression V/h): one key, one set of evaluators."""

    def __init__(self, expr, n: int, name: str = "custom", h_param: float = 1.0):
        h_param = float(h_param)
        if not (math.isfinite(h_param) and h_param > 0):
            raise ValueError(f"h_param must be finite and positive, got {h_param!r}")
        self.n = int(n)
        self.name = name
        self.h_param = h_param
        # effective potential V/h is what every evaluator sees
        if isinstance(expr, _Preset):
            self._preset = pre = expr.times(1.0 / h_param, lambda: expr.symbolic() / h_param)
            self._expr = self._grad_exprs = None
            self._v, self._grad, self._hess, self._lap = pre.evaluators(self.n)
            self.key = (pre.kind, pre.c, pre.A)
            self.poly_degree = {"zero": 0, "linear": 1, "quadratic": 2, "quartic": 4}[pre.kind]
            self.is_constant = self.poly_degree == 0
            return
        import sympy as sp
        self._preset = None
        self._expr = self.key = sp.sympify(expr) / h_param
        self._v = _lambdify(self._expr, self.n)
        (self._grad_exprs, self._grad, self._hess, self._lap, self.is_constant,
         self.poly_degree) = _derive(self._expr, self.n)

    @property
    def expr(self):
        """V/h as a sympy expression."""
        if self._expr is None:
            self._expr = self._preset.symbolic()
        return self._expr

    @property
    def grad_exprs(self) -> tuple:
        """The symbolic gradient of expr; once per (expr, n) in a run."""
        if self._grad_exprs is None:
            import sympy as sp
            self._grad_exprs = runcache.cached(("gradient", self.expr, self.n), lambda: tuple(
                sp.diff(self.expr, s) for s in _coords()[:self.n]))
        return self._grad_exprs

    # -- evaluators ----------------------------------------------------------
    def value(self, x) -> np.ndarray:
        return self._v(np.atleast_2d(np.asarray(x, dtype=float)))

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
        return self._lap(np.atleast_2d(np.asarray(x, dtype=float)))

    def weight(self, x) -> np.ndarray:
        """exp(-V)."""
        return np.exp(-self.value(x))

    def normal_derivative(self, x, normals) -> np.ndarray:
        return np.einsum("ij,ij->i", self.grad(x), np.asarray(normals, dtype=float))

    # -- transforms ----------------------------------------------------------
    def _scaled(self, s: float, symbolic, name: str, h_param: float = 1.0) -> "Potential":
        """Potential(symbolic(), n, name, h_param) for symbolic() = s * expr;
        a preset scales its closed form by s and defers symbolic()."""
        if self._preset is None:
            return Potential(symbolic(), self.n, name, h_param)
        return Potential(self._preset.times(s, symbolic), self.n, name, h_param)

    def negated(self) -> "Potential":
        return self._scaled(-1.0, lambda: -self.expr, f"neg({self.name})")

    def rescaled(self, h: float) -> "Potential":
        """Semiclassical rescaling: effective potential becomes V/h."""
        return self._scaled(1.0, lambda: self.expr, f"{self.name}/h={h:g}", h)

    def __repr__(self):
        return f"Potential({self.name}, n={self.n})"

    # -- presets ---------------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Potential":
        return Potential(_preset("zero", 0.0, n, lambda sp, x: sp.Integer(0)), n, name="zero")

    @staticmethod
    def quadratic(alpha: float, n: int) -> "Potential":
        return Potential(_preset("quadratic", 0.5 * alpha, n,
                                 lambda sp, x: sp.Rational(1, 2) * alpha * sum(s**2 for s in x)),
                         n, name=f"quadratic({alpha:g})")

    @staticmethod
    def quartic_double_well(a: float, n: int) -> "Potential":
        return Potential(_preset("quartic", 0.25, n,
                                 lambda sp, x: (sum(s**2 for s in x) - a**2) ** 2 / 4, a**2),
                         n, name=f"quartic_double_well({a:g})")

    @staticmethod
    def linear(c: float, n: int) -> "Potential":
        return Potential(_preset("linear", c, n, lambda sp, x: c * x[0]), n, name=f"linear({c:g})")

    @staticmethod
    def polynomial(terms, n: int) -> "Potential":
        """terms: iterable of (exponents..., coefficient) rows."""
        import sympy as sp
        expr = sp.Integer(0)
        for row in terms:
            *exps, coef = row
            if len(exps) != n:
                raise ValueError(f"polynomial term {row} needs {n} exponents")
            mono = sp.Integer(1)
            for s, e in zip(_coords()[:n], exps):
                mono *= s ** int(e)
            expr += float(coef) * mono
        return Potential(expr, n, name="polynomial")


def _preset(kind: str, c: float, n: int, build, A: float = 0.0) -> _Preset:
    """The closed form of a preset on R^n with coefficient c; build(sympy,
    [x1..xn]) is the expression that preset has always had."""
    def symbolic():
        import sympy as sp
        return build(sp, _coords()[:n])

    return _Preset(kind, 1.0, A).times(c, symbolic)


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
