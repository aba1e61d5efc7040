"""Analytic differential forms with exact derivative evaluators, and exact
polynomial calculus.

Components are sympy expressions in Cartesian coordinates (x1[, x2]); the
constructor lambdifies values, and first derivatives are lambdified on the
first ``component_grads`` call.  The calculus helpers (exterior derivative,
flat/weighted codifferential, interior and wedge products) produce new forms
symbolically, so every identity check can integrate both of its sides from
independent closed-form integrands.  The wedge and interior helpers contract
the components with the matrices of ``exterior``, which owns the sign
conventions.

The carre-du-champ check works on polynomials instead: ``exact_polynomial``
expands a polynomial expression once as an ``sp.Poly`` with rational
coefficients in coordinates centred at a given point,
``weighted_laplacian_poly`` applies L^(0) = -Delta + grad V . grad to it by
``Poly.diff``, and ``evaluate_polys`` evaluates several such polynomials at
one point set.
"""

from __future__ import annotations

import numpy as np
import sympy as sp
from sympy.polys.polyerrors import BasePolynomialError

from . import exterior
from .potentials import Potential, _COORDS, _lambdify

__all__ = ["AnalyticForm", "BoundaryConditionError", "exact_polynomial",
           "weighted_laplacian_poly", "evaluate_polys"]


class BoundaryConditionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact polynomial calculus in centred coordinates
# ---------------------------------------------------------------------------

def exact_polynomial(expr, n: int, center, name: str) -> sp.Poly:
    """expr as an sp.Poly over the rationals in y = x - center.

    Each Float becomes the Rational of its own binary value, as
    ``presets._bubble`` does for polygon vertices, and x_i becomes
    y_i + c_i with c_i the Rational of the float center[i]; the generators
    x1..xn of the result stand for the centred coordinates y.  Centring
    keeps the expanded coefficients from cancelling: on the L-shaped polygon
    with corners (0, 0) and (2, 2), expanded about (0, 0) instead of its
    centre (1, 1), the gamma2 rhs reads 1.2e-10 relative off the sympy-tree
    value, against 3e-14.  Raises ValueError naming ``name`` and expr unless
    expr is a polynomial in x1..xn with rational or float coefficients.
    """
    expr = sp.sympify(expr)
    syms = _COORDS[:n]
    exact = expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})
    exact = exact.xreplace({s: s + sp.Rational(float(c)) for s, c in zip(syms, center)})
    try:
        return sp.poly(exact, *syms, domain=sp.QQ)
    except BasePolynomialError:
        raise ValueError(f"{name} must be a polynomial in {', '.join(map(str, syms))} "
                         f"with rational or float coefficients, got {expr}") from None


def _poly_drift(u: sp.Poly, grad_v) -> sp.Poly:
    """grad V . grad u, grad_v holding the partials of V as polynomials."""
    return sum((g * u.diff(s) for s, g in zip(u.gens, grad_v)), u.zero)


def weighted_laplacian_poly(u: sp.Poly, grad_v) -> sp.Poly:
    """L^(0) u = -Delta u + grad V . grad u of a polynomial u, exactly."""
    return _poly_drift(u, grad_v) - sum((u.diff((s, 2)) for s in u.gens), u.zero)


def _rational(c) -> float:
    """The double nearest to a sympy Rational (Python's int division rounds
    correctly)."""
    return int(c.p) / int(c.q)


def evaluate_polys(polys, points, center) -> list[np.ndarray]:
    """Values of polynomials in y = x - center at the (m, n) points.

    Each polynomial is evaluated from its square-free decomposition
    c * prod_i f_i^k_i (``Poly.sqf_list``, exact): the factors from one
    table of the powers y_j^k, tabulated once up to the largest factor
    degree, as dense coefficient arrays (each rational coefficient rounded
    once) contracted against it, over the last coordinate and then the
    first; then the product of their powers.  A bump that vanishes to high
    order on the boundary is a high power of a low-degree factor, and its
    expanded monomial sum cancels: evaluated expanded, the Gamma integral of
    the annulus bump reads 3.9e-9 relative off, and 1.5e-7 on the L-shaped
    polygon.
    """
    y = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, dtype=float)
    decomps = [p.sqf_list() for p in polys]
    top = max((max(f.degree_list()) for _, fs in decomps for f, _ in fs), default=0)
    powers = y.T[:, None, :] ** np.arange(top + 1)[:, None]      # (n, top + 1, m)
    out = []
    for c, factors in decomps:
        vals = np.full(y.shape[0], _rational(c))
        for f, k in factors:
            coeffs = np.zeros([d + 1 for d in f.degree_list()])
            for monom, a in f.terms():
                coeffs[monom] = _rational(a)
            fv = coeffs @ powers[-1, :coeffs.shape[-1]]
            if y.shape[1] == 2:
                fv = (fv * powers[0, :coeffs.shape[0]]).sum(axis=0)
            vals = vals * fv ** k
        out.append(vals)
    return out


class AnalyticForm:
    """Degree-p form with C(n, p) sympy component expressions."""

    def __init__(self, n: int, degree: int, comps, bc: str = "none", name: str = "form"):
        self.n = int(n)
        self.degree = int(degree)
        C = exterior.num_components(self.n, self.degree)
        comps = [sp.sympify(c) for c in (comps if isinstance(comps, (list, tuple)) else [comps])]
        if len(comps) != C:
            raise ValueError(f"degree {degree} in n={n} needs {C} components, got {len(comps)}")
        self.comps = comps
        self.bc = bc
        self.name = name
        self._vals = [_lambdify(c, self.n) for c in comps]
        self._grads = None   # derivative evaluators, built by component_grads

    # -- pointwise evaluation ------------------------------------------------
    def components(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.column_stack([v(x) for v in self._vals])

    def component_grads(self, x) -> np.ndarray:
        """(m, C, n) array of d(component_c)/dx_i."""
        if self._grads is None:
            self._grads = [[_lambdify(sp.diff(c, s), self.n) for s in _COORDS[:self.n]]
                           for c in self.comps]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty((x.shape[0], len(self.comps), self.n))
        for c, row in enumerate(self._grads):
            for i, g in enumerate(row):
                out[:, c, i] = g(x)
        return out

    def norm_sq(self, x) -> np.ndarray:
        v = self.components(x)
        return np.einsum("mc,mc->m", v, v)

    # -- symbolic calculus -----------------------------------------------------
    def _contract(self, mats, coeffs, differentiate: bool, degree: int,
                  name: str) -> "AnalyticForm":
        """The form with components sum_{i, c} M_i[r, c] coeffs[i] v_c^i, where
        v_c^i is component c, or its x_i derivative when differentiate.

        Each term is built coefficient first, int(M_i[r, c]) * coeffs[i] *
        v_c^i, summed over source components c, then i, and v_c^i is formed
        only where M_i[r, c] is nonzero.
        """
        out = [sp.Integer(0)] * mats[0].shape[0]
        for c in range(mats[0].shape[1]):
            for i, M in enumerate(mats):
                for r in np.flatnonzero(M[:, c]):
                    v = sp.diff(self.comps[c], _COORDS[i]) if differentiate else self.comps[c]
                    out[r] += int(M[r, c]) * coeffs[i] * v
        return AnalyticForm(self.n, degree, out, name=name)

    def _wedges(self):
        """Matrices of dx_i ^ . on this degree, stacked over i = 1..n."""
        return exterior.wedge_covector_matrix(np.eye(self.n), self.degree)

    def _interiors(self):
        """Matrices of i_{e_i} on this degree, stacked over i = 1..n."""
        return exterior.interior_product_matrix(np.eye(self.n), self.degree)

    def d(self) -> "AnalyticForm":
        """Exterior derivative d = sum_i dx_i ^ partial_i."""
        if self.degree >= self.n:
            raise ValueError("exterior derivative at top degree")
        return self._contract(self._wedges(), [1] * self.n, True, self.degree + 1,
                              f"d({self.name})")

    def codifferential(self) -> "AnalyticForm":
        """Flat codifferential d* = -sum_i i_{e_i} partial_i."""
        if self.degree < 1:
            raise ValueError("codifferential at degree 0")
        return self._contract(self._interiors(), [-1] * self.n, True, self.degree - 1,
                              f"d*({self.name})")

    def interior_with(self, vec_exprs) -> "AnalyticForm":
        """Interior product with a vector field given by sympy components."""
        if self.degree < 1:
            raise ValueError("interior product at degree 0")
        return self._contract(self._interiors(), vec_exprs, False, self.degree - 1,
                              f"i_X({self.name})")

    def wedge_with(self, cov_exprs) -> "AnalyticForm":
        """Left wedge with a 1-form given by sympy components."""
        return self._contract(self._wedges(), cov_exprs, False, self.degree + 1,
                              f"a^({self.name})")

    def add(self, other: "AnalyticForm") -> "AnalyticForm":
        return AnalyticForm(self.n, self.degree,
                            [a + b for a, b in zip(self.comps, other.comps)],
                            name=f"{self.name}+{other.name}")

    def codifferential_weighted(self, potential: Potential) -> "AnalyticForm":
        """d*_V = d* + i_{grad V} (the adjoint of d in L^2(e^{-V} dmu))."""
        gradV = [sp.diff(potential.expr, s) for s in _COORDS[:self.n]]
        return self.codifferential().add(self.interior_with(gradV))

    # -- boundary traces --------------------------------------------------------
    def boundary_trace_norms(self, boundary) -> tuple[float, float]:
        """(max |t w|, max |n w|) over the boundary rule's points."""
        pts = np.atleast_2d(boundary.points)
        if pts.shape[0] == 0:
            return 0.0, 0.0
        comp = self.components(pts)
        Pt = exterior.tangential_projector(boundary.normals, self.degree)
        tpart = np.einsum("mij,mj->mi", Pt, comp)
        return (float(np.linalg.norm(tpart, axis=1).max()),
                float(np.linalg.norm(comp - tpart, axis=1).max()))

    def verify_bc(self, boundary, tol: float = 1e-10):
        """Check the declared boundary condition on sampled boundary points."""
        if self.bc == "none":
            return
        tmax, nmax = self.boundary_trace_norms(boundary)
        if self.bc == "tangential" and tmax > tol:
            raise BoundaryConditionError(
                f"{self.name}: declared t w = 0 but max |t w| = {tmax:.2e}")
        if self.bc == "normal" and nmax > tol:
            raise BoundaryConditionError(
                f"{self.name}: declared n w = 0 but max |n w| = {nmax:.2e}")

    def __repr__(self):
        return f"AnalyticForm({self.name}, n={self.n}, p={self.degree}, bc={self.bc})"
