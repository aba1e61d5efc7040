"""Analytic differential forms with exact derivative evaluators, and exact
polynomial calculus.

Components are sympy expressions in Cartesian coordinates (x1[, x2]),
and sympy is imported where a form or polynomial is first built;
values are lambdified on the first ``components`` call and first
derivatives on the first ``component_grads`` call, so a form that is only
an intermediate term is never compiled.  The calculus is Witten's: ``d(f)``
and ``codifferential(f)`` build d_f = d + df ^ and d*_f = d* + i_{grad f}
symbolically for a Potential f (the flat d and d* when f is None, d*_V at
f = V), each as one contraction of the components and of f.grad_exprs with
the matrices of ``exterior``, which owns the sign conventions.  Every
identity check thus integrates both of its sides from independent
closed-form integrands.

The carre-du-champ check works on polynomials instead: ``exact_polynomial``
expands a polynomial expression once as an ``sp.Poly`` with rational
coefficients in coordinates centred at a given point,
``weighted_laplacian_poly`` applies L^(0) = -Delta + grad V . grad to it by
``Poly.diff``, and ``evaluate_square_free`` evaluates several such
polynomials, given by their square-free decompositions, at one point set.
"""

from __future__ import annotations

import numpy as np

from . import exterior
from .potentials import Potential, _coords, _lambdify

__all__ = ["AnalyticForm", "BoundaryConditionError", "exact_polynomial",
           "weighted_laplacian_poly", "evaluate_square_free"]


BC_TOL = 1e-10  # largest boundary trace norm verify_bc reads as zero


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
    import sympy as sp
    from sympy.polys.polyerrors import BasePolynomialError
    expr = sp.sympify(expr)
    syms = _coords()[:n]
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


def evaluate_square_free(decomps, points, center) -> list[np.ndarray]:
    """Values at the (m, n) points of polynomials in y = x - center, each
    given by its square-free decomposition c * prod_i f_i^k_i
    (``Poly.sqf_list``, exact).

    The factors are evaluated from one table of the powers y_j^k, tabulated
    once up to the largest factor degree, as dense coefficient arrays (each
    rational coefficient rounded once) contracted against it, over the last
    coordinate and then the first; then the product of their powers.  A
    bump that vanishes to high order on the boundary is a high power of a
    low-degree factor, and its expanded monomial sum cancels: evaluated
    expanded, the Gamma integral of the annulus bump reads 3.9e-9 relative
    off, and 1.5e-7 on the L-shaped polygon.
    """
    y = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, dtype=float)
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
        import sympy as sp
        self.n = int(n)
        self.degree = int(degree)
        C = exterior.num_components(self.n, self.degree)
        comps = [sp.sympify(c) for c in (comps if isinstance(comps, (list, tuple)) else [comps])]
        if len(comps) != C:
            raise ValueError(f"degree {degree} in n={n} needs {C} components, got {len(comps)}")
        self.comps = comps
        self.bc = bc
        self.name = name
        self._vals = None    # value evaluators, built by components
        self._grads = None   # derivative evaluators, built by component_grads

    # -- pointwise evaluation ------------------------------------------------
    def components(self, x) -> np.ndarray:
        """(m, C) array of component values."""
        if self._vals is None:
            self._vals = [_lambdify(c, self.n) for c in self.comps]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.column_stack([v(x) for v in self._vals])

    def component_grads(self, x) -> np.ndarray:
        """(m, C, n) array of d(component_c)/dx_i."""
        if self._grads is None:
            import sympy as sp
            self._grads = [[_lambdify(sp.diff(c, s), self.n) for s in _coords()[:self.n]]
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

    # -- Witten calculus ------------------------------------------------------
    def _twisted(self, mats, sign: int, f: Potential | None, degree: int,
                 name: str) -> "AnalyticForm":
        """sum_i M_i (sign partial_i + (partial_i f)) w, with M_i the matrices
        of dx_i ^ or i_{e_i} on this degree.  Each term is built coefficient
        first, int(M_i[r, c]) * coefficient * v_c, and summed over source
        components c, then i: the partial_i terms in one sum and the
        (partial_i f) terms, from f.grad_exprs, in another, added last."""
        import sympy as sp
        dpart = [sp.Integer(0)] * mats[0].shape[0]
        fpart = list(dpart)
        for c, v in enumerate(self.comps):
            for i, M in enumerate(mats):
                for r in np.flatnonzero(M[:, c]):
                    dpart[r] += int(M[r, c]) * sign * sp.diff(v, _coords()[i])
                    if f is not None:
                        fpart[r] += int(M[r, c]) * f.grad_exprs[i] * v
        return AnalyticForm(self.n, degree, [a + b for a, b in zip(dpart, fpart)], name=name)

    def d(self, f: Potential | None = None) -> "AnalyticForm":
        """d_f = d + df ^ = sum_i dx_i ^ (partial_i + partial_i f); d at f = None."""
        if self.degree >= self.n:
            raise ValueError("exterior derivative at top degree")
        wedges = exterior.wedge_covector_matrix(np.eye(self.n), self.degree)
        return self._twisted(wedges, 1, f, self.degree + 1, f"d({self.name})")

    def codifferential(self, f: Potential | None = None) -> "AnalyticForm":
        """d*_f = d* + i_{grad f} = sum_i i_{e_i} (-partial_i + partial_i f);
        the flat d* at f = None.  At f = V it is d*_V, the adjoint of d in
        L^2(e^{-V} dmu)."""
        if self.degree < 1:
            raise ValueError("codifferential at degree 0")
        interiors = exterior.interior_product_matrix(np.eye(self.n), self.degree)
        return self._twisted(interiors, -1, f, self.degree - 1, f"d*({self.name})")

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

    def verify_bc(self, boundary):
        """Check the declared boundary condition on sampled boundary points."""
        if self.bc == "none":
            return
        tmax, nmax = self.boundary_trace_norms(boundary)
        if self.bc == "tangential" and tmax > BC_TOL:
            raise BoundaryConditionError(
                f"{self.name}: declared t w = 0 but max |t w| = {tmax:.2e}")
        if self.bc == "normal" and nmax > BC_TOL:
            raise BoundaryConditionError(
                f"{self.name}: declared n w = 0 but max |n w| = {nmax:.2e}")

    def __repr__(self):
        return f"AnalyticForm({self.name}, n={self.n}, p={self.degree}, bc={self.bc})"
