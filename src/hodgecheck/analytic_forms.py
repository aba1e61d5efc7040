"""Analytic differential forms with exact derivative evaluators.

Components are sympy expressions in Cartesian coordinates (x1[, x2]); the
constructor lambdifies values, and first derivatives are lambdified on the
first ``component_grads`` call.  The calculus helpers (exterior derivative,
flat/weighted codifferential, interior and wedge products, weighted scalar
Laplacian) produce new forms symbolically, so every identity check can
integrate both of its sides from independent closed-form integrands.  The
wedge and interior helpers contract the components with the matrices of
``exterior``, which owns the sign conventions.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from . import exterior
from .potentials import Potential, _COORDS, _lambdify

__all__ = ["AnalyticForm", "BoundaryConditionError"]


class BoundaryConditionError(ValueError):
    pass


def _weighted_laplacian(expr, potential: Potential, n: int):
    """L^(0) u = -Delta u + grad V . grad u of a sympy scalar u in n variables."""
    syms = _COORDS[:n]
    lap = sum(sp.diff(expr, s, 2) for s in syms)
    drift = sum(sp.diff(potential.expr, s) * sp.diff(expr, s) for s in syms)
    return -lap + drift


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

    def weighted_laplacian_scalar(self, potential: Potential):
        """L^(0) w = -Delta w + grad V . grad w as a sympy expression (p = 0)."""
        if self.degree != 0:
            raise ValueError("scalar weighted Laplacian needs a 0-form")
        return _weighted_laplacian(self.comps[0], potential, self.n)

    def weighted_laplacian_one_form(self, potential: Potential) -> "AnalyticForm":
        """L^(1) on flat domains: componentwise L^(0) plus the Hessian action."""
        if self.degree != 1:
            raise ValueError("needs a 1-form")
        syms = _COORDS[:self.n]
        out = [_weighted_laplacian(comp, potential, self.n)
               + sum(sp.diff(potential.expr, syms[c], syms[k]) * self.comps[k]
                     for k in range(self.n))
               for c, comp in enumerate(self.comps)]
        return AnalyticForm(self.n, 1, out, name=f"L1({self.name})")

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
