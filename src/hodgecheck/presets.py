"""Named domains/potentials/checks and the manufactured analytic test forms.

The batch driver needs concrete analytic inputs for the identity checks;
these constructors produce, per (domain, degree, realization), a smooth
form satisfying the realization's boundary condition by construction
(radial forms are normal-parallel on centered circles, rotational forms
are tangent, coordinate bubbles vanish on rectangle sides).
"""

from __future__ import annotations

import math

from .analytic_forms import AnalyticForm
from .domains import DomainSpec
from .potentials import PRESET_POTENTIALS, _coords

__all__ = ["DOMAIN_PRESETS", "CHECK_IDS", "SYMBOLIC_CHECKS", "test_form",
            "gamma2_bump", "bl_form_cases", "PRESET_POTENTIALS"]

DOMAIN_PRESETS = {
    "interval": "interval(a, b) in R^1",
    "rectangle": "rectangle(ax, bx, ay, by) in R^2",
    "disk": "disk(radius[, cx, cy])",
    "annulus": "annulus(r_inner, r_outer[, cx, cy]) - inner boundary is concave",
    "polygon": "polygon(vertices...) counterclockwise simple",
    "circle": "circle(radius) - no boundary (periodic arclength coordinate)",
    "flat_torus": "flat_torus(L1[, L2]) - no boundary",
}

CHECK_IDS = {
    "eigen_spectrum": "lowest eigenpairs (closed-form oracle on the interval with V = 0)",
    "decomposition_identity": "weighted integration-by-parts decomposition, both sides by quadrature",
    "green_identity": "Green identities relating the weighted and unweighted forms",
    "h1_identity": "f = 0 identity: H1-dot seminorm vs form minus boundary term",
    "gamma2": "carre-du-champ chains for interior-supported scalars",
    "bl_scalar": "scalar variance/Dirichlet bound vs inverse curvature tensor (N-refined)",
    "bl_forms": "form-degree bound with discrete kernel projector",
    "variance_identity": "exact discrete variance identity, two independent routes",
    "gap_lower_bound": "first nonkernel eigenvalue on a refinement ladder vs the "
                       "hypothesis_check curvature minimum (N at p = 0 only)",
    "semiclassical_sweep": "rescaled potentials V/h: hypotheses and scaled gaps",
    "hypothesis_check": "pointwise hypothesis report (sign conditions, positivity), "
                        "once per bound degree max(p, 1), per N at degree 1 only",
    "intertwining": "supersymmetry residual of the assembled operators",
    "hodge_decomposition": "kernel/exact/coexact split of random cochains",
    "duality_spectrum": "direct normal assembly at p = 0 vs its star dual (n, tangential, -V)",
}

# The checks that differentiate analytic test forms, the only ones that need
# sympy; load_config imports it and builds V's symbolic form for them.
SYMBOLIC_CHECKS = frozenset({"decomposition_identity", "green_identity", "h1_identity",
                             "gamma2", "bl_scalar", "bl_forms"})


def _bubble(spec: DomainSpec):
    """A smooth scalar vanishing on the boundary of the domain."""
    import sympy as sp
    x1, x2 = _coords()
    if spec.kind == "interval":
        a, b = spec.parameters
        return (x1 - a) * (b - x1)
    if spec.kind == "rectangle":
        ax, bx, ay, by = spec.parameters
        return (x1 - ax) * (bx - x1) * (x2 - ay) * (by - x2)
    if spec.kind == "disk":
        R, cx, cy = spec.parameters
        return R**2 - (x1 - cx) ** 2 - (x2 - cy) ** 2
    if spec.kind == "annulus":
        r0, r1, cx, cy = spec.parameters
        r2 = (x1 - cx) ** 2 + (x2 - cy) ** 2
        return (r2 - r0**2) * (r1**2 - r2)
    if spec.kind == "polygon":
        # product of the edge-line functions vanishes on the whole boundary;
        # built from exact rationals (each float's own value), since the
        # second derivatives of a float-coefficient product have an
        # expression tree, and so last bits, that follow the hash seed
        expr = sp.Integer(1)
        verts = [tuple(map(sp.Rational, v)) for v in spec.vertices]
        for i in range(len(verts)):
            (ax, ay), (bx, by) = verts[i], verts[(i + 1) % len(verts)]
            expr *= (bx - ax) * (x2 - ay) - (by - ay) * (x1 - ax)
        return expr
    raise ValueError(f"no bubble for {spec.kind}")


def test_form(spec: DomainSpec, p: int, b: str) -> AnalyticForm:
    """A smooth degree-p form satisfying the realization b on the domain."""
    import sympy as sp
    x1, x2 = _coords()
    n = spec.ambient_dim
    if not spec.has_boundary:
        if n == 1:
            L = spec.parameters[0] * (2 * math.pi if spec.kind == "circle" else 1.0)
            w = sp.sin(2 * sp.pi * x1 / L) + sp.cos(4 * sp.pi * x1 / L) / 3
            comps = [w] if p == 0 else [w + sp.Rational(1, 2)]
            return AnalyticForm(n, p, comps, bc="none", name=f"periodic-p{p}")
        L1, L2 = spec.parameters
        w = sp.sin(2 * sp.pi * x1 / L1) * sp.cos(2 * sp.pi * x2 / L2)
        if p == 0:
            return AnalyticForm(2, 0, [w], bc="none", name="periodic-p0")
        if p == 1:
            return AnalyticForm(2, 1, [w, sp.cos(2 * sp.pi * x1 / L1)], bc="none",
                                name="periodic-p1")
        return AnalyticForm(2, 2, [w + 1], bc="none", name="periodic-p2")
    if n == 1:
        a, c = spec.parameters
        if p == 0:
            if b == "tangential":
                return AnalyticForm(1, 0, [_bubble(spec) * (1 + x1 / 3)],
                                    bc="tangential", name="bubble-p0")
            return AnalyticForm(1, 0, [x1 + sp.exp(x1 / 2) / 4], bc="normal",
                                name="free-p0")
        if b == "normal":
            return AnalyticForm(1, 1, [_bubble(spec) * (1 + x1 / 4)], bc="normal",
                                name="vanishing-p1")
        return AnalyticForm(1, 1, [1 + x1 * (c - x1) / 2], bc="tangential",
                            name="free-p1")  # t is vacuous at top degree
    # n == 2
    smooth = 1 + x1 * x2 / 4
    if p == 0:
        if b == "tangential":
            return AnalyticForm(2, 0, [_bubble(spec) * (x1 + sp.Rational(1, 2))],
                                bc="tangential", name="bubble-p0")
        return AnalyticForm(2, 0, [x1 + x2**2 / 3], bc="normal", name="free-p0")
    if p == 1:
        if spec.kind in ("disk", "annulus"):
            cx = spec.parameters[-2], spec.parameters[-1]
            rx, ry = x1 - cx[0], x2 - cx[1]
            if b == "tangential":
                return AnalyticForm(2, 1, [smooth * rx, smooth * ry],
                                    bc="tangential", name="radial-p1")
            return AnalyticForm(2, 1, [-smooth * ry, smooth * rx],
                                bc="normal", name="rotational-p1")
        if spec.kind == "rectangle":
            ax, bx, ay, by = spec.parameters
            u, v = 1 + x2 / 5, 1 - x1 / 6
            if b == "tangential":
                return AnalyticForm(2, 1, [(x2 - ay) * (by - x2) * u,
                                           (x1 - ax) * (bx - x1) * v],
                                    bc="tangential", name="rect-t-p1")
            return AnalyticForm(2, 1, [(x1 - ax) * (bx - x1) * u,
                                       (x2 - ay) * (by - x2) * v],
                                bc="normal", name="rect-n-p1")
        raise ValueError(f"no p=1 test form for {spec.kind}")
    # p == 2: t is vacuous; n needs the density to vanish on the boundary
    if b == "normal":
        return AnalyticForm(2, 2, [_bubble(spec) * sp.exp(x1 / 2)], bc="normal",
                            name="bubble-p2")
    return AnalyticForm(2, 2, [sp.exp(x1 / 2) * (1 + x2 / 3)], bc="tangential",
                        name="free-p2")


def gamma2_bump(spec: DomainSpec, flavor: int = 0) -> AnalyticForm:
    """Interior-supported scalar: polynomial bump (w and dw vanish on the boundary)."""
    import sympy as sp
    x1, x2 = _coords()
    base = _bubble(spec)
    mods = [sp.Integer(1), 1 + x1 / 2, 1 - (x1 if spec.ambient_dim == 1 else x2) / 3]
    return AnalyticForm(spec.ambient_dim, 0, [base**4 * mods[flavor % len(mods)]],
                        name=f"bump-{flavor}")


def bl_form_cases(spec: DomainSpec, potential_expr, b: str):
    """Manufactured (form, variant) pairs for the form-degree bound on 2D domains.

    Coclosed forms are built as weighted-coexact fields (so d*_V w = 0 by
    construction); closed top forms are arbitrary densities with the
    realization's trace condition.
    """
    import sympy as sp
    x1, x2 = _coords()
    if spec.ambient_dim != 2 or spec.kind not in ("disk", "annulus", "rectangle"):
        return []
    cases = []
    if b == "normal":
        if spec.kind == "disk":
            R, cx, cy = spec.parameters
            gt = (x1 - cx) ** 2 + (x2 - cy) ** 2  # constant on boundary circles
            ev = sp.exp(potential_expr)
            cases.append((AnalyticForm(2, 1, [ev * sp.diff(gt, x2), -ev * sp.diff(gt, x1)],
                                       bc="normal", name="coexact-p1"), "coclosed"))
        cases.append((AnalyticForm(2, 2, [_bubble(spec)], bc="normal",
                                   name="top-n"), "closed"))
    else:
        cases.append((AnalyticForm(2, 2, [x1], bc="tangential", name="top-t"), "closed"))
    return cases
