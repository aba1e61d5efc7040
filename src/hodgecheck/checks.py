"""Identity and inequality checkers against independent high-order quadrature.

Every identity is evaluated from both sides with separately constructed
integrands (symbolic derivatives on the analytic side, assembled matrices on
the discrete side); residuals are pure quadrature/solver error, so the
checks converge under order refinement and fail loudly under term
perturbation (negative controls).

Identity inventory (f = V/2 throughout, flat ambient so Ric = 0):

* decomposition:  ||d_f w||^2 + ||d*_f w||^2
    = sum_c int |grad w_c + w_c grad f|^2 dmu
      + int <(Ric^(p) + 2 Hess^(p) f) w, w> dmu
      + oint <K_b^(p) w, w> - 2*[b=t] oint |w|^2 df/dn
* Green:          D_f(w) = D(w) + || |grad f| w ||^2 + <(L + L*) w, w>
                            + s(b) oint |w|^2 df/dn,  s(t) = -1, s(n) = +1
  (the Lie terms are evaluated from their raw local expressions, which is
  what makes the check sensitive to the wedge/interior algebra);
* H1 identity:    the decomposition at f = 0 (V = 0), where D_f = D:
                  ||w||^2_{H1-dot} = D(w) - oint <K_b w, w>;
* carre-du-champ chains and the variance identity;
* Brascamp-Lieb-type bounds with explicit hypothesis verification at all
  quadrature points (violations report not_applicable, never pass/fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exterior, runcache
from .analytic_forms import (AnalyticForm, BoundaryConditionError, evaluate_square_free,
                             exact_polynomial, weighted_laplacian_poly)
from .curvature import (POSITIVITY_TOL, bakry_emery_tensor, boundary_operator, hessian_p,
                        invert_endo_field, restricted_min_eig)
from .domains import DomainSpec, boundary_quadrature, domain_quadrature
from .meshing import generate_mesh, refine
from .operators import CHAIN_QUAD_ORDER, OperatorChain, column_dots, dual_problem
from .potentials import Potential, WeightedMeasure
from .records import DEFAULT_TOLERANCES, CheckRecord, identity_record, inequality_record
from .spectral import (SolverError, hodge_decompose, kernel_projector, lowest_eigenpairs,
                       solve_on_range)

__all__ = [
    "eval_decomposition_identity",
    "eval_green_identity",
    "eval_h1_identity",
    "check_gamma2",
    "hypothesis_check",
    "HypothesisReport",
    "check_bl_scalar",
    "check_bl_forms",
    "check_variance_identity",
    "variance_identity_record",
    "check_gap_lower_bound",
    "semiclassical_sweep",
    "duality_spectrum_check",
    "hodge_decomposition_record",
    "DECOMPOSITION_TERMS",
]

IDENTITY_TOL = DEFAULT_TOLERANCES["identity_rel"]
INEQ_REL = DEFAULT_TOLERANCES["inequality_rel"]
INEQ_ABS = DEFAULT_TOLERANCES["inequality_abs"]
BOUNDARY_SLACK = 1e-9
GAP_HYPOTHESIS_ORDER = 6  # quadrature order of the hypothesis check of both gap checks

DECOMPOSITION_TERMS = ("h1_seminorm", "curvature", "boundary_K", "boundary_weight")


def _half(potential: Potential) -> Potential:
    return potential._scaled(0.5, f"{potential.name}/2")


def _labels(domain: DomainSpec, potential: Potential) -> dict:
    """The domain, potential and h_param labels of every record."""
    if domain.kind == "polygon":
        label = f"polygon[{len(domain.vertices)} vertices]"
    else:
        label = f"{domain.kind}{list(domain.parameters)}"
    return {"domain": label, "potential": potential.name, "h_param": potential.h_param}


# ---------------------------------------------------------------------------
# Quadratic forms and the integration-by-parts identities
# ---------------------------------------------------------------------------

def _flat_witten_quadratic_form(form, fpot, domain, quad_order):
    """D_f(w) = ||d_f w||^2 + ||d*_f w||^2 in L^2(dmu); D(w) at fpot = None."""
    quad = domain_quadrature(domain, quad_order)
    total = 0.0
    if form.degree < form.n:   # d_f vanishes at top degree
        total += quad.integrate(form.d(fpot).norm_sq(quad.points))
    if form.degree >= 1:
        total += quad.integrate(form.codifferential(fpot).norm_sq(quad.points))
    return total


def _weighted_h1_seminorm(form, fpot, domain, quad_order):
    """|| e^f w ||^2_{H1-dot(e^{-2f} dmu)} = sum_c int |grad w_c + w_c grad f|^2 dmu."""
    quad = domain_quadrature(domain, quad_order)
    grads = form.component_grads(quad.points)
    vals = form.components(quad.points)
    gf = fpot.grad(quad.points)
    total = grads + vals[:, :, None] * gf[:, None, :]
    return quad.integrate(np.einsum("mcx,mcx->m", total, total))


def _decomposition_terms(form: AnalyticForm, potential: Potential, domain: DomainSpec,
                         b: str, quad_order: int) -> tuple:
    """(D_f(w), [the four terms of DECOMPOSITION_TERMS]) with f = V/2.

    At the zero potential D_f is D, the curvature and weight terms vanish
    and the identity reads ||w||^2_{H1-dot} = D(w) - oint <K_b w, w>.
    """
    fpot = _half(potential)
    lhs = _flat_witten_quadratic_form(form, fpot, domain, quad_order)
    quad = domain_quadrature(domain, quad_order)
    vals = form.components(quad.points)
    t_curv = 0.0
    if form.degree >= 1:
        field = hessian_p(potential, form.degree)
        t_curv = quad.integrate(field.quadratic(quad.points, vals))
    t_h1 = _weighted_h1_seminorm(form, fpot, domain, quad_order)
    t_bdy = 0.0
    t_weight = 0.0
    bq = boundary_quadrature(domain, quad_order)
    if bq.points.shape[0]:
        K = boundary_operator(b if b in ("tangential", "normal") else "normal",
                              form.degree, bq)
        bvals = form.components(bq.points)
        t_bdy = bq.integrate(np.einsum("mi,mij,mj->m", bvals, K, bvals))
        if b == "tangential":
            dnf = fpot.normal_derivative(bq.points, bq.normals)
            t_weight = -2.0 * bq.integrate(np.einsum("mc,mc->m", bvals, bvals) * dnf)
    return lhs, [t_h1, t_curv, t_bdy, t_weight]


def eval_decomposition_identity(form: AnalyticForm, potential: Potential,
                                domain: DomainSpec, b: str, quad_order: int = 8,
                                tolerance: float = IDENTITY_TOL,
                                perturb_term: int | None = None,
                                perturb_rel: float = 0.01) -> CheckRecord:
    """Both sides of the weighted integration-by-parts decomposition.

    The right-hand side splits into the four terms of DECOMPOSITION_TERMS;
    ``perturb_term`` multiplies one of them by (1 + perturb_rel) as a
    negative control.
    """
    form.verify_bc(boundary_quadrature(domain, quad_order))
    if form.bc != b and domain.has_boundary:
        raise BoundaryConditionError(
            f"form declares bc={form.bc!r} but realization is {b!r}")
    lhs, terms = _decomposition_terms(form, potential, domain, b, quad_order)
    if perturb_term is not None:
        terms[perturb_term] *= (1.0 + perturb_rel)
    rhs = sum(terms)
    return identity_record("decomposition_identity", lhs, rhs, tolerance,
                           **_labels(domain, potential),
                           p=form.degree, b=b, quad_order=quad_order,
                           extra={"terms": dict(zip(DECOMPOSITION_TERMS, terms)),
                                  "perturbed": perturb_term})


def _lie_term_quadratic(form, fpot, quad):
    """int <(Lie + Lie*) w, w> dmu from the raw local expressions.

    Lie w   = grad_{grad f} w + HessLift w   (slot action of Hess f)
    Lie* w  = -grad_{grad f} w - (Delta f) w + sum_i (Hess f e_i)^b ^ i_{e_i} w

    The first two directional terms cancel in the sum; they are kept and
    evaluated anyway so the check exercises the full expressions.
    """
    n, p = form.n, form.degree
    pts = quad.points
    vals = form.components(pts)
    grads = form.component_grads(pts)
    gf = fpot.grad(pts)
    H = fpot.hess(pts)
    lap = fpot.laplacian(pts)
    directional = np.einsum("mcx,mx->mc", grads, gf)
    lie = directional.copy()
    lie += np.einsum("mij,mj->mi", exterior.lift_matrix(H, p), vals)
    lie_star = -directional - lap[:, None] * vals
    if p >= 1:
        W = exterior.wedge_covector_matrix(np.eye(n), p - 1)
        I = exterior.interior_product_matrix(np.eye(n), p)
        G = W[:, None] @ I[None, :]           # G[k, i] = dx_k ^ i_{e_i}
        lie_star += np.einsum("mki,kiab,mb->ma", H, G, vals)
    total = np.einsum("mc,mc->m", lie + lie_star, vals)
    return quad.integrate(total)


def eval_green_identity(form: AnalyticForm, potential: Potential, domain: DomainSpec,
                        b: str, quad_order: int = 8,
                        tolerance: float = IDENTITY_TOL) -> CheckRecord:
    """Green identity relating D_f and D for tangential/normal forms.

    Boundary sign: -1 for the tangential realization, +1 for the normal
    one.  Integration by parts gives

        D_f(w) - D(w) - || |grad f| w ||^2
            = <(Lie + Lie*) w, w> + oint |w|^2 df/dn
              - 2 oint <i_{grad f} w, i_nu w>,

    and the last integral vanishes on normal traces (i_nu w = 0) while it
    equals oint |w|^2 df/dn on tangential ones; the p = 0 classical
    computation and the decomposition identity both confirm the signs.
    """
    bq = boundary_quadrature(domain, quad_order)
    form.verify_bc(bq)
    fpot = _half(potential)
    lhs = _flat_witten_quadratic_form(form, fpot, domain, quad_order)
    t_d = _flat_witten_quadratic_form(form, None, domain, quad_order)
    quad = domain_quadrature(domain, quad_order)
    gf = fpot.grad(quad.points)
    t_f2 = quad.integrate(np.einsum("mx,mx->m", gf, gf) * form.norm_sq(quad.points))
    t_lie = _lie_term_quadratic(form, fpot, quad)
    sign = -1.0 if b == "tangential" else 1.0
    t_bdy = 0.0
    if bq.points.shape[0]:
        dnf = fpot.normal_derivative(bq.points, bq.normals)
        t_bdy = sign * bq.integrate(form.norm_sq(bq.points) * dnf)
    rhs = t_d + t_f2 + t_lie + t_bdy
    return identity_record("green_identity", lhs, rhs, tolerance,
                           **_labels(domain, potential),
                           p=form.degree, b=b, quad_order=quad_order,
                           extra={"terms": {"unweighted_form": t_d, "gradf_sq": t_f2,
                                            "lie": t_lie, "boundary": t_bdy}})


def eval_h1_identity(form: AnalyticForm, domain: DomainSpec, b: str,
                     quad_order: int = 8, tolerance: float = IDENTITY_TOL) -> CheckRecord:
    """The decomposition at f = 0: H1-dot seminorm = D(w) - boundary K_b
    term (flat Ric = 0)."""
    form.verify_bc(boundary_quadrature(domain, quad_order))
    zero = Potential.zero(form.n)
    t_d, (t_h1, _, t_bdy, _) = _decomposition_terms(form, zero, domain, b, quad_order)
    return identity_record("h1_identity", t_h1, t_d - t_bdy, tolerance,
                           **_labels(domain, zero), p=form.degree, b=b, quad_order=quad_order,
                           extra={"terms": {"unweighted_form": t_d, "boundary_K": t_bdy}})


def _gamma2_polys(bump, V, n: int, center) -> list:
    """Square-free decompositions of w, dw, Gamma = w L0 w - L0(w^2)/2, L0 w
    and L1 dw, in that order, for the bump w and the potential V, both
    exact polynomials in coordinates centred at center; once per (bump, V,
    n, centre) in a run, as convergence_study checks one bump at several
    quadrature orders."""
    def build():
        import sympy as sp
        w = exact_polynomial(bump, n, center, "gamma2 bump w")
        v = exact_polynomial(V, n, center, "gamma2 potential V")
        grad_v = [v.diff(s) for s in w.gens]
        dw = [w.diff(s) for s in w.gens]
        L0w = weighted_laplacian_poly(w, grad_v)
        gamma = w * L0w - weighted_laplacian_poly(w ** 2, grad_v) * sp.Rational(1, 2)
        # L^(1) on flat domains: componentwise L^(0) plus the Hessian action
        L1dw = [weighted_laplacian_poly(dw[c], grad_v)
                + sum((grad_v[c].diff(s) * dw[k] for k, s in enumerate(w.gens)), w.zero)
                for c in range(n)]
        return [p.sqf_list() for p in (w, *dw, gamma, L0w, *L1dw)]

    return runcache.cached(("gamma2_polys", bump, V, n, tuple(map(float, center))), build)


def check_gamma2(form: AnalyticForm, potential: Potential, domain: DomainSpec,
                 quad_order: int = 8, tolerance: float = IDENTITY_TOL) -> CheckRecord:
    """Carre-du-champ chains for an interior-supported polynomial scalar.

    chain 1:  int Gamma(w) dnu' = int |dw|^2 dnu' = int (L0 w) w dnu'
    chain 2:  int (L0 w)^2 dnu' = int <L1 dw, dw> dnu'      (dnu' = e^{-V} dmu)

    Gamma is evaluated through the generator, Gamma = w L0 w - L0(w^2)/2,
    so the first equality is not definitional.  w and V must be polynomials
    in the coordinates with rational or float coefficients, as
    ``gamma2_bump`` and every preset or table potential are; anything else
    raises ValueError naming the expression.  Every integrand, and the
    boundary guard's w and dw, is built by exact rational polynomial
    calculus in coordinates centred at ``domain.center`` (once per run, see
    _gamma2_polys) and evaluated by ``analytic_forms.evaluate_square_free``;
    no sympy diff or lambdify runs.
    """
    if form.degree != 0:
        raise ValueError("gamma2 check needs a 0-form")
    n, center = form.n, domain.center
    decomps = _gamma2_polys(form.comps[0], potential.expr, n, center)
    # one evaluation at the boundary rule, the guard's scale rule and the rule
    bpts = boundary_quadrature(domain, quad_order).points
    spts = domain_quadrature(domain, 4).points
    quad = domain_quadrature(domain, quad_order)
    vals = evaluate_square_free(decomps, np.vstack([bpts, spts, quad.points]), center)
    nb, ni = len(bpts), len(bpts) + len(spts)
    if nb:
        wmax = float(np.abs(vals[0][:nb]).max())
        dmax = float(max(np.abs(v[:nb]).max() for v in vals[1:n + 1]))
        scale = 1.0 + float(np.abs(vals[0][nb:ni]).max())
        if wmax > 1e-10 * scale or dmax > 1e-10 * scale:
            raise BoundaryConditionError(
                f"gamma2 needs w and dw to vanish on the boundary "
                f"(|w|={wmax:.1e}, |dw|={dmax:.1e})")
    wv, *dwv, gv, lv = [v[ni:] for v in vals[:n + 3]]
    dwv = np.column_stack(dwv)
    l1v = np.column_stack([v[ni:] for v in vals[n + 3:]])
    wgt = potential.weight(quad.points)
    t1 = quad.integrate(wgt * gv)
    t2 = quad.integrate(wgt * np.einsum("mc,mc->m", dwv, dwv))
    t3 = quad.integrate(wgt * (lv * wv))
    t4 = quad.integrate(wgt * lv ** 2)
    t5 = quad.integrate(wgt * np.einsum("mc,mc->m", l1v, dwv))
    scale1 = max(abs(t1), abs(t2), abs(t3), 1e-13)
    chain1 = max(abs(t1 - t2), abs(t2 - t3)) / scale1
    scale2 = max(abs(t4), abs(t5), 1e-13)
    chain2 = abs(t4 - t5) / scale2
    return identity_record("gamma2", t4, t5, tolerance, rel_err=max(chain1, chain2),
                           **_labels(domain, potential), p=0, b="interior",
                           quad_order=quad_order,
                           extra={"gamma": t1, "dirichlet": t2, "generator": t3,
                                  "gamma2_lhs": t4, "gamma2_rhs": t5,
                                  "chain1_rel": chain1, "chain2_rel": chain2})


# ---------------------------------------------------------------------------
# Hypotheses for the inequality checks
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    status: str                    # "satisfied" | "violated"
    witness: list | None = None
    interior_min: float = math.inf
    boundary_min: float = math.inf
    note: str = ""

    def to_dict(self):
        return {"status": self.status, "witness": self.witness,
                "interior_min": self.interior_min, "boundary_min": self.boundary_min,
                "note": self.note}


def hypothesis_check(potential: Potential, domain: DomainSpec, b: str, p: int,
                     N: float | None = None, quad_order: int = 8,
                     kt_scale: float = 1.0) -> HypothesisReport:
    """Pointwise hypothesis validation for the curvature-based bounds.

    Interior: Ric_V^(p) > 0 (or Ric_{V,N} > 0 at p = 1 when N is given) at
    every interior quadrature point.  Boundary: K_n^(p) >= 0 on tangential
    traces (normal realization) or kt_scale*K_t^(p) - dV/dn >= 0 on normal
    traces (tangential realization).  Returns witnesses and margins.
    """
    if p == 0:
        return HypothesisReport("violated", None, 0.0, math.inf,
                                note="curvature term is identically zero on 0-forms")
    i_min, i_point = _interior_min(potential, domain, p, N, quad_order)
    witness = None
    note = ""
    status = "satisfied"
    if i_min < POSITIVITY_TOL:
        status = "violated"
        witness = list(i_point)
        note = "curvature tensor not positive definite"
    b_min = math.inf
    if domain.has_boundary:
        bq = boundary_quadrature(domain, quad_order)
        if b == "normal":
            r = restricted_min_eig(boundary_operator("normal", p, bq), bq.normals, p, "tangential")
        elif b == "tangential":
            K = boundary_operator("tangential", p, bq)
            dnv = potential.normal_derivative(bq.points, bq.normals)
            mats = kt_scale * K - dnv[:, None, None] * np.eye(K.shape[1])[None, :, :]
            r = restricted_min_eig(mats, bq.normals, p, "normal")
        else:
            r = np.array([math.inf])
        finite = r[np.isfinite(r)]
        if finite.size:
            b_min = float(finite.min())
            if b_min < -BOUNDARY_SLACK and status == "satisfied":
                status = "violated"
                witness = [float(c) for c in bq.points[int(np.argmin(
                    np.where(np.isfinite(r), r, math.inf)))]]
                note = f"boundary sign condition fails for realization {b}"
    return HypothesisReport(status, witness, i_min, b_min, note)


def _curvature_field(potential: Potential, p: int, N: float | None):
    """The interior curvature field of the bounds at degree p: the
    Bakry-Emery tensor Ric_{V,N} at degree 1 when N is given (it refuses an
    inadmissible N), the lift of Hess V otherwise."""
    if p == 1 and N is not None:
        return bakry_emery_tensor(potential, N)
    return hessian_p(potential, p)


def _interior_min(potential: Potential, domain: DomainSpec, p: int, N: float | None,
                  quad_order: int) -> tuple:
    """Smallest eigenvalue of the interior curvature field of hypothesis_check
    over the interior quadrature points, and a point where it is attained;
    once per run: it depends on neither the realization nor kt_scale, and on
    N at degree 1 only."""
    def compute():
        quad = domain_quadrature(domain, quad_order)
        vals = _curvature_field(potential, p, N).min_eigenvalues(quad.points)
        i = int(np.argmin(vals))
        return float(vals[i]), tuple(float(c) for c in quad.points[i])

    return runcache.cached(("interior_min", potential.key, potential.n, domain, p,
                            N if p == 1 else None, quad_order), compute)


# ---------------------------------------------------------------------------
# Brascamp-Lieb inequalities
# ---------------------------------------------------------------------------

def _n_factor(N: float) -> float:
    """(N - 1)/N, with its limit 1 at N = +-inf and +inf at N = 0."""
    if math.isinf(N):
        return 1.0
    if N == 0:
        return math.inf
    return (N - 1.0) / N


def _bl_bound(form: AnalyticForm, potential: Potential, domain: DomainSpec, b: str,
              variant: str, N: float | None, quad_order: int,
              mesh_h: float | None) -> tuple:
    """||w - pi_b w||^2 <= c int <(Ric_V^(p))^-1 Dw, Dw> dnu for a q-form w:
    D = d, p = q + 1 (coclosed) or D = d*_V, p = q - 1 (closed); the field
    is _curvature_field(potential, p, N), c = (N - 1)/N for a given N
    (scalars only), else 1.  At q = 0 pi_b w is the mean by quadrature (zero
    for tangential scalars on a domain with boundary), above it the kernel
    projector of the degree-q operator on the chain of b.

    Returns (hypothesis report, deficit, kernel dim, ||pi_b w||^2, ||w||^2,
    rhs) in L^2(dnu); rhs is NaN unless the hypotheses hold.
    """
    q = form.degree
    p = q + 1 if variant == "coclosed" else q - 1
    field = _curvature_field(potential, p, N)
    hyp = hypothesis_check(potential, domain, b, p=p, N=N, quad_order=quad_order)
    measure = WeightedMeasure(potential, domain, quad_order)
    pts = measure.quadrature.points
    sigma = measure.expect(form.norm_sq(pts))
    if q == 0 and b == "tangential" and domain.has_boundary:
        lhs, kdim, proj_sq = sigma, 0, 0.0
    elif q == 0:   # the kernel is the constants
        vals = form.components(pts)[:, 0]
        mean = measure.expect(vals)
        lhs, kdim, proj_sq = measure.expect((vals - mean) ** 2), 1, mean ** 2
    else:
        chain = OperatorChain(_mesh(domain, mesh_h), potential, b)
        kp = kernel_projector(chain.operator(q))
        proj = kp.apply(chain.interpolate(form))
        proj_sq = float(proj @ (chain.mass(q) @ proj)) / measure.Z
        lhs, kdim = sigma - proj_sq, kp.dim
    rhs = math.nan
    if hyp.status == "satisfied":
        factor = 1.0 if N is None else _n_factor(N)
        if factor == math.inf:
            rhs = math.inf
        else:
            D = form.d() if variant == "coclosed" else form.codifferential(potential)
            dvals = D.components(pts)
            inv = invert_endo_field(field).evaluate(pts)
            rhs = factor * measure.expect(
                np.einsum("mi,mi->m", np.einsum("mij,mj->mi", inv, dvals), dvals))
    return hyp, lhs, kdim, proj_sq, sigma, rhs


def check_bl_scalar(form: AnalyticForm, potential: Potential, domain: DomainSpec,
                    b: str, N: float = math.inf, quad_order: int = 8,
                    tol_rel: float = INEQ_REL, tol_abs: float = INEQ_ABS) -> CheckRecord:
    """Variance / Dirichlet-norm bound for scalars against the inverse
    curvature tensor, with the (N-1)/N refinement for admissible N: the
    q = 0 coclosed case of _bl_bound."""
    if form.degree != 0:
        raise ValueError("scalar check needs a 0-form")
    bq = boundary_quadrature(domain, quad_order)
    if b == "tangential" and bq.points.shape[0]:
        wmax = float(np.abs(form.components(bq.points)).max())
        if wmax > 1e-8 * (1.0 + abs(float(form.components(
                domain_quadrature(domain, 4).points).max()))):
            raise BoundaryConditionError("tangential scalar case needs w = 0 on the boundary")
    hyp, lhs, *_, rhs = _bl_bound(form, potential, domain, b, "coclosed", N, quad_order,
                                  None)   # q = 0 reads no mesh_h
    return inequality_record("bl_scalar", lhs, rhs, hyp.status, tol_rel, tol_abs,
                             witness=hyp.witness, **_labels(domain, potential),
                             p=1, b=b, N=N, quad_order=quad_order,
                             extra={"hypothesis": hyp.to_dict(),
                                    "factor": _n_factor(N)})


def check_bl_forms(form: AnalyticForm, potential: Potential, domain: DomainSpec,
                   b: str, variant: str, quad_order: int = 8, mesh_h: float = 0.15,
                   tol_rel: float = INEQ_REL, tol_abs: float = INEQ_ABS) -> CheckRecord:
    """Form-degree bound ||w - pi_b w||^2 <= int <(Ric_V^(p))^-1 Dw, Dw> dnu.

    variant "coclosed" (d*_V w = 0, D = d, p = q+1) or "closed"
    (d w = 0, D = d*_V, p = q-1).  The projector pi_b comes from the
    discrete kernel projector of the degree-q operator of realization b,
    applied to the Whitney interpolant (the mean at q = 0); the projection
    norm and kernel dimension are reported in extra.
    """
    q = form.degree
    n = form.n
    if variant not in ("coclosed", "closed"):
        raise ValueError(f"variant must be coclosed/closed, got {variant!r}")
    if variant == "coclosed" and q >= n:
        raise ValueError("coclosed variant needs q < n (the bound uses d w)")
    if variant == "closed" and q < 1:
        raise ValueError("closed variant needs q >= 1 (the bound uses d*_V w)")
    p = q + 1 if variant == "coclosed" else q - 1
    quad = domain_quadrature(domain, quad_order)
    scale = 1.0 + float(np.sqrt(form.norm_sq(quad.points).max()))
    # constraint verification by quadrature
    if variant == "coclosed" and q >= 1:
        resid = form.codifferential(potential)
        worst = float(np.sqrt(resid.norm_sq(quad.points).max()))
        if worst > 1e-8 * scale:
            raise ValueError(f"constraint d*_V w = 0 fails: {worst:.2e}")
    if variant == "closed" and q < n:
        worst = float(np.sqrt(form.d().norm_sq(quad.points).max()))
        if worst > 1e-8 * scale:
            raise ValueError(f"constraint d w = 0 fails: {worst:.2e}")
    form.verify_bc(boundary_quadrature(domain, quad_order))

    extra = {"variant": variant, "q": q, "bound_degree": p}
    if p == 0:
        hyp = HypothesisReport("violated", None, 0.0, math.inf,
                               note="bound degree p = 0: curvature term vanishes")
        extra["hypothesis"] = hyp.to_dict()
        return inequality_record("bl_forms", math.nan, math.nan, hyp.status,
                                 tol_rel, tol_abs, **_labels(domain, potential),
                                 p=p, b=b, quad_order=quad_order, extra=extra)
    hyp, lhs, kdim, proj_sq, sigma, rhs = _bl_bound(form, potential, domain, b, variant,
                                                    None, quad_order, mesh_h)
    extra.update({"hypothesis": hyp.to_dict(), "kernel_dim": kdim,
                  "projection_norm_sq": proj_sq, "l2_norm_sq": sigma})
    return inequality_record("bl_forms", lhs, rhs, hyp.status, tol_rel, tol_abs,
                             witness=hyp.witness, **_labels(domain, potential),
                             p=p, b=b, quad_order=quad_order, mesh_h=mesh_h, extra=extra)


# ---------------------------------------------------------------------------
# Variance identity and spectral-side checks
# ---------------------------------------------------------------------------

def check_variance_identity(eta: np.ndarray, chain: OperatorChain):
    """Two routes of the exact discrete variance identity.

    lhs = ||eta - pi eta||^2_M,  rhs = <(L^(1)|_{Ran d})^{-1} d eta, d eta>_M,
    where pi is the kernel projector of L^(0) (the constants of each
    component; none for tangential on a domain with boundary) and the range
    solve finds the kernel of L^(1) itself.  eta is a 0-cochain; a block
    of shape (dim, m) gives m samples in one range solve and (lhs, rhs) as
    arrays, a vector gives floats.
    """
    centered = kernel_projector(chain.operator(0)).complement(eta)
    lhs = column_dots(centered, chain.mass(0) @ centered)
    deta = chain.apply_d(0, eta)
    w = solve_on_range(chain.operator(1), deta)
    rhs = column_dots(w, chain.mass(1) @ deta)
    return lhs, rhs


def variance_identity_record(domain: DomainSpec, potential: Potential, b: str,
                             mesh_h: float, n_samples: int = 50, seed: int = 1234,
                             tol: float = DEFAULT_TOLERANCES["variance_rel"]) -> CheckRecord:
    """The variance identity on n_samples standard normal 0-cochains, drawn
    as one (n_samples, dim) block from the seeded generator and solved in
    one call; the record reports the sample with the largest relative
    error."""
    cplx = _mesh(domain, mesh_h)
    chain = OperatorChain(cplx, potential, b)
    draws = np.random.default_rng(seed).standard_normal((n_samples, chain.dim(0)))
    lhs, rhs = check_variance_identity(draws.T, chain)
    worst = 0.0
    pair = (0.0, 0.0)
    for x, y in zip(lhs.tolist(), rhs.tolist()):
        rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
        if rel > worst:
            worst, pair = rel, (x, y)
    return identity_record("variance_identity", *pair, tol, rel_err=worst,
                           **_labels(domain, potential), p=0, b=b,
                           mesh_h=cplx.mesh_size_h, quad_order=CHAIN_QUAD_ORDER,
                           extra={"samples": n_samples, "worst_rel": worst})


def _mesh(domain: DomainSpec, mesh_h: float, level: int = 0, coarser=None):
    """Level `level` of the mesh ladder of (domain, mesh_h), once per run:
    generate_mesh at level 0, refine of `coarser` (level - 1) above it."""
    return runcache.cached(("mesh", domain, mesh_h, level),
                           lambda: refine(coarser) if level else generate_mesh(domain, mesh_h))


def _ladder(domain: DomainSpec, mesh_h: float, levels: int, problems, k: int | None,
            seed: int) -> list:
    """The lowest eigenpairs of each (potential, b, degree) problem at every
    level of one mesh ladder, refined between levels only and solved one
    chain at a time: one list of SpectralResults (each with its level's
    mesh_h) per problem, coarsest level first.  A rung holds min(k, dim)
    pairs, or for k None the kernel and lambda_1: chain.betti(degree) + 1
    pairs, capped at dim.

    Meshes are read from the run cache, and lowest_eigenpairs keeps the
    run's one spectrum of each problem there (keyed by the chain's content,
    never by k), so a request for no more pairs than it holds is served as
    read-only views of its first pairs.  A dense rung slices one full eigh,
    so the pairs served are those a fresh solve gives, bit for bit; on a
    sparse rung they differ from a fresh solve's at roundoff, so there
    check order and cache scope can move them.
    """
    spectra = [[] for _ in problems]
    cplx = None
    for level in range(levels):
        cplx = _mesh(domain, mesh_h, level, cplx)
        for rungs, (potential, b, degree) in zip(spectra, problems):
            # an operator assembles on first use, and its chain is freed
            # before the next one is built
            op = OperatorChain(cplx, potential, b).operator(degree)
            rungs.append(lowest_eigenpairs(op, _pairs(op.chain.betti(degree), op.dim, k),
                                           seed=seed))
    return spectra


def _pairs(kernel_dim: int, dim: int, k: int | None) -> int:
    """The pairs a request for k asks of a dim-dimensional problem: k, or
    for None the kernel and lambda_1, capped at dim."""
    return min(kernel_dim + 1 if k is None else k, dim)


def _paths(rungs) -> dict:
    """The eigensolver path and dimension of each rung, coarsest first."""
    return {"solvers": [res.solver for res in rungs], "dims": [res.dim for res in rungs]}


def _first_nonkernel_eigenvalue(res) -> float:
    """lambda_1; one at or below 0 is roundoff, not a gap: SolverError."""
    above = res.eigenvalues[res.kernel_dim:]
    if len(above) == 0:
        raise RuntimeError("no nonkernel eigenvalue found; raise k")
    if above[0] <= 0.0:
        raise SolverError(f"first nonkernel eigenvalue {above[0]:.3e} <= 0: roundoff, no gap")
    return float(above[0])


def _gap_record(check_id: str, bound: float, gaps, hs, hyp: HypothesisReport,
                extra: dict, tol_rel: float = INEQ_REL, **kw) -> CheckRecord:
    """The one gap verdict: the hypotheses hold and gaps[i] >= bound - C*hs[i]
    at every level, with C <= C_cap = max(10, 10|bound|).  lhs is the bound,
    rhs the finest level's gap; extra gains the fitted C_fit and C_cap.  The
    record's tolerance is tol_rel, the run's inequality tolerance; the
    verdict itself takes none."""
    cap = max(10.0, 10.0 * abs(bound))
    c_fit = max(max(0.0, (bound - g) / h) for g, h in zip(gaps, hs))
    gap = gaps[-1]
    return CheckRecord(check_id, kind="inequality", lhs=bound, rhs=gap,
                       abs_err=bound - gap,
                       rel_err=max(0.0, bound - gap) / max(abs(bound), 1e-300),
                       tolerance=tol_rel, passed=hyp.status == "satisfied" and c_fit <= cap,
                       hypothesis_status=hyp.status, witness=hyp.witness, mesh_h=hs[-1],
                       extra={**extra, "C_fit": c_fit, "C_cap": cap,
                              "hypothesis": hyp.to_dict()}, **kw)


def check_gap_lower_bound(potential: Potential, domain: DomainSpec, b: str, p: int,
                          use_N: float | None = None, mesh_h: float = 0.3,
                          levels: int = 3, seed: int = 1234,
                          tol_rel: float = INEQ_REL) -> CheckRecord:
    """First nonkernel eigenvalue vs the pointwise curvature lower bound.

    lambda_1(h) >= bound - C*h across a refinement ladder with C required
    bounded by max(10, 10|bound|); the bound is hypothesis_check's interior
    minimum at degree max(p, 1).  For p = 0 it lives at degree 1 restricted
    to Ran d; a given N scales it by N/(N-1) and only controls that exact
    branch, so the measured eigenvalue is then the degree-0 gap (= the
    bottom of L^(1) restricted to Ran d) for p <= 1.
    """
    bound_degree = max(p, 1)
    n_scaled = use_N is not None and bound_degree == 1
    hyp = hypothesis_check(potential, domain, b, bound_degree,
                           N=use_N if n_scaled else None,
                           quad_order=GAP_HYPOTHESIS_ORDER)
    bound = hyp.interior_min
    if n_scaled:
        nf = _n_factor(use_N)
        bound *= math.inf if nf == 0 else 1.0 / nf
    eig_degree = 0 if n_scaled else p
    [rungs] = _ladder(domain, mesh_h, levels, [(potential, b, eig_degree)], 4, seed)
    lam = [_first_nonkernel_eigenvalue(res) for res in rungs]
    hs = [res.mesh_h for res in rungs]
    return _gap_record("gap_lower_bound", bound, lam, hs, hyp,
                       {"bound": bound, "eigenvalues": lam, "mesh_sizes": hs, **_paths(rungs)},
                       tol_rel=tol_rel, **_labels(domain, potential), p=p, b=b, N=use_N,
                       quad_order=CHAIN_QUAD_ORDER)


def semiclassical_sweep(potential: Potential, domain: DomainSpec, b: str, p: int,
                        h_list, mesh_h: float = 0.2, seed: int = 1234,
                        tol_rel: float = INEQ_REL) -> list[CheckRecord]:
    """Gap records for the rescaled potentials V/h (report-style).

    Hypotheses per the semiclassical scaling: the normal-side condition is
    h-independent; the tangential side needs h*K_t^(p') - dV/dn >= 0.
    On flat domains h * lambda_1(V/h) is bounded below by the Hess V
    minimum (the interior minimum of hypothesis_check) up to the
    mesh-resolution term.  Every h is solved on the one mesh of mesh_h, and
    its record, graded by _gap_record at that one level, carries h as its
    h_param.  A record reads lambda_1 only, so each h asks _ladder for the
    kernel and lambda_1 (k None); a larger spectrum of the same problem
    already in the run cache (eigen_spectrum's at h = 1) serves it.
    """
    bound_degree = max(p, 1)
    spectra = _ladder(domain, mesh_h, 1, [(potential.rescaled(h), b, p) for h in h_list],
                      None, seed)
    records = []
    for h, [res] in zip(h_list, spectra):
        hyp = hypothesis_check(potential, domain, b, bound_degree,
                               quad_order=GAP_HYPOTHESIS_ORDER, kt_scale=h)
        lam1 = _first_nonkernel_eigenvalue(res)
        records.append(_gap_record(
            "semiclassical_sweep", hyp.interior_min, [h * lam1], [res.mesh_h], hyp,
            {"h": h, "lambda1": lam1, "h_lambda1": h * lam1, **_paths([res])},
            tol_rel=tol_rel, **{**_labels(domain, potential), "h_param": h}, p=p, b=b,
            quad_order=CHAIN_QUAD_ORDER))
    return records


def _richardson(values: np.ndarray) -> float:
    """Extrapolate a sequence on meshes h, h/2, h/4, ... assuming even powers."""
    seq = np.asarray(values, dtype=float)
    power = 2.0
    while len(seq) > 1:
        factor = 2.0 ** power
        seq = (factor * seq[1:] - seq[:-1]) / (factor - 1.0)
        power += 2.0
    return float(seq[0])


def duality_spectrum_check(domain: DomainSpec, potential: Potential, k: int = 3,
                           mesh_h: float = 0.4, levels: int = 3, seed: int = 1234,
                           tol: float = DEFAULT_TOLERANCES["duality_rel"]) -> CheckRecord:
    """Star-duality validation of the normal realization at p = 0.

    Direct: the degree-0 operator with V on the normal chain.  Dual: the
    star dual of dual_problem, (n, tangential, -V).  Both sides are solved
    on one shared refinement ladder; both discretizations converge to the
    same spectrum (the content of the duality); eigenvalues are
    Richardson-extrapolated over the ladder on each side and compared index
    by index.
    """
    dual_p, dual_b, dual_pot = dual_problem(0, "normal", potential, domain.ambient_dim)
    sides = _ladder(domain, mesh_h, levels,
                    [(potential, "normal", 0), (dual_pot, dual_b, dual_p)], k + 1, seed)
    for route, rungs in zip(("direct", "dual"), sides):
        for res in rungs:
            if res.kernel_dim != 1:
                raise RuntimeError(f"{route} route kernel dim {res.kernel_dim} != 1")
    a_levels, b_levels = ([res.eigenvalues[1:k + 1] for res in rungs] for rungs in sides)
    a_ex = [_richardson([lev[i] for lev in a_levels]) for i in range(k)]
    b_ex = [_richardson([lev[i] for lev in b_levels]) for i in range(k)]
    rel = max(abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(a_ex, b_ex))
    direct, dual = (_paths(rungs) for rungs in sides)
    return identity_record("duality_spectrum", a_ex[0], b_ex[0], tol, rel_err=rel,
                           **_labels(domain, potential), p=0, b="normal",
                           mesh_h=mesh_h, quad_order=CHAIN_QUAD_ORDER,
                           extra={"direct_extrapolated": a_ex, "dual_extrapolated": b_ex,
                                  "direct_levels": [list(map(float, v)) for v in a_levels],
                                  "dual_levels": [list(map(float, v)) for v in b_levels],
                                  "solvers": {"direct": direct["solvers"],
                                              "dual": dual["solvers"]},
                                  "dims": {"direct": direct["dims"], "dual": dual["dims"]}})


def hodge_decomposition_record(domain: DomainSpec, potential: Potential, b: str,
                               p: int, mesh_h: float, n_samples: int = 5, seed: int = 1234,
                               tol: float = DEFAULT_TOLERANCES["hodge_rel"]) -> CheckRecord:
    cplx = _mesh(domain, mesh_h)
    chain = OperatorChain(cplx, potential, b)
    X = np.random.default_rng(seed).standard_normal((n_samples, chain.dim(p))).T
    split = hodge_decompose(X, chain.operator(p))
    worst_rec = float(split.recomposition_residual.max(initial=0.0))
    worst_orth = float(split.orthogonality_residuals.max(initial=0.0))
    return identity_record("hodge_decomposition", worst_rec, 0.0, tol,
                           rel_err=max(worst_rec, worst_orth), **_labels(domain, potential),
                           p=p, b=b, mesh_h=cplx.mesh_size_h, quad_order=CHAIN_QUAD_ORDER,
                           extra={"kernel_dim": chain.betti(p), "recomposition": worst_rec,
                                  "orthogonality": worst_orth, "samples": n_samples})
