"""Verification checkers: hand-derived oracles, controls, hypothesis logic."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from hodgecheck import analytic_forms, runcache
from hodgecheck import report as report_mod
from hodgecheck import checks as checks_mod
from hodgecheck.analytic_forms import AnalyticForm, BoundaryConditionError
from hodgecheck.checks import (check_bl_forms, check_bl_scalar, check_gamma2,
                               check_gap_lower_bound, check_variance_identity,
                               duality_spectrum_check, eval_decomposition_identity,
                               eval_green_identity, eval_h1_identity,
                               hodge_decomposition_record, hypothesis_check,
                               semiclassical_sweep,
                               variance_identity_record)
from hodgecheck.config import load_config
from hodgecheck.domains import DomainSpec
from hodgecheck.meshing import generate_mesh
from hodgecheck.operators import CHAIN_QUAD_ORDER, OperatorChain
from hodgecheck.potentials import Potential, _COORDS
from hodgecheck.presets import gamma2_bump
import hodgecheck.spectral as spectral
from oracles import gamma2_oracle

ROOT = Path(__file__).resolve().parents[1]
x1, x2 = _COORDS
DISK = DomainSpec.disk(1.0)
VX2 = Potential.quadratic(2.0, 2)       # V = |x|^2

RADIAL = AnalyticForm(2, 1, [x1, x2], bc="tangential", name="radial")
ROT = AnalyticForm(2, 1, [-x2, x1], bc="normal", name="rot")


def test_decomposition_identity_hand_values():
    """Unit-disk cases evaluated by hand: 7*pi/3 (tangential radial form,
    V = |x|^2) and 19*pi/3 (normal rotational form)."""
    rec = eval_decomposition_identity(RADIAL, VX2, DISK, "tangential", 8)
    assert rec.passed and abs(rec.lhs - 7 * np.pi / 3) < 1e-12
    terms = rec.extra["terms"]
    assert abs(terms["h1_seminorm"] - 10 * np.pi / 3) < 1e-12
    assert abs(terms["curvature"] - np.pi) < 1e-12
    assert abs(terms["boundary_K"] - 2 * np.pi) < 1e-12
    assert abs(terms["boundary_weight"] + 4 * np.pi) < 1e-12
    rec = eval_decomposition_identity(ROT, VX2, DISK, "normal", 8)
    assert rec.passed and abs(rec.lhs - 19 * np.pi / 3) < 1e-12


def test_decomposition_zero_form_and_zero_input():
    zero = AnalyticForm(2, 1, [sp.Integer(0), sp.Integer(0)], bc="tangential")
    rec = eval_decomposition_identity(zero, VX2, DISK, "tangential", 6)
    assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed


def test_decomposition_negative_control():
    """Perturbing any single rhs term by 1% flips pass to fail at 1e-6."""
    for i in range(4):
        rec = eval_decomposition_identity(RADIAL, VX2, DISK, "tangential", 8,
                                          tolerance=1e-6, perturb_term=i)
        assert not rec.passed, f"term {i} not detected"
        assert rec.extra["terms"][list(rec.extra["terms"])[i]] != 0.0


def test_decomposition_bc_mismatch_raises():
    with pytest.raises(BoundaryConditionError):
        eval_decomposition_identity(RADIAL, VX2, DISK, "normal", 6)


def test_identity_convergence_in_quad_order():
    """rel_err decreases (noise factor 2) along quad_order 4 -> 8 -> 12."""
    g = sp.exp(-(x1**2 + x2**2) / 3) * (1 + x1 * x2 / 4)
    form = AnalyticForm(2, 1, [g * x1, g * x2], bc="tangential", name="smooth")
    pot = Potential.quadratic(1.0, 2)
    errs = [max(eval_decomposition_identity(form, pot, DISK, "tangential", qo).rel_err,
                1e-15) for qo in (4, 8, 12)]
    assert errs[1] <= 2 * errs[0] and errs[2] <= 2 * errs[1]
    assert errs[2] <= 1e-8


def test_green_identity_cases():
    for form, b in [(RADIAL, "tangential"), (ROT, "normal")]:
        rec = eval_green_identity(form, VX2, DISK, b, 8)
        assert rec.passed and rec.rel_err <= 1e-10
    # V = 0 collapses both identities to D = D
    rec = eval_green_identity(RADIAL, Potential.zero(2), DISK, "tangential", 6)
    assert rec.passed
    for key in ("gradf_sq", "lie", "boundary"):
        assert abs(rec.extra["terms"][key]) < 1e-13
    # 1D tangential scalar with V = x (spec example family)
    s = AnalyticForm(1, 0, [sp.sin(sp.pi * x1)], bc="tangential")
    rec = eval_green_identity(s, Potential.linear(1.0, 1), DomainSpec.interval(0, 1), "tangential", 8)
    assert rec.passed and rec.rel_err <= 1e-9


def test_lie_term_matches_hessian_lift_form():
    """<(Lie+Lie*)w,w> integrated equals int <(2 Hess f - lap f) w, w>."""
    from hodgecheck.checks import _half, _lie_term_quadratic
    from hodgecheck.curvature import hessian_p
    from hodgecheck.domains import domain_quadrature

    pot = Potential.polynomial([(2, 0, 0.4), (1, 1, 0.3), (0, 3, 0.1)], 2)
    fpot = _half(pot)
    form = AnalyticForm(2, 1, [sp.sin(x1), x2 * x1], name="generic")
    quad = domain_quadrature(DISK, 8)
    got = _lie_term_quadratic(form, fpot, quad)
    vals = form.components(quad.points)
    hess_term = hessian_p(fpot, 1).quadratic(quad.points, vals)
    lap = fpot.laplacian(quad.points)
    expect = quad.integrate(2 * hess_term - lap * np.einsum("mc,mc->m", vals, vals))
    assert abs(got - expect) <= 1e-8 * max(abs(expect), 1.0)


def test_h1_identity_cases():
    for form, b in [(RADIAL, "tangential"), (ROT, "normal")]:
        rec = eval_h1_identity(form, DISK, b, 8)
        assert rec.passed and rec.rel_err <= 1e-12
        assert rec.extra["terms"]["boundary_K"] != 0.0


def test_gamma2_cases_and_support_guard():
    bump = AnalyticForm(1, 0, [(x1 * (1 - x1)) ** 4])
    interval = DomainSpec.interval(0, 1)
    assert check_gamma2(bump, Potential.zero(1), interval, 8).passed
    assert check_gamma2(bump, Potential.quadratic(1.5, 1), interval, 8).passed
    zero = AnalyticForm(1, 0, [sp.Integer(0)])
    rec = check_gamma2(zero, Potential.zero(1), interval, 6)
    assert rec.passed and rec.lhs == 0.0
    bad = AnalyticForm(1, 0, [x1])
    with pytest.raises(BoundaryConditionError):
        check_gamma2(bad, Potential.zero(1), interval, 6)


L_SHAPE = DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
GAMMA2_CASES = {   # (domain, potential, bump flavour)
    "disk-0": (DISK, Potential.quadratic(1.0, 2), 0),
    "disk-1": (DISK, Potential.quadratic(1.0, 2), 1),
    "annulus": (DomainSpec.annulus(0.5, 1.0), Potential.quartic_double_well(0.8, 2), 1),
    "interval": (DomainSpec.interval(0.0, 1.0), Potential.quadratic(1.5, 1), 1),
    "L-shape": (L_SHAPE, Potential.quadratic(1.0, 2), 0),
}


@pytest.mark.parametrize("quad_order", [6, 24])
@pytest.mark.parametrize("case", sorted(GAMMA2_CASES))
def test_gamma2_matches_sympy_tree_oracle(case, quad_order):
    """The polynomial gamma2 integrals against the sympy expression trees of
    tests/oracles.gamma2_oracle on the same rule, within 1e-12 relative.
    On the L-shape this pins the centring: expanded about the corner (0, 0)
    instead of the centre (1, 1), its rhs misses by 6.6e-11 (order 6) and
    1.2e-10 (order 24)."""
    domain, pot, flavor = GAMMA2_CASES[case]
    form = gamma2_bump(domain, flavor)
    rec = check_gamma2(form, pot, domain, quad_order)
    got = {"lhs": rec.lhs, "rhs": rec.rhs,
           **{k: rec.extra[k] for k in ("gamma", "dirichlet", "generator")}}
    for key, want in gamma2_oracle(form, pot, domain, quad_order).items():
        assert abs(got[key] - want) <= 1e-12 * abs(want), (key, got[key], want)


def test_gamma2_drift_mutation_fails(monkeypatch):
    """Negative control: L0 with its drift term scaled by 1 + 1e-6 breaks
    int |dw|^2 = int w L0 w, and the disk record fails."""
    form, pot = gamma2_bump(DISK, 0), Potential.quadratic(1.0, 2)
    assert check_gamma2(form, pot, DISK, 8).status == "pass"
    drift = analytic_forms._poly_drift
    monkeypatch.setattr(analytic_forms, "_poly_drift",
                        lambda u, grad_v: drift(u, grad_v) * sp.Rational(1 + 1e-6))
    assert check_gamma2(form, pot, DISK, 8).status == "fail"


def test_gamma2_calls_no_sympy_diff_or_lambdify(monkeypatch):
    form, pot = gamma2_bump(DISK, 1), Potential.quadratic(1.0, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("gamma2 called sympy diff or lambdify")

    monkeypatch.setattr(sp, "diff", forbidden)
    monkeypatch.setattr(sp, "lambdify", forbidden)
    assert check_gamma2(form, pot, DISK, 8).status == "pass"


def test_gamma2_polynomials_once_per_run(monkeypatch):
    """In one run scope a second gamma2 check of the same bump and V, at
    another quadrature order, decomposes no polynomial again, and its
    record equals the one computed outside a scope."""
    form, pot = gamma2_bump(DISK, 0), Potential.quadratic(1.0, 2)
    fresh = check_gamma2(form, pot, DISK, 12)
    calls = []
    sqf = sp.Poly.sqf_list
    monkeypatch.setattr(sp.Poly, "sqf_list", lambda self, *a, **k: calls.append(1)
                        or sqf(self, *a, **k))
    with runcache.scope():
        check_gamma2(form, pot, DISK, 8)
        assert len(calls) == 7        # w, dw (2), Gamma, L0 w, L1 dw (2)
        rec = check_gamma2(form, pot, DISK, 12)
    assert len(calls) == 7
    assert (rec.lhs, rec.rhs, rec.extra) == (fresh.lhs, fresh.rhs, fresh.extra)


def test_gamma2_refuses_non_polynomials():
    """The bump and V must be polynomials in the coordinates; the error
    names the expression."""
    interval = DomainSpec.interval(0, 1)
    bump = AnalyticForm(1, 0, [(x1 * (1 - x1)) ** 4])
    with pytest.raises(ValueError, match=r"bump w .*exp\(x1\)"):
        check_gamma2(AnalyticForm(1, 0, [(x1 * (1 - x1)) ** 4 * sp.exp(x1)]),
                     Potential.zero(1), interval, 6)
    with pytest.raises(ValueError, match=r"potential V .*cos\(x1\)"):
        check_gamma2(bump, Potential(sp.cos(x1), 1), interval, 6)
    with pytest.raises(ValueError, match=r"potential V .*pi\*x1"):
        check_gamma2(bump, Potential(sp.pi * x1, 1), interval, 6)


def test_hypothesis_check_examples():
    rep = hypothesis_check(VX2, DISK, "normal", 1)
    assert rep.status == "satisfied" and rep.boundary_min >= 1.0 - 1e-12
    rep = hypothesis_check(Potential.quartic_double_well(1.0, 2), DISK, "normal", 1,
                           N=math.inf)
    assert rep.status == "violated" and np.linalg.norm(rep.witness) < 0.2
    rep = hypothesis_check(Potential.zero(2), DISK, "tangential", 1)
    # -Tr K1 - dV/dn = 1 >= 0, but Hess 0 fails positivity
    assert rep.boundary_min >= 1.0 - 1e-12 and rep.status == "violated"
    rep = hypothesis_check(VX2, DISK, "normal", 0)
    assert rep.status == "violated" and "0-forms" in rep.note


def test_bl_scalar_pass_and_refinement_ordering():
    w = AnalyticForm(2, 0, [x1], name="x1")
    V1 = Potential.quadratic(1.0, 2)
    recs = {N: check_bl_scalar(w, V1, DISK, "normal", N) for N in
            (math.inf, 4.0, -1.0, 0.0)}
    assert all(r.status == "pass" for r in recs.values())
    # finite N >= n strengthens the bound; N <= 0 weakens it
    assert recs[4.0].rhs < recs[math.inf].rhs < recs[-1.0].rhs
    assert recs[0.0].rhs == math.inf
    with pytest.raises(ValueError):
        check_bl_scalar(w, V1, DISK, "normal", 1.2)


def test_bl_scalar_violations_report_not_applicable():
    w = AnalyticForm(2, 0, [x1], name="x1")
    dw = Potential.quartic_double_well(1.0, 2)
    assert check_bl_scalar(w, dw, DISK, "normal", math.inf).status == "not_applicable"
    ann = DomainSpec.annulus(0.5, 1.0)
    rec = check_bl_scalar(w, Potential.quadratic(1.0, 2), ann, "normal", math.inf)
    assert rec.status == "not_applicable"
    assert abs(np.linalg.norm(rec.witness) - 0.5) < 1e-9  # inner (concave) circle
    wt = AnalyticForm(2, 0, [(1 - x1**2 - x2**2) * x1], bc="tangential")
    rec = check_bl_scalar(wt, VX2, DISK, "tangential", math.inf)
    assert rec.status == "not_applicable"  # dV/dn = 2 > -Tr K1 = 1


def test_bl_cross_route_consistency():
    """check_bl_scalar at N = inf is the q = 0 coclosed case of
    check_bl_forms: equal hypotheses, lhs and rhs, bit for bit, at quad
    orders 4 and 8 in both realizations."""
    from hodgecheck.presets import test_form

    V1 = Potential.quadratic(1.0, 2)
    for b in ("normal", "tangential"):
        w = test_form(DISK, 0, b)
        for quad_order in (4, 8):
            a = check_bl_scalar(w, V1, DISK, b, math.inf, quad_order)
            f = check_bl_forms(w, V1, DISK, b, "coclosed", quad_order, mesh_h=0.3)
            assert a.status == f.status == "pass"
            assert a.extra["hypothesis"] == f.extra["hypothesis"]
            assert (a.lhs, a.rhs) == (f.lhs, f.rhs), (b, quad_order)
            assert f.extra["kernel_dim"] == (1 if b == "normal" else 0)


def test_bl_scalar_negative_infinite_N_is_the_unrefined_bound():
    """N = -inf is the limit of N -> -inf: factor (N - 1)/N = 1 and the
    Bakry-Emery tensor is Hess V, so the record equals the N = +inf one;
    the gap bound is the N = +inf bound too."""
    w = AnalyticForm(2, 0, [x1 + x2], name="x1+x2")
    V1 = Potential.quadratic(1.0, 2)
    pos, neg = (check_bl_scalar(w, V1, DISK, "normal", N, 4) for N in (math.inf, -math.inf))
    assert neg.passed and neg.extra["factor"] == 1.0
    assert (neg.lhs, neg.rhs) == (pos.lhs, pos.rhs)
    gaps = [check_gap_lower_bound(V1, DISK, "normal", 0, use_N=N, mesh_h=0.5, levels=2)
            for N in (math.inf, -math.inf)]
    assert gaps[1].lhs == gaps[0].lhs == 1.0


def test_bl_forms_degenerate_p0():
    psi = (1 - x1**2 - x2**2) ** 2
    closed = AnalyticForm(2, 1, [sp.diff(psi, x1), sp.diff(psi, x2)], bc="normal")
    rec = check_bl_forms(closed, Potential.quadratic(1.0, 2), DISK, "normal", "closed",
                         mesh_h=0.35)
    assert rec.status == "not_applicable"
    assert rec.extra["bound_degree"] == 0


def test_bl_forms_constraint_violation():
    not_closed = AnalyticForm(2, 1, [-x2 * x1, x1], bc="normal")
    with pytest.raises(ValueError):
        check_bl_forms(not_closed, Potential.quadratic(1.0, 2), DISK, "normal",
                       "closed", mesh_h=0.35)


def test_variance_identity_exactness():
    rec = variance_identity_record(DISK, VX2, "normal", 0.3, n_samples=8)
    assert rec.passed and rec.rel_err <= 1e-10
    rec = variance_identity_record(DomainSpec.interval(0, 1), Potential.linear(1.0, 1),
                                   "tangential", 1 / 64, n_samples=8)
    assert rec.passed
    # constant cochain, normal realization: both sides vanish
    m = generate_mesh(DISK, 0.35)
    chain = OperatorChain(m, VX2, "normal")
    lhs, rhs = check_variance_identity(np.ones(chain.dim(0)), chain)
    assert abs(lhs) < 1e-14 and abs(rhs) < 1e-12


def test_gap_lower_bound_disk():
    rec = check_gap_lower_bound(VX2, DISK, "normal", 0, mesh_h=0.45, levels=3)
    assert rec.status == "pass"
    assert rec.lhs == pytest.approx(2.0)
    assert all(lam >= 2.0 - 1e-9 for lam in rec.extra["eigenvalues"])
    # V = 0: bound is 0 and trivially passes, hypothesis fails positivity though
    rec = check_gap_lower_bound(Potential.zero(2), DISK, "normal", 0,
                                mesh_h=0.45, levels=3)
    assert rec.status == "not_applicable"


def test_ladder_records_name_solver_paths():
    """Each rung of a gap ladder names its eigensolver path and dimension:
    the disk ladder runs dense eigh at level 0 and the sparse shift-invert
    path at its finest level, above SPECTRA_CUTOFF."""
    rec = check_gap_lower_bound(VX2, DISK, "normal", 0, mesh_h=0.3, levels=3)
    solvers, dims = rec.extra["solvers"], rec.extra["dims"]
    assert solvers[0] == "dense-eigh" and solvers[-1] == "eigsh-shift-invert"
    assert len(solvers) == len(dims) == 3
    assert dims[0] <= spectral.SPECTRA_CUTOFF < dims[-1] and dims == sorted(dims)
    [rec] = semiclassical_sweep(VX2, DISK, "normal", 1, [0.5], mesh_h=0.3)
    assert rec.extra["solvers"] == ["dense-eigh"] and rec.extra["dims"] == [240]


def test_semiclassical_sweep_behaviour():
    recs = semiclassical_sweep(VX2, DISK, "normal", 0, [1.0, 0.5], mesh_h=0.3)
    assert all(r.status == "pass" for r in recs)
    gaps = [r.extra["h_lambda1"] for r in recs]
    assert all(g >= 2.0 - 1e-9 for g in gaps)
    recs = semiclassical_sweep(VX2, DISK, "tangential", 0, [1.0, 0.5], mesh_h=0.3)
    assert all(r.status == "not_applicable" for r in recs)  # dV/dn > 0 on the boundary


@pytest.mark.parametrize("check_id", ["gap_lower_bound", "semiclassical_sweep"])
def test_gap_record_grades_every_level(check_id):
    """gaps[i] >= bound - C*hs[i] with C <= max(10, 10|bound|) at every level:
    one level below that line fails the record, whatever the finest level says."""
    hyp = checks_mod.HypothesisReport("satisfied")
    hs = [0.4, 0.2, 0.1]
    ok = checks_mod._gap_record(check_id, 1.0, [0.5, 0.9, 0.99], hs, hyp, {})
    assert ok.status == "pass" and ok.rhs == 0.99 and ok.mesh_h == 0.1
    assert ok.extra["C_fit"] == pytest.approx(1.25) and ok.extra["C_cap"] == 10.0
    low = checks_mod._gap_record(check_id, 1.0, [0.5, 1.0 - 10.5 * 0.2, 0.99], hs, hyp, {})
    assert low.status == "fail" and low.extra["C_fit"] == pytest.approx(10.5)
    big = checks_mod._gap_record(check_id, -3.0, [-13.0, -4.0], [1.0, 0.5], hyp, {})
    assert big.extra["C_cap"] == 30.0 and big.status == "pass"   # C = 10 <= 10|bound|
    violated = checks_mod.HypothesisReport("violated")
    assert checks_mod._gap_record(check_id, 1.0, [0.99], [0.1], violated,
                                  {}).status == "not_applicable"


def test_both_gap_checks_fail_one_low_level(monkeypatch):
    """The second eigenvalue either gap check reads drops far below its bound:
    the middle rung of the gap ladder, the second h of the sweep."""
    first = checks_mod._first_nonkernel_eigenvalue
    seen = []

    def lowered(res):
        seen.append(res)
        return -1e3 if len(seen) == 2 else first(res)

    monkeypatch.setattr(checks_mod, "_first_nonkernel_eigenvalue", lowered)
    rec = check_gap_lower_bound(VX2, DISK, "normal", 0, mesh_h=0.45, levels=3)
    assert len(seen) == 3 and rec.status == "fail"
    assert rec.extra["C_fit"] > rec.extra["C_cap"] and rec.rhs > rec.lhs
    seen.clear()
    recs = semiclassical_sweep(VX2, DISK, "normal", 0, [1.0, 0.5, 0.25], mesh_h=0.45)
    assert [r.status for r in recs] == ["pass", "fail", "pass"]
    assert all("C_fit" in r.extra and "C_cap" in r.extra for r in recs)


def test_gap_checks_refuse_a_nonpositive_lambda1():
    """[-2, 2] under the double well over h, tangential p = 0, mesh_h 0.02
    (b_0 = 0): lambda_1 reads -5.9e-13 at h = 0.05, below the pencil's
    roundoff floor.  Both gap checks raise SolverError rather than grade it
    as a gap, and a run reports the sweep's case as an error record."""
    from hodgecheck.report import run_config

    interval, V = DomainSpec.interval(-2, 2), Potential.quartic_double_well(1.0, 1)
    with pytest.raises(spectral.SolverError, match="<= 0"):
        semiclassical_sweep(V, interval, "tangential", 0, [0.1, 0.05], mesh_h=0.02)
    with pytest.raises(spectral.SolverError, match="<= 0"):
        check_gap_lower_bound(V.rescaled(0.05), interval, "tangential", 0, mesh_h=0.02,
                              levels=1)
    cfg = load_config({"domain": {"kind": "interval", "parameters": [-2.0, 2.0]},
                       "potential": "quartic_double_well(1.0)", "degrees": [0],
                       "realizations": ["tangential"], "checks": ["semiclassical_sweep"],
                       "mesh": {"target_h": 0.02}, "h_list": [0.1, 0.05]})
    [rec] = run_config(cfg).records
    assert rec.status == "fail" and rec.error.startswith("SolverError: first nonkernel")


def test_ladder_walks_one_mesh_ladder(monkeypatch):
    """A ladder of L levels generates one mesh and refines it L - 1 times;
    the duality check solves both sides on one ladder and the semiclassical
    sweep solves every h on one mesh."""
    calls = {}
    for name in ("generate_mesh", "refine"):
        def counted(*args, _fn=getattr(checks_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(checks_mod, name, counted)
    interval, pot = DomainSpec.interval(0, 1), Potential.quadratic(1.0, 1)
    runs = [(levels, lambda levels=levels: check_gap_lower_bound(
        pot, interval, "normal", 0, mesh_h=1 / 16, levels=levels)) for levels in (1, 3)]
    runs.append((3, lambda: duality_spectrum_check(interval, pot, k=2, mesh_h=1 / 16,
                                                   levels=3)))
    runs.append((1, lambda: semiclassical_sweep(pot, interval, "normal", 0,
                                                [1.0, 0.5, 0.25], mesh_h=1 / 16)))
    for levels, run in runs:
        calls.update(generate_mesh=0, refine=0)
        run()
        assert calls == {"generate_mesh": 1, "refine": levels - 1}


@pytest.mark.parametrize("p, N", [(0, None), (0, math.inf), (0, 4.0), (0, -1.0),
                                  (2, None)])
def test_gap_bound_is_hypothesis_interior_min(p, N):
    """The gap bound is hypothesis_check's interior minimum at the bound
    degree, times N/(N-1) for a finite N, bit for bit."""
    rec = check_gap_lower_bound(VX2, DISK, "normal", p, use_N=N, mesh_h=0.45, levels=1)
    hyp = hypothesis_check(VX2, DISK, "normal", max(p, 1), N=N if p == 0 else None,
                           quad_order=checks_mod.GAP_HYPOTHESIS_ORDER)
    scale = N / (N - 1.0) if N is not None and math.isfinite(N) else 1.0
    assert rec.lhs == hyp.interior_min * scale
    assert rec.N == N and rec.extra["hypothesis"] == hyp.to_dict()


def test_hodge_decomposition_record_and_annulus_kernel():
    rec = hodge_decomposition_record(DomainSpec.interval(0, 1), Potential.zero(1),
                                     "normal", 1, 1 / 32, n_samples=3)
    assert rec.passed
    ann = DomainSpec.annulus(0.5, 1.0)
    rec = hodge_decomposition_record(ann, Potential.zero(2), "tangential", 1, 0.25,
                                     n_samples=3)
    assert rec.passed and rec.extra["kernel_dim"] == 1


def test_duality_interval():
    rec = duality_spectrum_check(DomainSpec.interval(0, 1), Potential.quadratic(1.0, 1),
                                 k=3, mesh_h=1 / 64, levels=3)
    assert rec.passed and rec.rel_err <= 1e-8
    assert rec.extra["solvers"] == {"direct": ["dense-eigh"] * 3, "dual": ["dense-eigh"] * 3}
    assert rec.extra["dims"] == {"direct": [65, 129, 257], "dual": [64, 128, 256]}


def test_interval_duality_record_is_accurate():
    """The duality_spectrum record of the shipped interval_spectrum config
    (V = 0 on [0, 1], mesh_h 1/64, four levels): each dual_extrapolated
    entry lies within 5e-12 relative of (k pi)^2.  Its finest dual rung (1,
    tangential, dim 512) is a top-degree eigensolve; through the mixed
    saddle the entries missed by 1.7e-11 to 2.0e-11."""
    cfg = load_config(str(ROOT / "examples_config" / "interval_spectrum.json"))
    with runcache.scope():
        [rec] = report_mod.RUNNERS["duality_spectrum"](cfg)
    assert rec.passed and rec.extra["solvers"]["dual"][-1] == "eigsh-mixed"
    exact = (np.pi * np.arange(1, len(rec.extra["dual_extrapolated"]) + 1)) ** 2
    assert np.allclose(rec.extra["dual_extrapolated"], exact, rtol=5e-12, atol=0)


def test_duality_disk_example():
    """Direct normal p = 0 assembly vs the dual (2, tangential, -V) route on
    the disk preset with V = |x|^2, compared after ladder extrapolation."""
    rec = duality_spectrum_check(DISK, VX2, k=3, mesh_h=0.28, levels=4)
    assert rec.passed and rec.rel_err <= 1e-6


def test_bl_sharpness_ratio_trend():
    """Gaussian limit: rhs/lhs decreases toward 1 on growing centered disks."""
    w = AnalyticForm(2, 0, [x1], name="x1")
    V1 = Potential.quadratic(1.0, 2)
    ratios = []
    for R in (1.0, 2.0, 4.0):
        rec = check_bl_scalar(w, V1, DomainSpec.disk(R), "normal", math.inf, 10)
        ratios.append(rec.rhs / rec.lhs)
    assert ratios[0] > ratios[1] > ratios[2] >= 1.0
    assert ratios[2] < 1.01


def test_gap_trend_on_growing_intervals():
    """lambda_1 of the weighted Neumann problem decreases to alpha from above
    as the interval grows (Ornstein-Uhlenbeck limit)."""
    from hodgecheck.spectral import lowest_eigenpairs

    alpha = 1.0
    lams = []
    for L in (1.5, 2.5, 3.5):
        m = generate_mesh(DomainSpec.interval(-L, L), 1 / 128)
        chain = OperatorChain(m, Potential.quadratic(alpha, 1), "normal")
        lams.append(lowest_eigenpairs(chain.operator(0), 2).eigenvalues[1])
    assert lams[0] > lams[1] > lams[2] >= alpha - 1e-3
    assert lams[2] <= alpha + 0.05


def test_variance_identity_boundaryless():
    """Torus: the degree-1 kernel (two harmonic classes) is deflated."""
    rec = variance_identity_record(DomainSpec.flat_torus(1.0, 1.0),
                                   Potential.zero(2), "none", 0.3, n_samples=5)
    assert rec.passed and rec.rel_err <= 1e-9


def test_bl_scalar_on_polygon_bubble():
    """Convex polygon: tangential scalar case with the edge-line bubble."""
    from hodgecheck.presets import test_form

    square = DomainSpec.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    form = test_form(square, 0, "tangential")
    rec = check_bl_scalar(form, Potential.quadratic(0.5, 2), square,
                          "tangential", math.inf, 8)
    # -Tr K1 - dV/dn = -dV/dn < 0 somewhere on a straight-edged boundary
    assert rec.status == "not_applicable"
    rec = check_bl_scalar(AnalyticForm(2, 0, [x1], name="x1"),
                          Potential.quadratic(1.0, 2), square, "normal", math.inf, 8)
    assert rec.status == "pass"


def test_polygon_gamma2_independent_of_hash_seed():
    """The L-shape gamma2 record reads the same under two hash seeds: the
    polygon bubble is built from exact rationals, so its symbolic
    derivatives do not depend on set iteration order."""
    script = (
        "from hodgecheck.checks import check_gamma2\n"
        "from hodgecheck.domains import DomainSpec\n"
        "from hodgecheck.potentials import Potential\n"
        "from hodgecheck.presets import gamma2_bump\n"
        "L = DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])\n"
        "rec = check_gamma2(gamma2_bump(L, 0), Potential.quadratic(1.0, 2), L, 6)\n"
        "print(repr(rec.lhs), repr(rec.rhs))\n")
    src = os.path.dirname(os.path.dirname(checks_mod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].strip()


def test_gap_lower_bound_n_refined():
    """Finite N strengthens the exact-branch bound; N <= 0 weakens it."""
    recs = {}
    for N in (None, 4.0, -1.0):
        recs[N] = check_gap_lower_bound(VX2, DISK, "normal", 0, use_N=N,
                                        mesh_h=0.4, levels=3)
        assert recs[N].status == "pass", (N, recs[N].extra)
    # bounds: plain Hess = 2; N-scaled = (N/(N-1)) min eig(Ric_{V,N})
    assert recs[None].lhs == pytest.approx(2.0)
    assert recs[-1.0].lhs < 2.0  # weaker bound for N < 0
    # same measured gap sequence in every variant (exact branch)
    assert recs[4.0].extra["eigenvalues"] == recs[None].extra["eigenvalues"]


def test_bl_forms_annulus_with_harmonic_kernel():
    """Annulus, coclosed 1-form, normal realization: the bound degree is
    p = 2 where the boundary operator vanishes identically in n = 2, so the
    hypothesis holds despite the concave inner circle; the projector must
    remove a large harmonic component (kernel dim 1 through the dual complex)."""
    ann = DomainSpec.annulus(0.5, 1.0)
    V1 = Potential.quadratic(1.0, 2)
    gt = x1**2 + x2**2
    ev = sp.exp(V1.expr)
    w = AnalyticForm(2, 1, [ev * sp.diff(gt, x2), -ev * sp.diff(gt, x1)],
                     bc="normal", name="cocl-ann")
    rec = check_bl_forms(w, V1, ann, "normal", "coclosed", quad_order=8, mesh_h=0.2)
    assert rec.status == "pass"
    assert rec.extra["kernel_dim"] == 1
    # the harmonic part carries most of the squared norm here
    assert rec.extra["projection_norm_sq"] > 0.5 * rec.extra["l2_norm_sq"]
    assert rec.lhs <= rec.rhs


def test_semiclassical_tangential_threshold():
    """h K_t - dV/dn >= 0 holds above h = alpha R^2 and fails below."""
    pot = Potential.quadratic(0.3, 2)
    recs = semiclassical_sweep(pot, DISK, "tangential", 0, [1.0, 0.5, 0.2],
                               mesh_h=0.3)
    assert [r.hypothesis_status for r in recs] == ["satisfied", "satisfied",
                                                   "violated"]
    assert [r.status for r in recs] == ["pass", "pass", "not_applicable"]


def test_variance_identity_annulus_tangential():
    rec = variance_identity_record(DomainSpec.annulus(0.5, 1.0),
                                   Potential.linear(0.4, 2), "tangential", 0.22,
                                   n_samples=8)
    assert rec.passed and rec.rel_err <= 1e-9


# the checks whose records come from chains; bl_forms builds one above q = 0
# but labels the order of its analytic quadrature
DISCRETE_CHECKS = ("eigen_spectrum", "variance_identity", "gap_lower_bound",
                   "semiclassical_sweep", "intertwining", "hodge_decomposition",
                   "duality_spectrum")


def test_every_chain_is_built_at_the_chain_quadrature_order(monkeypatch):
    """One run of every check that builds a chain, on a small disk: every
    chain is at CHAIN_QUAD_ORDER, and so is the quad_order label of each
    discrete record."""
    from hodgecheck.config import load_config
    from hodgecheck.report import run_config

    orders = []
    init = OperatorChain.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        orders.append(self.quad_order)

    monkeypatch.setattr(OperatorChain, "__init__", spy)
    cfg = load_config({"domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
                       "potential": "quadratic(1.0)", "degrees": [0, 1],
                       "realizations": ["normal", "tangential"],
                       "checks": [*DISCRETE_CHECKS, "bl_forms"],
                       "mesh": {"target_h": 0.5}, "h_list": [1.0, 0.5],
                       "n_samples": 2})
    records = run_config(cfg).records
    assert [r.error for r in records if r.error] == []
    assert {r.check_id for r in records} == {*DISCRETE_CHECKS, "bl_forms"}
    assert any("kernel_dim" in r.extra for r in records if r.check_id == "bl_forms")
    assert orders and set(orders) == {CHAIN_QUAD_ORDER}
    assert {r.quad_order for r in records if r.check_id in DISCRETE_CHECKS} \
        == {CHAIN_QUAD_ORDER}


@pytest.mark.parametrize("b", ["normal", "tangential"])
def test_polygon_top_degree_identities(b):
    """The L-shape has p = 2 test forms (only p = 1 has none): at quad order
    24 its decomposition, Green and h1 records pass at roundoff."""
    from hodgecheck.presets import test_form

    form, pot = test_form(L_SHAPE, 2, b), Potential.quadratic(1.0, 2)
    recs = [eval_decomposition_identity(form, pot, L_SHAPE, b, 24),
            eval_green_identity(form, pot, L_SHAPE, b, 24),
            eval_h1_identity(form, L_SHAPE, b, 24)]
    for rec in recs:
        assert rec.status == "pass" and rec.rel_err <= 1e-13, (rec.check_id, rec.rel_err)
    with pytest.raises(ValueError, match="no p=1 test form for polygon"):
        test_form(L_SHAPE, 1, b)
