"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest
import sympy as sp

from hodgecheck.analytic_forms import AnalyticForm
from hodgecheck.checks import (check_bl_forms, check_bl_scalar, check_gamma2,
                               check_gap_lower_bound, check_variance_identity,
                               duality_spectrum_check, eval_decomposition_identity,
                               eval_green_identity, eval_h1_identity,
                               hodge_decomposition_record, variance_identity_record)
from hodgecheck.config import load_config
from hodgecheck.domains import DomainSpec
from hodgecheck.meshing import generate_mesh
from hodgecheck.operators import OperatorChain
from hodgecheck.potentials import Potential, _COORDS
from hodgecheck.report import run_config
from hodgecheck.spectral import check_intertwining, kernel_projector, lowest_eigenpairs

from oracles import fd_oracle_1d

x1, x2 = _COORDS

INTERVAL = DomainSpec.interval(0.0, 1.0)
RECT = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
DISK = DomainSpec.disk(1.0)
ANNULUS = DomainSpec.annulus(0.5, 1.0)

MESH_H = {"interval": 1 / 32, "rectangle": 0.30, "disk": 0.32, "annulus": 0.28}


def _announce(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _potentials(n):
    return [Potential.zero(n), Potential.quadratic(1.0, n),
            Potential.linear(0.5, n), Potential.quartic_double_well(1.0, n)]


def test_criterion_01_supersymmetry():
    """Intertwining residual <= 1e-10 across presets x potentials x chains."""
    worst = 0.0
    for spec in (INTERVAL, RECT, DISK, ANNULUS):
        cplx = generate_mesh(spec, MESH_H[spec.kind])
        n = spec.ambient_dim
        for pot in _potentials(n):
            # tangential, the star dual of normal, and normal itself
            for realization, chain_pot in [("tangential", pot),
                                           ("tangential", pot.negated()),
                                           ("normal", pot)]:
                chain = OperatorChain(cplx, chain_pot, realization, 4)
                for p in range(n):
                    rep = check_intertwining(chain, p, n_samples=3, seed=5)
                    worst = max(worst, rep["residual"])
    _announce(1, "exact discrete supersymmetry", worst <= 1e-10,
              f"(worst residual {worst:.2e})")


def test_criterion_02_variance_identity():
    """Two-route agreement <= 1e-7 for 50 random cochains per preset, and the
    1/12 closed form for the interpolant of x at h = 1/1024."""
    worst = 0.0
    for spec in (INTERVAL, RECT, DISK, ANNULUS):
        pot = Potential.quadratic(1.0, spec.ambient_dim)
        rec = variance_identity_record(spec, pot, "normal",
                                       MESH_H[spec.kind] if spec.ambient_dim == 2
                                       else 1 / 128,
                                       n_samples=50, seed=2024)
        worst = max(worst, rec.rel_err)
    cplx = generate_mesh(INTERVAL, 1 / 1024)
    chain = OperatorChain(cplx, Potential.zero(1), "normal", 4)
    eta = chain.interpolate(AnalyticForm(1, 0, [x1], name="x"))
    lhs, rhs = check_variance_identity(eta, chain)
    ok = (worst <= 1e-7 and abs(lhs - 1 / 12) <= 1e-4 and abs(rhs - 1 / 12) <= 1e-4
          and abs(lhs - rhs) <= 1e-7 * abs(lhs))
    _announce(2, "variance identity", ok,
              f"(worst rel {worst:.2e}; routes {lhs:.10f}/{rhs:.10f} vs 1/12)")


def _decomposition_suite():
    VX2 = Potential.quadratic(2.0, 2)
    V1 = Potential.quadratic(1.0, 2)
    VL = Potential.linear(0.7, 2)
    g = 1 + x1 * x2 / 4
    ax, bx, ay, by = RECT.parameters
    return [
        (AnalyticForm(2, 1, [x1, x2], bc="tangential", name="radial"), VX2, DISK, "tangential"),
        (AnalyticForm(2, 1, [-x2, x1], bc="normal", name="rot"), VX2, DISK, "normal"),
        (AnalyticForm(2, 1, [g * x1, g * x2], bc="tangential", name="radial-g"), V1, DISK, "tangential"),
        (AnalyticForm(2, 2, [(1 - x1**2 - x2**2) * sp.exp(x1 / 2)], bc="normal", name="top-n"), VL, DISK, "normal"),
        (AnalyticForm(2, 0, [x1 + x2**2 / 3], bc="normal", name="scalar-n"), V1, DISK, "normal"),
        (AnalyticForm(2, 1, [(x2 - ay) * (by - x2) * (1 + x2 / 5),
                             (x1 - ax) * (bx - x1)], bc="tangential", name="rect-t"), V1, RECT, "tangential"),
        (AnalyticForm(2, 1, [(x1 - ax) * (bx - x1), (x2 - ay) * (by - x2) * (1 - x1 / 6)],
                      bc="normal", name="rect-n"), VL, RECT, "normal"),
        (AnalyticForm(2, 0, [(x1 - ax) * (bx - x1) * (x2 - ay) * (by - x2)],
                      bc="tangential", name="rect-bubble"), V1, RECT, "tangential"),
    ]


def test_criterion_03_decomposition_identity():
    worst = 0.0
    for form, pot, spec, b in _decomposition_suite():
        rec = eval_decomposition_identity(form, pot, spec, b, quad_order=8,
                                          tolerance=1e-8)
        worst = max(worst, rec.rel_err)
        assert rec.passed, f"{form.name} on {spec.kind}: rel {rec.rel_err:.2e}"
    # negative control on a case with all four rhs terms nonzero
    control_ok = True
    for i in range(4):
        rec = eval_decomposition_identity(
            AnalyticForm(2, 1, [x1, x2], bc="tangential"), Potential.quadratic(2.0, 2),
            DISK, "tangential", 8, tolerance=1e-6, perturb_term=i)
        control_ok = control_ok and (not rec.passed)
    _announce(3, "decomposition identity", worst <= 1e-8 and control_ok,
              f"(8 cases, worst rel {worst:.2e}; perturbation control "
              f"{'flips' if control_ok else 'MISSES'})")


def test_criterion_04_green_and_h1_identities():
    VX2 = Potential.quadratic(2.0, 2)
    V1 = Potential.quadratic(1.0, 2)
    ax, bx, ay, by = RECT.parameters
    green_cases = [
        (AnalyticForm(2, 1, [x1, x2], bc="tangential"), VX2, DISK, "tangential"),
        (AnalyticForm(2, 1, [-x2, x1], bc="normal"), V1, DISK, "normal"),
        (AnalyticForm(2, 1, [(x1 - ax) * (bx - x1), (x2 - ay) * (by - x2)],
                      bc="normal"), Potential.linear(0.7, 2), RECT, "normal"),
        (AnalyticForm(1, 0, [sp.sin(sp.pi * x1)], bc="tangential"),
         Potential.linear(1.0, 1), INTERVAL, "tangential"),
        (AnalyticForm(2, 2, [sp.exp(x1 / 2)], bc="tangential"), V1, DISK, "tangential"),
    ]
    worst_g = 0.0
    for form, pot, spec, b in green_cases:
        rec = eval_green_identity(form, pot, spec, b, 8, tolerance=1e-8)
        worst_g = max(worst_g, rec.rel_err)
        assert rec.passed, f"green {form.name}: {rec.rel_err:.2e}"
    h1_cases = [
        (AnalyticForm(2, 1, [x1, x2], bc="tangential"), DISK, "tangential"),
        (AnalyticForm(2, 1, [-x2, x1], bc="normal"), DISK, "normal"),
        (AnalyticForm(2, 1, [(x2 - ay) * (by - x2), (x1 - ax) * (bx - x1)],
                      bc="tangential"), RECT, "tangential"),
        (AnalyticForm(2, 2, [(1 - x1**2 - x2**2) * (1 + x2 / 3)], bc="normal"),
         DISK, "normal"),
    ]
    worst_h = 0.0
    for form, spec, b in h1_cases:
        rec = eval_h1_identity(form, spec, b, 8, tolerance=1e-8)
        worst_h = max(worst_h, rec.rel_err)
        assert rec.passed, f"h1 {form.name}: {rec.rel_err:.2e}"
    _announce(4, "Green and f=0 identities",
              worst_g <= 1e-8 and worst_h <= 1e-8,
              f"(5 Green cases worst {worst_g:.2e}; 4 f=0 cases worst {worst_h:.2e})")


def test_criterion_05_gamma2_chains():
    cases = [
        (AnalyticForm(1, 0, [(x1 * (1 - x1)) ** 4]), Potential.zero(1), INTERVAL),
        (AnalyticForm(1, 0, [(x1 * (1 - x1)) ** 4 * (1 + x1 / 2)]),
         Potential.quadratic(1.5, 1), INTERVAL),
        (AnalyticForm(2, 0, [(1 - x1**2 - x2**2) ** 4 * x1]),
         Potential.quadratic(1.0, 2), DISK),
    ]
    worst = 0.0
    for form, pot, spec in cases:
        rec = check_gamma2(form, pot, spec, quad_order=8, tolerance=1e-8)
        worst = max(worst, rec.rel_err)
        assert rec.passed
    _announce(5, "carre-du-champ chains", worst <= 1e-8,
              f"(3 bump cases, worst rel {worst:.2e})")


def test_criterion_06_spectral_oracles():
    # closed forms at a fixed resolution
    m = generate_mesh(INTERVAL, 1 / 128)
    resn = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "normal").operator(0), 3)
    rest = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "tangential").operator(0), 2)
    closed_ok = (np.allclose(resn.eigenvalues, [0, np.pi**2, 4 * np.pi**2], rtol=1e-3,
                             atol=1e-9)
                 and np.allclose(rest.eigenvalues, [np.pi**2, 4 * np.pi**2], rtol=1e-3))
    # observed convergence order on the first nonzero eigenvalue
    orders = []
    for realization, target, idx in (("normal", np.pi**2, 1), ("tangential", np.pi**2, 0)):
        errs, hs = [], []
        for ne in (16, 32, 64, 128):
            mm = generate_mesh(INTERVAL, 1 / ne)
            rr = lowest_eigenpairs(OperatorChain(mm, Potential.zero(1),
                                                 realization).operator(0), idx + 1)
            errs.append(abs(rr.eigenvalues[idx] - target))
            hs.append(1 / ne)
        orders.append(float(np.polyfit(np.log(hs), np.log(errs), 1)[0]))
    order_ok = min(orders) >= 1.9
    # independent dense finite-difference oracle at matched resolution
    ne = 256
    mm = generate_mesh(INTERVAL, 1 / ne)
    fem = lowest_eigenpairs(OperatorChain(mm, Potential.zero(1), "normal").operator(0), 3)
    fd = fd_oracle_1d(0, 1, ne, Potential.zero(1), "neumann")[:3]
    fd_ok = all(abs(a - b) <= 1e-3 * max(abs(b), 1.0)
                for a, b in zip(fem.eigenvalues[1:], fd[1:]))
    _announce(6, "spectral oracles", closed_ok and order_ok and fd_ok,
              f"(orders {orders[0]:.2f}/{orders[1]:.2f}; FD match "
              f"{'ok' if fd_ok else 'BAD'})")


def test_criterion_07_gap_lower_bound():
    rec = check_gap_lower_bound(Potential.quadratic(2.0, 2), DISK, "normal", 0,
                                mesh_h=0.5, levels=4, seed=9)
    lam = rec.extra["eigenvalues"]
    ok = (rec.status == "pass" and rec.lhs == pytest.approx(2.0)
          and rec.extra["C_fit"] <= rec.extra["C_cap"]
          and all(l1 >= 2.0 - rec.extra["C_cap"] * h
                  for l1, h in zip(lam, rec.extra["mesh_sizes"])))
    _announce(7, "gap lower bound", ok,
              f"(lambda_1 ladder {['%.4f' % v for v in lam]} >= 2 - C h, "
              f"C = {rec.extra['C_fit']:.3f})")


def _bl_suite():
    """(record, expected_status, span tags) for criterion 8."""
    inf = math.inf
    V1d = Potential.quadratic(1.0, 2)
    V05d = Potential.quadratic(0.5, 2)
    out = []

    def scalar(form, pot, spec, b, N, expect):
        rec = check_bl_scalar(form, pot, spec, b, N, quad_order=8)
        out.append((rec, expect, ("scalar", b, 1, N)))

    wx = AnalyticForm(2, 0, [x1], name="x1")
    wt = AnalyticForm(2, 0, [(1 - x1**2 - x2**2) * x1], bc="tangential", name="tx1")
    # hypothesis-satisfying scalar cases
    for N in (inf, 4.0, -1.0, 0.0):
        scalar(wx, V1d, DISK, "normal", N, "pass")
    scalar(wx, V1d, RECT, "normal", inf, "pass")
    for N in (inf, 4.0):
        scalar(wt, V05d, DISK, "tangential", N, "pass")
    wi = AnalyticForm(1, 0, [x1], name="x")
    for N in (inf, 4.0, -1.0):
        rec = check_bl_scalar(wi, Potential.quadratic(1.0, 1),
                              DomainSpec.interval(-1, 1), "normal", N, 8)
        out.append((rec, "pass", ("scalar", "normal", 1, N)))
    # forms cases
    def forms(form, pot, b, variant, expect, mesh_h=0.25):
        rec = check_bl_forms(form, pot, DISK, b, variant, quad_order=8, mesh_h=mesh_h)
        out.append((rec, expect, ("forms", b, rec.p, inf)))

    forms(wx, V1d, "normal", "coclosed", "pass")                      # p = 1
    gt = x1**2 + x2**2
    ev = sp.exp(V1d.expr)
    coexact = AnalyticForm(2, 1, [ev * sp.diff(gt, x2), -ev * sp.diff(gt, x1)],
                           bc="normal", name="coexact")
    forms(coexact, V1d, "normal", "coclosed", "pass")                 # p = 2
    # annulus: same construction, but the kernel projector must strip a
    # nontrivial harmonic component (dim 1 through the dual complex)
    rec = check_bl_forms(coexact, V1d, ANNULUS, "normal", "coclosed",
                         quad_order=8, mesh_h=0.2)
    out.append((rec, "pass", ("forms", "normal", rec.p, inf)))
    forms(AnalyticForm(2, 2, [1 - x1**2 - x2**2], bc="normal", name="top-n"),
          V1d, "normal", "closed", "pass")                            # p = 1
    forms(AnalyticForm(2, 2, [x1], bc="tangential", name="top-t"),
          V05d, "tangential", "closed", "pass")                       # p = 1
    forms(wt, V05d, "tangential", "coclosed", "pass")                 # p = 1
    # degenerate p = 0 member of the span (documented not_applicable)
    psi = (1 - x1**2 - x2**2) ** 2
    forms(AnalyticForm(2, 1, [sp.diff(psi, x1), sp.diff(psi, x2)], bc="normal",
                       name="dpsi"), V1d, "normal", "closed", "not_applicable")
    # hypothesis violations: double well, concave boundary, dV/dn > 0, N = n
    scalar(wx, Potential.quartic_double_well(1.0, 2), DISK, "normal", inf,
           "not_applicable")
    rec = check_bl_scalar(wx, V1d, ANNULUS, "normal", inf, 8)
    out.append((rec, "not_applicable", ("scalar", "normal", 1, inf)))
    scalar(wt, Potential.quadratic(2.0, 2), DISK, "tangential", inf, "not_applicable")
    scalar(wx, Potential.zero(2), DISK, "normal", 2.0, "not_applicable")
    return out


def test_criterion_08_brascamp_lieb_suite():
    suite = _bl_suite()
    mismatches = [(r.check_id, r.b, r.N, r.status, expect)
                  for r, expect, _ in suite if r.status != expect]
    passing = sum(1 for r, e, _ in suite if e == "pass")
    bs = {tag[1] for _, _, tag in suite}
    ps = {tag[2] for _, _, tag in suite}
    Ns = {tag[3] for _, _, tag in suite}
    span_ok = (bs >= {"normal", "tangential"} and ps >= {0, 1, 2}
               and Ns >= {-1.0, 0.0, 2.0, 4.0, math.inf})
    never_false_pass = all(r.status != "pass" for r, e, _ in suite
                           if e == "not_applicable")
    ok = not mismatches and passing >= 12 and span_ok and never_false_pass
    _announce(8, "Brascamp-Lieb suite", ok,
              f"({passing} hypothesis-satisfying cases pass, "
              f"{len(suite) - passing} violations report not_applicable; "
              f"mismatches: {mismatches})")


def test_criterion_09_hodge_decomposition():
    worst = 0.0
    for spec, pot, b, p in [
        (INTERVAL, Potential.quadratic(1.0, 1), "normal", 1),
        (DISK, Potential.quadratic(1.0, 2), "tangential", 1),
        (ANNULUS, Potential.zero(2), "tangential", 1),
        (ANNULUS, Potential.zero(2), "normal", 1),
        (DISK, Potential.linear(0.5, 2), "normal", 0),
    ]:
        rec = hodge_decomposition_record(spec, pot, b, p,
                                         MESH_H[spec.kind] if spec.ambient_dim == 2
                                         else 1 / 64, n_samples=4, seed=3)
        worst = max(worst, rec.rel_err)
        assert rec.passed
    # annulus, V = 0, normal 1-forms: kernel dimension = first Betti number,
    # assembled directly and through the star dual (1, tangential, -V = 0)
    cplx = generate_mesh(ANNULUS, 0.22)
    kdims = [kernel_projector(OperatorChain(cplx, Potential.zero(2), b, 4).operator(1)).dim
             for b in ("normal", "tangential")]
    _announce(9, "Hodge decomposition", worst <= 1e-8 and kdims == [1, 1],
              f"(worst residual {worst:.2e}; annulus normal 1-form kernel dim "
              f"{kdims[0]} direct, {kdims[1]} dual)")


def test_criterion_10_duality_validation():
    rec1 = duality_spectrum_check(INTERVAL, Potential.quadratic(1.0, 1), k=3,
                                  mesh_h=1 / 64, levels=3, tol=1e-6)
    rec2 = duality_spectrum_check(RECT, Potential.quadratic(1.0, 2), k=3,
                                  mesh_h=0.15, levels=4, tol=1e-6)
    ok = rec1.passed and rec2.passed
    _announce(10, "star-duality validation", ok,
              f"(interval rel {rec1.rel_err:.2e}; rectangle rel {rec2.rel_err:.2e}; "
              f"extrapolated over the refinement ladder)")


def test_criterion_11_determinism():
    cfg_dict = {
        "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
        "potential": "quadratic(1.0)",
        "degrees": [0, 1],
        "realizations": ["normal", "tangential"],
        "N": ["inf", 4],
        "checks": ["eigen_spectrum", "variance_identity", "bl_scalar",
                   "intertwining", "hypothesis_check"],
        "mesh": {"target_h": 0.3, "refinements": 2},
        "quad_order": 8,
        "seed": 99,
        "n_samples": 10,
    }
    rep1 = run_config(load_config(cfg_dict)).to_json()
    rep2 = run_config(load_config(cfg_dict)).to_json()
    ok = rep1 == rep2
    _announce(11, "byte-identical reports", ok,
              f"({len(rep1)} bytes, identical re-run)")
