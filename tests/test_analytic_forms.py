"""Symbolic form calculus and boundary trace verification."""

import numpy as np
import pytest
import sympy as sp

from hodgecheck.analytic_forms import AnalyticForm, BoundaryConditionError
from hodgecheck.domains import DomainSpec, boundary_quadrature, domain_quadrature
from hodgecheck.potentials import Potential, _COORDS

x1, x2 = _COORDS


def test_component_count_validation():
    with pytest.raises(ValueError):
        AnalyticForm(2, 1, [x1])
    AnalyticForm(2, 2, x1 * x2)  # single expression accepted for C = 1


def test_exterior_derivative_and_square_zero():
    f = AnalyticForm(2, 0, [x1**3 * x2 + sp.sin(x2)])
    df = f.d()
    assert sp.simplify(df.comps[0] - (3 * x1**2 * x2)) == 0
    assert sp.simplify(df.comps[1] - (x1**3 + sp.cos(x2))) == 0
    assert all(sp.simplify(c) == 0 for c in df.d().comps)


def test_codifferential_is_minus_divergence():
    w = AnalyticForm(2, 1, [x1 * x2, sp.exp(x1)])
    assert sp.simplify(w.codifferential().comps[0] + x2) == 0
    top = AnalyticForm(2, 2, [x1**2 * x2])
    cod = top.codifferential()
    # d*(g dx^dy) = (d g/dx2, -d g/dx1)
    assert sp.simplify(cod.comps[0] - x1**2) == 0
    assert sp.simplify(cod.comps[1] + 2 * x1 * x2) == 0


def test_weighted_codifferential_adjointness_by_quadrature():
    """<d a, b>_{L^2(e^{-V})} = <a, d*_V b> for compactly supported data."""
    disk = DomainSpec.disk(1.0)
    V = Potential.quadratic(1.3, 2)
    bump = (1 - x1**2 - x2**2) ** 2
    a = AnalyticForm(2, 0, [bump * x1])
    b = AnalyticForm(2, 1, [bump * x2, bump * sp.cos(x1)])
    quad = domain_quadrature(disk, 10)
    w = V.weight(quad.points)
    da = a.d()
    lhs = quad.integrate(w * np.einsum("mc,mc->m", da.components(quad.points),
                                       b.components(quad.points)))
    dstar = b.codifferential_weighted(V)
    rhs = quad.integrate(w * (a.components(quad.points)[:, 0]
                              * dstar.components(quad.points)[:, 0]))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_star_is_isometry():
    w = AnalyticForm(2, 1, [x1, x2**2])
    s = w.star()
    pts = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    assert np.allclose(w.norm_sq(pts), s.norm_sq(pts))
    ss = s.star()
    assert np.allclose(ss.components(pts), -w.components(pts))  # star^2 = -1 on 1-forms


def test_weighted_laplacians():
    V = Potential.quadratic(2.0, 2)
    u = AnalyticForm(2, 0, [x1**2])
    # L0 = -Delta + grad V . grad: -2 + 2x*2x
    expr = u.weighted_laplacian_scalar(V)
    assert sp.simplify(expr - (-2 + 4 * x1**2)) == 0
    w = AnalyticForm(2, 1, [x1**2, sp.Integer(0)])
    L1 = w.weighted_laplacian_one_form(V)
    assert sp.simplify(L1.comps[0] - (-2 + 4 * x1**2 + 2 * x1**2)) == 0
    assert sp.simplify(L1.comps[1]) == 0


def test_boundary_trace_verification():
    disk = DomainSpec.disk(1.0)
    bq = boundary_quadrature(disk, 6)
    radial = AnalyticForm(2, 1, [x1, x2], bc="tangential")
    radial.verify_bc(bq)
    rot = AnalyticForm(2, 1, [-x2, x1], bc="normal")
    rot.verify_bc(bq)
    wrong = AnalyticForm(2, 1, [x1, x2], bc="normal")
    with pytest.raises(BoundaryConditionError):
        wrong.verify_bc(bq)
    # 0-forms never have a normal part
    f = AnalyticForm(2, 0, [x1], bc="normal")
    f.verify_bc(bq)


def test_interpolation_exact_for_whitney_fields():
    """DOF interpolation reproduces fields inside the Whitney space."""
    from hodgecheck.meshing import generate_mesh
    from hodgecheck.operators import OperatorChain

    m = generate_mesh(DomainSpec.rectangle(0, 1, 0, 1), 0.3)
    chain = OperatorChain(m, Potential.zero(2), "normal")
    const = AnalyticForm(2, 1, [sp.Integer(2), sp.Integer(-1)])
    c = chain.interpolate(const)
    ec = m.element_coords(1)
    expect = (ec[:, 1, :] - ec[:, 0, :]) @ np.array([2.0, -1.0])
    assert np.allclose(c.values, expect, atol=1e-13)
    top = AnalyticForm(2, 2, [sp.Integer(3)])
    c2 = chain.interpolate(top)
    assert np.allclose(c2.values, 3 * m.top_volumes(), atol=1e-13)
