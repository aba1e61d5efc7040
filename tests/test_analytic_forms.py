"""Symbolic form calculus and boundary trace verification."""

import numpy as np
import pytest
import sympy as sp

from hodgecheck.analytic_forms import AnalyticForm, BoundaryConditionError
from hodgecheck.domains import DomainSpec, boundary_quadrature, domain_quadrature
from hodgecheck.potentials import Potential, _COORDS
from oracles import exterior_calculus_oracle, weighted_laplacian, weighted_laplacian_one_form

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
    dstar = b.codifferential(V)
    rhs = quad.integrate(w * (a.components(quad.points)[:, 0]
                              * dstar.components(quad.points)[:, 0]))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_weighted_laplacians():
    V = Potential.quadratic(2.0, 2)
    u = AnalyticForm(2, 0, [x1**2])
    # L0 = -Delta + grad V . grad: -2 + 2x*2x
    expr = weighted_laplacian(u.comps[0], V, 2)
    assert sp.simplify(expr - (-2 + 4 * x1**2)) == 0
    w = AnalyticForm(2, 1, [x1**2, sp.Integer(0)])
    L1 = weighted_laplacian_one_form(w, V)
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
    assert np.allclose(c, expect, atol=1e-13)
    top = AnalyticForm(2, 2, [sp.Integer(3)])
    c2 = chain.interpolate(top)
    assert np.allclose(c2, 3 * m.top_volumes(), atol=1e-13)


_CALCULUS_FORMS = {
    1: {0: [0.3 * x1**3 - x1], 1: [x1**2 + 0.2 * x1]},
    2: {0: [0.7 * x1**2 * x2 + sp.sin(x2)],
        1: [x1 * x2 + 0.25 * x2**3, 1.5 * x1**2 - x2],
        2: [0.5 * x1 * x2**2 + x1]},
}
_CALCULUS_POTENTIALS = {1: 0.5 * x1**2 + 0.3 * x1,
                        2: 0.5 * x1**2 + 0.5 * x2**2 + 0.3 * x1 * x2}


@pytest.mark.parametrize("n, p", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_calculus_matches_insertion_oracle(n, p):
    """d, d*, d_f and d*_f are structurally equal to the one-insertion-at-a-
    time loops of the oracle (d_f = d + df ^ and d*_f = d* + i_{grad f},
    summed componentwise), so the lambdified integrands do not move; f is a
    float-coefficient potential, whose gradient components are sums."""
    form = AnalyticForm(n, p, _CALCULUS_FORMS[n][p])
    f = Potential(_CALCULUS_POTENTIALS[n], n)
    grad = [sp.diff(_CALCULUS_POTENTIALS[n], s) for s in _COORDS[:n]]
    ops = {}
    if p < n:
        ops["d"] = (form.d(), exterior_calculus_oracle(form, "d"))
        ops["d_f"] = (form.d(f), [a + b for a, b in zip(
            exterior_calculus_oracle(form, "d"), exterior_calculus_oracle(form, "wedge", grad))])
    if p >= 1:
        ops["codifferential"] = (form.codifferential(),
                                 exterior_calculus_oracle(form, "codifferential"))
        ops["codifferential_f"] = (form.codifferential(f), [a + b for a, b in zip(
            exterior_calculus_oracle(form, "codifferential"),
            exterior_calculus_oracle(form, "interior", grad))])
    for op, (got, want) in ops.items():
        assert [sp.srepr(c) for c in got.comps] == [sp.srepr(c) for c in want], op


def test_lambdify_on_first_use(monkeypatch):
    """Building a form, or a form from the calculus, lambdifies nothing;
    components lambdifies each component once, on its first call."""
    f = Potential(_CALCULUS_POTENTIALS[2], 2)
    calls = []
    lambdify = sp.lambdify
    monkeypatch.setattr(sp, "lambdify", lambda *a, **k: calls.append(1) or lambdify(*a, **k))
    form = AnalyticForm(2, 1, _CALCULUS_FORMS[2][1])
    dstar = form.codifferential(f)
    form.d(f)
    assert calls == []
    pts = np.random.default_rng(5).uniform(-1, 1, (6, 2))
    vals = form.components(pts)
    assert len(calls) == 2
    assert np.allclose(vals[:, 1], 1.5 * pts[:, 0] ** 2 - pts[:, 1], rtol=1e-14, atol=1e-14)
    form.components(pts)
    dstar.components(pts)
    assert len(calls) == 3


def test_derivatives_built_on_first_use(monkeypatch):
    """Constructing a form takes no derivative; component_grads takes one per
    component and coordinate and returns the exact gradients."""
    comps = _CALCULUS_FORMS[2][1]
    want = [[sp.lambdify(_COORDS, sp.diff(c, s)) for s in _COORDS] for c in comps]
    calls = []
    diff = sp.diff
    monkeypatch.setattr(sp, "diff", lambda *a, **k: calls.append(1) or diff(*a, **k))
    form = AnalyticForm(2, 1, comps)
    assert calls == []
    pts = np.random.default_rng(4).uniform(-1, 1, (7, 2))
    grads = form.component_grads(pts)
    assert len(calls) == 4
    for c in range(2):
        for i in range(2):
            assert np.allclose(grads[:, c, i], want[c][i](pts[:, 0], pts[:, 1]),
                               rtol=1e-14, atol=1e-14)
    form.component_grads(pts)
    assert len(calls) == 4
