"""Endomorphism fields: lifts, Hessians, boundary operators, BE tensor."""

import math

import numpy as np
import pytest

from hodgecheck.curvature import (EndomorphismField,
                                  PositivityViolationError, bakry_emery_tensor,
                                  boundary_operator, hessian_p, invert_endo_field,
                                  lift_endomorphism, restricted_min_eig)
from hodgecheck.domains import DomainSpec, boundary_quadrature
from hodgecheck.exterior import num_components
from hodgecheck.potentials import Potential
from oracles import restricted_min_eig_oracle

RNG = np.random.default_rng(7)
PTS = RNG.uniform(-1, 1, size=(40, 2))


def test_hessian_lifts():
    V = Potential.quadratic(2.0, 2)      # V = |x|^2, Hess = 2I
    assert np.allclose(hessian_p(V, 1).evaluate(PTS), np.broadcast_to(2 * np.eye(2), (40, 2, 2)))
    assert np.allclose(hessian_p(V, 2).evaluate(PTS), 4.0)
    mixed = Potential.polynomial([(1, 1, 1.0)], 2)  # V = x1 x2
    assert np.allclose(hessian_p(mixed, 1).evaluate(PTS),
                       np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), (40, 2, 2)))
    assert hessian_p(V, 0).evaluate(PTS).shape == (40, 1, 1)
    assert np.allclose(hessian_p(V, 0).evaluate(PTS), 0.0)


def test_lift_endomorphism_identity_passthrough():
    field = EndomorphismField(1, 2, lambda x: np.broadcast_to(
        np.array([[1.0, 2.0], [2.0, 3.0]]), (x.shape[0], 2, 2)).copy())
    assert np.allclose(lift_endomorphism(field, 1).evaluate(PTS[:3]),
                       field.evaluate(PTS[:3]))
    with pytest.raises(ValueError):
        lift_endomorphism(field, 3)


def test_bakry_emery_tensor():
    V = Potential.quadratic(1.5, 1)
    x = np.array([[0.7]])
    for N in (4.0, -1.0, 0.0):
        got = bakry_emery_tensor(V, N).evaluate(x)[0, 0, 0]
        assert np.isclose(got, 1.5 - (1.5 * 0.7) ** 2 / (N - 1))
    # N = +inf drops the correction and equals Ric + Hess = Hess exactly (Ric = 0)
    V2 = Potential.quartic_double_well(0.9, 2)
    inf_field = bakry_emery_tensor(V2, math.inf)
    assert np.allclose(inf_field.evaluate(PTS), hessian_p(V2, 1).evaluate(PTS), atol=1e-14)
    with pytest.raises(ValueError):
        bakry_emery_tensor(Potential.quadratic(1.0, 2), 1.5)
    with pytest.raises(ValueError):
        bakry_emery_tensor(Potential.quadratic(1.0, 2), 2.0)  # N = n, V nonconstant
    bakry_emery_tensor(Potential.zero(2), 2.0)  # N = n with constant V is defined


def test_boundary_operators_disk():
    bq = boundary_quadrature(DomainSpec.disk(1.0), 4)
    Kn = boundary_operator("normal", 1, bq)
    Kt = boundary_operator("tangential", 1, bq)
    for i in range(0, len(bq.weights), 7):
        nu = bq.normals[i]
        T = np.array([-nu[1], nu[0]])
        assert np.isclose(T @ Kn[i] @ T, 1.0)     # grad_T nu = T on the unit circle
        assert abs(nu @ Kn[i] @ nu) < 1e-14
        assert np.isclose(nu @ Kt[i] @ nu, 1.0)   # -Tr K1 = +1
        assert abs(T @ Kt[i] @ T) < 1e-14
    # p = 2 operators vanish identically in n = 2 (degenerate slots)
    assert np.abs(boundary_operator("normal", 2, bq)).max() < 1e-14
    assert np.abs(boundary_operator("tangential", 2, bq)).max() < 1e-14
    # p = 0: vanishes on functions
    assert np.abs(boundary_operator("normal", 0, bq)).max() == 0.0


def test_boundary_operators_straight_and_1d():
    bq = boundary_quadrature(DomainSpec.rectangle(0, 1, 0, 1), 4)
    assert np.abs(boundary_operator("normal", 1, bq)).max() < 1e-14
    assert np.abs(boundary_operator("tangential", 1, bq)).max() < 1e-14
    bq1 = boundary_quadrature(DomainSpec.interval(0, 1), 4)
    assert np.abs(boundary_operator("tangential", 1, bq1)).max() == 0.0


def test_boundary_operator_on_empty_rule():
    """A boundaryless 2D domain's empty rule gives the matrices of 1-forms of
    the plane: 2 components, shape (0, 2, 2)."""
    bq = boundary_quadrature(DomainSpec.flat_torus(1, 1), 4)
    for b in ("normal", "tangential"):
        assert boundary_operator(b, 1, bq).shape == (0, 2, 2)


@pytest.mark.parametrize("domain", [DomainSpec.disk(1.0), DomainSpec.annulus(0.5, 1.0),
                                    DomainSpec.rectangle(0, 1, 0, 2),
                                    DomainSpec.interval(0, 1)],
                         ids=["disk", "annulus", "rectangle", "interval"])
def test_boundary_operator_is_a_symmetric_matrix_batch(domain):
    """K_b^(p) is one (m, C, C) array of symmetric matrices at the m points of
    the rule, for every degree and both realizations."""
    bq = boundary_quadrature(domain, 6)
    n = domain.ambient_dim
    for p in range(3):
        if p > n:
            continue
        C = num_components(n, p)
        for b in ("normal", "tangential"):
            K = boundary_operator(b, p, bq)
            assert isinstance(K, np.ndarray)
            assert K.shape == (len(bq.weights), C, C)
            assert np.abs(K - K.transpose(0, 2, 1)).max(initial=0.0) <= 1e-15


def test_invert_and_positivity_violation():
    V = Potential.quadratic(2.0, 2)
    inv = invert_endo_field(hessian_p(V, 1))
    assert np.allclose(inv.evaluate(PTS), np.broadcast_to(0.5 * np.eye(2), (40, 2, 2)))
    diag = EndomorphismField(1, 2, lambda x: np.broadcast_to(
        np.diag([1.0, 3.0]), (x.shape[0], 2, 2)).copy())
    assert np.allclose(invert_endo_field(diag).evaluate(PTS[:2]),
                       np.diag([1.0, 1 / 3.0]), atol=1e-14)
    dw = Potential.quartic_double_well(1.0, 2)
    bad = invert_endo_field(bakry_emery_tensor(dw, math.inf))
    with pytest.raises(PositivityViolationError) as e:
        bad.evaluate(np.array([[0.9, 0.1], [0.05, 0.02]]))
    assert np.linalg.norm(e.value.point) < 0.1  # witness near the origin
    assert e.value.min_eig < 0


def test_restricted_min_eig_subspaces():
    bq = boundary_quadrature(DomainSpec.disk(1.0), 4)
    Kn = boundary_operator("normal", 1, bq)
    r = restricted_min_eig(Kn, bq.normals, 1, "tangential")
    assert np.allclose(r, 1.0)                   # = -K1 on the unit disk
    Kt = boundary_operator("tangential", 1, bq)
    r = restricted_min_eig(Kt, bq.normals, 1, "normal")
    assert np.allclose(r, 1.0)                   # = -Tr K1
    # trivial subspace reports +inf (tangential 2-forms in n = 2)
    K2 = boundary_operator("normal", 2, bq)
    assert np.all(np.isinf(restricted_min_eig(K2, bq.normals, 2, "tangential")))


@pytest.mark.parametrize("domain", [DomainSpec.disk(1.0), DomainSpec.annulus(0.5, 1.0),
                                    DomainSpec.rectangle(0, 1, 0, 2)],
                         ids=["disk", "annulus", "rectangle"])
def test_restricted_min_eig_matches_per_point_oracle(domain):
    """One batched eigendecomposition equals the per-point loop, bitwise, on
    the boundary operators, on their hypothesis-check shift by dV/dn and on
    a random symmetric field."""
    bq = boundary_quadrature(domain, 6)
    dnv = Potential.quartic_double_well(0.8, 2).normal_derivative(bq.points, bq.normals)
    rng = np.random.default_rng(3)
    for p in (1, 2):
        C = num_components(2, p)
        R = rng.standard_normal((len(bq.weights), C, C))
        fields = [R + R.transpose(0, 2, 1)]
        for b in ("normal", "tangential"):
            K = boundary_operator(b, p, bq)
            fields += [K, K - dnv[:, None, None] * np.eye(C)]
        for mats in fields:
            for trace in ("tangential", "normal"):
                got = restricted_min_eig(mats, bq.normals, p, trace)
                assert np.array_equal(
                    got, restricted_min_eig_oracle(mats, bq.normals, p, trace))


def test_field_symmetry_guard():
    skew = EndomorphismField(1, 2, lambda x: np.broadcast_to(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), (x.shape[0], 2, 2)).copy())
    with pytest.raises(ValueError):
        skew.evaluate(PTS[:2])


def test_boundary_operator_symmetry_guard(monkeypatch):
    """boundary_operator refuses a non-symmetric batch, as evaluate does."""
    import hodgecheck.curvature as curvature

    bq = boundary_quadrature(DomainSpec.disk(1.0), 4)
    skew = np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]), (len(bq.weights), 2, 2))
    monkeypatch.setattr(curvature, "_boundary_matrices", lambda *args: skew)
    with pytest.raises(ValueError, match="not symmetric"):
        boundary_operator("normal", 1, bq)
