"""Domain validation and analytic quadrature against closed-form integrals."""

import math

import numpy as np
import pytest

from hodgecheck.domains import (DomainSpec, DomainValidationError, boundary_quadrature,
                                domain_quadrature, triangle_gauss)


def test_validation_errors():
    with pytest.raises(DomainValidationError):
        DomainSpec.interval(1.0, 0.0)
    with pytest.raises(DomainValidationError) as e:
        DomainSpec.annulus(1.0, 0.5)
    assert "parameters" in str(e.value)
    with pytest.raises(DomainValidationError):
        DomainSpec.annulus(0.0, 1.0)
    # clockwise polygon rejected
    with pytest.raises(DomainValidationError):
        DomainSpec.polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    # self-intersecting polygon rejected
    with pytest.raises(DomainValidationError):
        DomainSpec.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
    DomainSpec.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])  # CCW square ok


@pytest.mark.parametrize("make, field_name", [
    (lambda: DomainSpec.disk(math.nan), "parameters"),
    (lambda: DomainSpec.disk(1.0, (math.nan, 0)), "parameters"),
    (lambda: DomainSpec.interval(0, math.inf), "parameters"),
    (lambda: DomainSpec.annulus(0.5, math.inf), "parameters"),
    (lambda: DomainSpec.circle(math.inf), "parameters"),
    (lambda: DomainSpec.flat_torus(math.inf, 1), "parameters"),
    (lambda: DomainSpec.polygon([(0, 0), (1, 0), (math.nan, 1), (0, 1)]), "vertices"),
], ids=["disk-nan-radius", "disk-nan-center", "interval-inf", "annulus-inf", "circle-inf",
        "torus-inf", "polygon-nan-vertex"])
def test_non_finite_domains_are_refused(make, field_name):
    """A non-finite parameter or vertex is refused at construction, naming
    its field, before any mesh is generated."""
    with pytest.raises(DomainValidationError) as e:
        make()
    assert e.value.field_name == field_name


def test_boundaryless_kinds():
    assert not DomainSpec.circle(1.0).has_boundary
    assert not DomainSpec.flat_torus(1.0, 2.0).has_boundary
    assert boundary_quadrature(DomainSpec.flat_torus(1.0, 1.0), 4).points.shape[0] == 0


@pytest.mark.parametrize("spec,measure", [
    (DomainSpec.interval(0, 2), 2.0),
    (DomainSpec.rectangle(0, 2, -1, 1), 4.0),
    (DomainSpec.disk(1.5), np.pi * 2.25),
    (DomainSpec.annulus(0.5, 1.0), 0.75 * np.pi),
    (DomainSpec.circle(2.0), 4 * np.pi),
    (DomainSpec.flat_torus(1.0, 3.0), 3.0),
    (DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)]), 3.0),
])
def test_domain_quadrature_constant(spec, measure):
    q = domain_quadrature(spec, 6)
    assert abs(q.integrate(np.ones(len(q.weights))) - measure) < 1e-12 * (1 + measure)


def test_gaussian_integrals():
    q = domain_quadrature(DomainSpec.disk(1.0), 8)
    got = q.integrate(np.exp(-np.sum(q.points**2, axis=1)))
    assert abs(got - np.pi * (1 - np.exp(-1))) < 1e-12
    q = domain_quadrature(DomainSpec.interval(0, 1), 8)
    assert abs(q.integrate(np.exp(-q.points[:, 0])) - (1 - np.exp(-1))) < 1e-12


def test_boundary_geometry_analytic():
    bq = boundary_quadrature(DomainSpec.disk(2.0), 6)
    assert np.allclose(np.linalg.norm(bq.normals, axis=1), 1.0, atol=1e-12)
    assert np.allclose(bq.k1, -0.5)
    assert abs(bq.integrate(np.ones(len(bq.weights))) - 4 * np.pi) < 1e-12
    # annulus: inner circle has outward normal toward the center, K1 = +1/r
    bq = boundary_quadrature(DomainSpec.annulus(0.5, 1.0), 6)
    inner = np.linalg.norm(bq.points, axis=1) < 0.75
    assert np.allclose(bq.k1[inner], 2.0)
    assert np.allclose(bq.k1[~inner], -1.0)
    radial = bq.points[inner] / np.linalg.norm(bq.points[inner], axis=1, keepdims=True)
    assert np.allclose(np.einsum("ij,ij->i", bq.normals[inner], radial), -1.0)
    # interval endpoints: counting measure, outward signs, no curvature
    bq = boundary_quadrature(DomainSpec.interval(0, 1), 4)
    assert bq.points.shape == (2, 1)
    assert np.allclose(sorted(bq.normals[:, 0]), [-1.0, 1.0])
    assert np.allclose(bq.k1, 0.0)
    # straight rectangle sides
    bq = boundary_quadrature(DomainSpec.rectangle(0, 1, 0, 1), 4)
    assert np.allclose(bq.k1, 0.0)
    assert abs(bq.integrate(np.ones(len(bq.weights))) - 4.0) < 1e-12


def test_boundary_quadrature_polynomial_exactness():
    bq = boundary_quadrature(DomainSpec.rectangle(0, 1, 0, 1), 5)
    got = bq.integrate(bq.points[:, 0] ** 4)
    # int x^4 over bottom+top = 2/5, sides x in {0,1}: 0 + 1
    assert abs(got - (2.0 / 5.0 + 1.0)) < 1e-13


@pytest.mark.parametrize("m", [2, 3, 5])
def test_triangle_gauss_exact_monomials(m):
    """The m x m collapsed rule integrates x^a y^b exactly over the reference
    triangle for a + b <= 2m - 2: a! b! / (a + b + 2)!."""
    pts, w = triangle_gauss(m)
    assert pts.shape == (m * m, 2)
    for a in range(2 * m - 1):
        for b in range(2 * m - 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(w @ (pts[:, 0] ** a * pts[:, 1] ** b) - exact) < 1e-15
