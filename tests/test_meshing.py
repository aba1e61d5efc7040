"""Mesh generation, incidence exactness, refinement."""

import numpy as np
import pytest

from hodgecheck.domains import DomainSpec, DomainValidationError, boundary_quadrature
from hodgecheck.meshing import (SimplicialComplex, _from_triangles, boundary_geometry,
                                generate_mesh, incidence_matrix, refine)
from oracles import edge_table_oracle

ALL_SPECS = [
    DomainSpec.interval(0, 1),
    DomainSpec.rectangle(0, 1, 0, 2),
    DomainSpec.disk(1.0),
    DomainSpec.annulus(0.5, 1.0),
    DomainSpec.circle(1.0),
    DomainSpec.flat_torus(1.0, 1.0),
    DomainSpec.polygon([(0, 0), (1, 0), (1, 1), (0.5, 1.5), (0, 1)]),
]


def test_interval_example():
    m = generate_mesh(DomainSpec.interval(0, 1), 0.25)
    assert m.num(1) == 4 and m.vertex_coords.shape[0] == 5
    marked = np.nonzero(m.boundary_marker[0])[0]
    assert set(marked) == {0, 4}


def test_disk_boundary_on_circle():
    m = generate_mesh(DomainSpec.disk(1.0), 0.1)
    bv = m.vertex_coords[m.boundary_marker[0]]
    assert np.abs(np.linalg.norm(bv, axis=1) - 1.0).max() < 1e-12
    r = refine(m)
    bv = r.vertex_coords[r.boundary_marker[0]]
    assert np.abs(np.linalg.norm(bv, axis=1) - 1.0).max() < 1e-12


def test_torus_has_no_boundary():
    m = generate_mesh(DomainSpec.flat_torus(1.0), 0.5)
    assert not m.boundary_marker[0].any()
    m2 = generate_mesh(DomainSpec.flat_torus(1.0, 1.0), 0.5)
    assert not m2.boundary_marker[0].any() and not m2.boundary_marker[1].any()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_mesh_invariants(spec):
    m = generate_mesh(spec, 0.3)
    assert m.mesh_size_h <= 0.3 + 1e-12
    m.validate()
    # incidence composition vanishes in exact integer arithmetic
    if m.dim == 2:
        D0 = incidence_matrix(m, 0)
        D1 = incidence_matrix(m, 1)
        prod = (D1 @ D0).toarray()
        assert np.all(prod == 0)
        assert set(np.unique(D1.toarray())) <= {-1, 0, 1}
    D0 = incidence_matrix(m, 0)
    assert np.all(np.asarray(np.abs(D0).sum(axis=1)).ravel() == 2)


@pytest.mark.parametrize("spec,expected_order", [
    (DomainSpec.interval(0, 1), None), (DomainSpec.rectangle(0, 1, 0, 2), None),
    (DomainSpec.disk(1.0), 2.0), (DomainSpec.annulus(0.5, 1.0), 2.0)])
def test_volume_convergence(spec, expected_order):
    """Signed volumes: exact for straight domains, O(h^2) for curved ones."""
    errs, hs = [], []
    m = generate_mesh(spec, 0.4)
    for _ in range(3):
        errs.append(abs(m.top_volumes(signed=True).sum() - spec.measure()))
        hs.append(m.mesh_size_h)
        m = refine(m)
    if expected_order is None:
        assert max(errs) < 1e-12
    else:
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= expected_order - 0.2


def test_boundary_perimeter_convergence():
    spec = DomainSpec.disk(1.0)
    m = generate_mesh(spec, 0.5)
    errs, hs = [], []
    for _ in range(3):
        bg = boundary_geometry(m, spec, 4)
        errs.append(abs(bg.integrate(np.ones(len(bg.weights))) - 2 * np.pi))
        hs.append(m.mesh_size_h)
        m = refine(m)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_refinement_counts():
    m = generate_mesh(DomainSpec.interval(0, 1), 0.25)
    assert refine(m).num(1) == 8
    m2 = generate_mesh(DomainSpec.disk(1.0), 0.4)
    assert refine(m2).num(2) == 4 * m2.num(2)
    assert refine(m2).mesh_size_h <= 0.55 * m2.mesh_size_h + 1e-12


def test_boundary_geometry_mesh_attached():
    spec = DomainSpec.disk(1.0)
    m = generate_mesh(spec, 0.3)
    bg = boundary_geometry(m, spec, 4)
    assert np.allclose(np.linalg.norm(bg.normals, axis=1), 1.0, atol=1e-12)
    assert np.allclose(bg.k1, -1.0)
    spec = DomainSpec.rectangle(0, 1, 0, 1)
    m = generate_mesh(spec, 0.3)
    bg = boundary_geometry(m, spec, 4)
    assert np.allclose(bg.k1, 0.0)
    # empty boundary is not an error
    m = generate_mesh(DomainSpec.flat_torus(1.0, 1.0), 0.4)
    bg = boundary_geometry(m, m.spec, 4)
    assert bg.points.shape == bg.normals.shape == (0, 2) and bg.k1.shape == (0,)
    m = generate_mesh(DomainSpec.circle(1.0), 0.4)
    bg = boundary_geometry(m, m.spec, 4)
    assert bg.points.shape == bg.normals.shape == (0, 1) and bg.weights.shape == (0,)


OFF_CENTRE = DomainSpec.annulus(0.5, 1.0, (0.1, -0.2))


@pytest.mark.parametrize("rule", ["analytic", "mesh"])
def test_off_centre_annulus_boundary_frame(rule):
    """Both boundary rules take the circles about the annulus' own centre:
    inner nu = -radial with K1 = +2, outer nu = +radial with K1 = -1."""
    if rule == "analytic":
        bq = boundary_quadrature(OFF_CENTRE, 6)
    else:
        bq = boundary_geometry(refine(generate_mesh(OFF_CENTRE, 0.3)), OFF_CENTRE, 4)
    rel = bq.points - np.array([0.1, -0.2])
    dist = np.linalg.norm(rel, axis=1)
    radial = rel / dist[:, None]
    inner = dist < 0.75
    assert inner.any() and (~inner).any()
    assert np.allclose(bq.normals[inner], -radial[inner], atol=1e-14)
    assert np.allclose(bq.normals[~inner], radial[~inner], atol=1e-14)
    assert np.all(bq.k1[inner] == 2.0) and np.all(bq.k1[~inner] == -1.0)


def test_off_centre_annulus_vertices_on_circles():
    """Generated and re-snapped boundary vertices lie on their circles."""
    m = refine(generate_mesh(OFF_CENTRE, 0.4))
    bv = m.vertex_coords[m.boundary_marker[0]]
    dist = np.linalg.norm(bv - np.array([0.1, -0.2]), axis=1)
    on_inner = dist < 0.75
    assert on_inner.any() and (~on_inner).any()
    assert np.abs(dist - np.where(on_inner, 0.5, 1.0)).max() < 1e-12


def test_invalid_inputs():
    with pytest.raises(DomainValidationError):
        generate_mesh(DomainSpec.interval(0, 1), -0.5)
    m = generate_mesh(DomainSpec.interval(0, 1), 0.25)
    with pytest.raises(ValueError):
        incidence_matrix(m, 1)


def test_lshape_polygon_mesh():
    """Nonconvex polygon (reflex vertex): ear clipping plus refinement."""
    lshape = DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    m = generate_mesh(lshape, 0.3)
    m.validate()
    assert m.mesh_size_h <= 0.3
    assert abs(m.top_volumes(signed=True).sum() - 3.0) < 1e-12
    bg = boundary_geometry(m, lshape, 4)
    assert np.allclose(bg.k1, 0.0)  # straight edges carry no curvature
    assert abs(bg.integrate(np.ones(len(bg.weights))) - 8.0) < 1e-12


def test_refined_mesh_invariants():
    for spec in (DomainSpec.annulus(0.5, 1.0), DomainSpec.flat_torus(1.0, 1.0)):
        refine(generate_mesh(spec, 0.4)).validate()


def _edge_table_cases():
    for spec in ALL_SPECS:
        yield spec.kind, generate_mesh(spec, 0.3)
    for spec in (DomainSpec.annulus(0.5, 1.0), DomainSpec.flat_torus(1.0, 1.0)):
        yield f"refined {spec.kind}", refine(refine(generate_mesh(spec, 0.4)))
    # rebuilt from its triangles alone, in reverse order, with no domain
    m = generate_mesh(DomainSpec.disk(1.0), 0.35)
    yield "triangles only", _from_triangles(m.vertex_coords, m.simplices[2][::-1], None)
    # edges stored in shuffled order, some against increasing index order
    m = generate_mesh(DomainSpec.rectangle(0, 1, 0, 2), 0.3)
    rng = np.random.default_rng(0)
    edges = m.simplices[1][rng.permutation(m.num(1))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    yield "shuffled", SimplicialComplex(2, m.vertex_coords, {1: edges, 2: m.simplices[2]})


def test_edge_table_matches_dict_oracle():
    seen_2d = 0
    for label, m in _edge_table_cases():
        if m.dim == 1:
            assert m.tri_edges is None and m.tri_edge_sign is None
            continue
        seen_2d += 1
        idx, sgn, D1, bedge, bvert = edge_table_oracle(m)
        assert np.array_equal(m.tri_edges, idx), label
        assert np.array_equal(m.tri_edge_sign, sgn), label
        assert np.array_equal(incidence_matrix(m, 1).toarray(), D1), label
        assert np.array_equal(m.boundary_marker[1], bedge), label
        assert np.array_equal(m.boundary_marker[0], bvert), label
    assert seen_2d == 9


def test_missing_face_edge_raises():
    verts = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError, match="missing face edge"):
        SimplicialComplex(2, verts, {1: [(0, 1), (0, 2)], 2: [(0, 1, 2)]})
