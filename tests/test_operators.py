"""Whitney assembly, weighted adjointness, supersymmetry, realizations."""

import warnings

import numpy as np
import pytest

from hodgecheck.analytic_forms import AnalyticForm
from hodgecheck.domains import DomainSpec
from hodgecheck.meshing import generate_mesh
from hodgecheck.operators import (OperatorChain, UnsupportedRealizationError, dual_problem,
                                  sparse_lu)
from hodgecheck.potentials import Potential, _COORDS
from hodgecheck.whitney import AssemblyWarning, assemble_mass
from oracles import whitney_mass_oracle

x1, x2 = _COORDS


def test_mass_matrix_oracle_interval():
    """Single unit element, V = 0: exact hat-function Gram matrix."""
    m = generate_mesh(DomainSpec.interval(0, 1), 1.0)
    M0 = assemble_mass(m, 0, Potential.zero(1), 4).toarray()
    assert np.allclose(M0, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)


@pytest.mark.parametrize("domain, h", [
    (DomainSpec.disk(1.0), 0.3), (DomainSpec.annulus(0.5, 1.0), 0.3),
    (DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), 0.3),
    (DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 0.4)],
    ids=["disk", "annulus", "rectangle", "L-polygon"])
def test_mass_matches_tabulated_basis_oracle(domain, h):
    """The closed-form element kernels give the mass of the basis tabulated
    at every quadrature point: the same sparsity pattern, and entries within
    1e-14 of the largest entry."""
    m = generate_mesh(domain, h)
    for V in (Potential.zero(2), Potential.quadratic(1.0, 2)):
        for p in (0, 1, 2):
            for order in (4, 8):
                M, ref = assemble_mass(m, p, V, order), whitney_mass_oracle(m, p, V, order)
                M.sort_indices()
                ref.sort_indices()
                assert np.array_equal(M.indptr, ref.indptr)
                assert np.array_equal(M.indices, ref.indices)
                assert abs(M.data - ref.data).max() <= 1e-14 * abs(ref.data).max()


def test_mass_symmetry_and_constant_weight():
    m = generate_mesh(DomainSpec.disk(1.0), 0.35)
    for p in (0, 1, 2):
        M = assemble_mass(m, p, Potential.quadratic(1.3, 2), 4)
        assert abs(M - M.T).max() < 1e-14
    c = 0.9
    Mc = assemble_mass(m, 1, Potential.polynomial([(0, 0, c)], 2), 4)
    M0 = assemble_mass(m, 1, Potential.zero(2), 4)
    assert abs(Mc - np.exp(-c) * M0).max() < 1e-14


def test_mass_positive_definite():
    m = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.3)
    for p in (0, 1, 2):
        M = assemble_mass(m, p, Potential.linear(0.5, 2), 4).toarray()
        assert np.linalg.eigvalsh(M).min() > 0


def test_quadrature_warning_and_nonfinite_abort():
    import sympy as sp

    m = generate_mesh(DomainSpec.interval(0, 1), 0.25)
    with pytest.warns(AssemblyWarning):
        assemble_mass(m, 0, Potential.quartic_double_well(1.0, 1), 2)
    bad = Potential(sp.sqrt(x1 - 2), 1, name="nan-on-domain")
    with pytest.raises(FloatingPointError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assemble_mass(m, 0, bad, 4)


def test_apply_d_and_dd_zero():
    m = generate_mesh(DomainSpec.disk(1.0), 0.3)
    chain = OperatorChain(m, Potential.quadratic(1.0, 2), "normal")
    rng = np.random.default_rng(0)
    c = rng.standard_normal(chain.dim(0))
    dd = chain.apply_d(1, chain.apply_d(0, c))
    assert np.abs(dd).max() < 1e-12
    const = np.ones(chain.dim(0))
    assert np.abs(chain.apply_d(0, const)).max() < 1e-14
    with pytest.raises(ValueError):
        chain.apply_d(2, rng.standard_normal(chain.dim(2)))


def test_interpolant_of_x_gives_edge_lengths():
    m = generate_mesh(DomainSpec.interval(0, 1), 0.25)
    chain = OperatorChain(m, Potential.zero(1), "normal")
    form = AnalyticForm(1, 0, [x1], name="x")
    c = chain.interpolate(form)
    d = chain.apply_d(0, c)
    assert np.allclose(d, 0.25, atol=1e-14)


def test_weighted_adjointness():
    """<d a, b>_{M_{p+1}} = <a, d*_V b>_{M_p} to solver roundoff."""
    m = generate_mesh(DomainSpec.disk(1.0), 0.3)
    chain = OperatorChain(m, Potential.quadratic(2.0, 2), "tangential")
    rng = np.random.default_rng(4)
    for p in (0, 1):
        worst = 0.0
        for _ in range(25):
            a = rng.standard_normal(chain.dim(p))
            b = rng.standard_normal(chain.dim(p + 1))
            Ma, Mb = chain.mass(p), chain.mass(p + 1)
            lhs = chain.apply_d(p, a) @ (Mb @ b)
            rhs = a @ (Ma @ chain.apply_codifferential(p + 1, b))
            worst = max(worst, abs(lhs - rhs) / np.sqrt((a @ (Ma @ a)) * (b @ (Mb @ b))))
        assert worst <= 1e-10


def test_codifferential_of_dx_is_flat():
    """1D, V = 0: d* of the interpolant of dx vanishes at interior vertices O(h)."""
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 32)
    chain = OperatorChain(m, Potential.zero(1), "tangential")
    beta = np.full(chain.dim(1), 1 / 32)
    dstar = chain.apply_codifferential(1, beta)
    assert np.abs(dstar).max() <= 1 / 32


def test_supersymmetry_matrix_identity():
    m = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.3)
    for realization in ("tangential", "normal"):
        chain = OperatorChain(m, Potential.linear(0.6, 2), realization)
        rng = np.random.default_rng(1)
        for p in (0, 1):
            op_lo, op_hi = chain.operator(p), chain.operator(p + 1)
            D = chain.d_matrix(p)
            for _ in range(5):
                x = rng.standard_normal(chain.dim(p))
                r = op_hi.op_matvec(D @ x) - D @ op_lo.op_matvec(x)
                assert np.linalg.norm(r) <= 1e-10 * max(
                    np.linalg.norm(op_lo.op_matvec(x)), 1e-30)


def test_stiffness_semidefinite():
    m = generate_mesh(DomainSpec.disk(1.0), 0.35)
    chain = OperatorChain(m, Potential.quadratic(1.0, 2), "tangential")
    rng = np.random.default_rng(9)
    for p in (0, 1, 2):
        op = chain.operator(p)
        for _ in range(10):
            x = rng.standard_normal(op.dim)
            assert x @ op.stiff_matvec(x) >= -1e-10 * float(x @ (op.M @ x))


def test_top_degree_up_block_is_zero():
    """The top degree has no d: its up-block is the zero matrix, so its
    stiffness is the down-block alone, as a matrix and as an action."""
    chain = OperatorChain(generate_mesh(DomainSpec.disk(1.0), 0.35),
                          Potential.quadratic(1.0, 2), "normal")
    op = chain.operator(2)
    assert not op.has_up and op.up_stiff.shape == (op.dim, op.dim) and op.up_stiff.nnz == 0
    x = np.random.default_rng(3).standard_normal(op.dim)
    B = chain.d_matrix(1).T @ op.M
    down = B.T @ chain.mass_solve(1, B @ x)
    assert np.allclose(op.stiff_matvec(x), down, rtol=1e-12, atol=0)
    assert np.allclose(op.stiffness_dense() @ x, down, rtol=1e-9, atol=1e-9 * np.abs(down).max())


@pytest.mark.parametrize("b", ["normal", "tangential"])
@pytest.mark.parametrize("domain, h, pot", [
    (DomainSpec.disk(1.0), 0.3, Potential.quadratic(1.0, 2)),
    (DomainSpec.interval(0.0, 1.0), 1 / 16, Potential.quadratic(1.5, 1)),
])
def test_top_degree_mass_solve_is_lu_solve(domain, h, pot, b):
    """At the top degree mass_solve divides by the diagonal mass; that is
    bit for bit the sparse LU solve, for a vector and for a block."""
    chain = OperatorChain(generate_mesh(domain, h), pot, b)
    p = domain.ambient_dim
    lu = sparse_lu(chain.mass(p))
    rng = np.random.default_rng(5)
    x, X = rng.standard_normal(chain.dim(p)), rng.standard_normal((chain.dim(p), 3))
    assert np.array_equal(chain.mass_solve(p, x), lu.solve(x))
    assert np.array_equal(chain.mass_solve(p, X), lu.solve(X))
    assert p not in chain._factor    # no factorization was made


def test_realization_rules():
    m = generate_mesh(DomainSpec.disk(1.0), 0.4)
    V = Potential.quadratic(1.0, 2)
    op = OperatorChain(m, V, "normal").operator(0)
    assert op.dim == m.vertex_coords.shape[0]  # normal: no essential constraint
    opt = OperatorChain(m, V, "tangential").operator(0)
    assert opt.dim == int((~m.boundary_marker[0]).sum())
    # normal keeps every DOF at every degree: n w = 0 is a natural condition
    assert OperatorChain(m, V, "normal").operator(1).dim == m.num(1)
    with pytest.raises(UnsupportedRealizationError):
        OperatorChain(m, V, "neumann")
    # boundaryless domains: the none realization is unconstrained at every degree
    t = generate_mesh(DomainSpec.flat_torus(1.0, 1.0), 0.4)
    op = OperatorChain(t, Potential.zero(2), "none").operator(1)
    assert op.dim == t.num(1)


def test_dual_problem_map():
    V = Potential.quadratic(1.0, 2)
    p, b, W = dual_problem(1, "normal", V, n=2)
    assert (p, b) == (1, "tangential")
    x = np.array([[0.2, 0.3]])
    assert np.isclose(W.value(x)[0], -V.value(x)[0])
    V1 = Potential.quadratic(1.0, 1)
    assert dual_problem(0, "normal", V1, n=1)[:2] == (1, "tangential")
    assert dual_problem(1, "tangential", V1, n=1)[:2] == (0, "normal")


def test_conjugation_similarity_spectrum():
    """Flat Witten matrix E^{1/2} L E^{-1/2} shares the weighted spectrum."""
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 16)
    V = Potential.quadratic(2.0, 1)
    chain = OperatorChain(m, V, "normal")
    op = chain.operator(0)
    L = np.linalg.solve(op.M.toarray(), op.stiffness_dense())
    E = np.diag(np.exp(-V.value(m.vertex_coords)))
    Es = np.sqrt(E)
    W = Es @ L @ np.linalg.inv(Es)
    a = np.sort(np.linalg.eigvals(L).real)
    b = np.sort(np.linalg.eigvals(W).real)
    assert np.abs(a - b).max() <= 1e-8 * (1 + np.abs(a).max())


def test_intertwining_negative_control():
    from hodgecheck.spectral import check_intertwining

    m = generate_mesh(DomainSpec.disk(1.0), 0.35)
    V = Potential.quadratic(2.0, 2)
    chain = OperatorChain(m, V, "tangential", 4)
    assert check_intertwining(chain, 0)["residual"] <= 1e-10
    mismatched = OperatorChain(m, V, "tangential", 8)
    assert check_intertwining(chain, 0, upper_chain=mismatched)["residual"] > 1e-10
