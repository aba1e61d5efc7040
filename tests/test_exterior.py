"""Exterior-algebra component operators against brute-force enumeration."""

from itertools import combinations

import numpy as np
import pytest

from hodgecheck import exterior


def test_basis_sizes():
    assert exterior.basis_indices(2, 1) == [(0,), (1,)]
    assert exterior.basis_indices(2, 2) == [(0, 1)]
    assert exterior.num_components(3, 2) == 3
    assert exterior.basis_indices(2, 3) == []


@pytest.mark.parametrize("n", [2, 3])
def test_lift_spectral_mapping(n):
    """Eigenvalues of the lift are exactly the p-fold sums of distinct
    eigenvalues of the base endomorphism."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        ev = np.linalg.eigvalsh(A)
        for p in range(1, n + 1):
            got = np.sort(np.linalg.eigvalsh(exterior.lift_matrix(A, p)))
            expect = np.sort([sum(c) for c in combinations(ev, p)])
            assert np.allclose(got, expect, atol=1e-9)


def test_lift_examples():
    assert np.allclose(exterior.lift_matrix(np.eye(2), 2), [[2.0]])
    assert np.allclose(exterior.lift_matrix(np.diag([3.0, 5.0]), 2), [[8.0]])
    A = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert np.allclose(exterior.lift_matrix(A, 1), A)
    assert exterior.lift_matrix(A, 0).shape == (1, 1)
    assert exterior.lift_matrix(A, 0)[0, 0] == 0.0


def test_lift_batch_equals_stacked_lifts():
    """A batch (m, k, n, n) lifts matrix by matrix."""
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        A = rng.standard_normal((4, 3, n, n))
        for p in range(n + 1):
            batch = exterior.lift_matrix(A, p)
            C = exterior.num_components(n, p)
            assert batch.shape == (4, 3, C, C)
            for idx in np.ndindex(4, 3):
                assert np.array_equal(batch[idx], exterior.lift_matrix(A[idx], p))


def test_lift_linearity():
    rng = np.random.default_rng(5)
    for n, p in [(2, 2), (3, 2), (3, 3)]:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        assert np.allclose(exterior.lift_matrix(A + B, p),
                           exterior.lift_matrix(A, p) + exterior.lift_matrix(B, p),
                           atol=1e-12)


def test_wedge_interior_adjoint():
    rng = np.random.default_rng(2)
    for n, p in [(2, 0), (2, 1), (3, 1), (3, 2)]:
        a = rng.standard_normal(n)
        W = exterior.wedge_covector_matrix(a, p)
        I = exterior.interior_product_matrix(a, p + 1)
        assert np.allclose(W.T, I)


def test_wedge_interior_norm_identity():
    """|a ^ w|^2 + |i_a w|^2 = |a|^2 |w|^2 pointwise."""
    rng = np.random.default_rng(3)
    for n, p in [(2, 1), (3, 1), (3, 2)]:
        a = rng.standard_normal(n)
        w = rng.standard_normal(exterior.num_components(n, p))
        wedge = exterior.wedge_covector_matrix(a, p) @ w
        inter = exterior.interior_product_matrix(a, p) @ w
        assert np.isclose(wedge @ wedge + inter @ inter, (a @ a) * (w @ w))


def test_tangential_projector():
    nu = np.array([0.6, 0.8])
    for p in (0, 1, 2):
        Pt = exterior.tangential_projector(nu, p)
        assert np.allclose(Pt @ Pt, Pt, atol=1e-14)
        assert np.allclose(Pt, Pt.T)
    # 0-forms are purely tangential; 2-forms in n=2 purely normal
    assert np.allclose(exterior.tangential_projector(nu, 0), [[1.0]])
    assert np.allclose(exterior.tangential_projector(nu, 2), [[0.0]])
    P1 = exterior.tangential_projector(nu, 1)
    assert np.allclose(P1 @ nu, 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builders_batch_equals_stacked_calls(n):
    """Every builder applied to a (4, 3, ...) batch returns the stack of its
    single calls, bitwise."""
    rng = np.random.default_rng(17)
    vecs = rng.standard_normal((4, 3, n))
    normals = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
    mats = rng.standard_normal((4, 3, n, n))
    builders = [(exterior.wedge_covector_matrix, vecs),
                (exterior.interior_product_matrix, vecs),
                (exterior.exterior_power_matrix, mats),
                (exterior.tangential_projector, normals),
                (exterior.normal_projector, normals)]
    for build, args in builders:
        for p in range(n + 1):
            batch = build(args, p)
            single = build(args[0, 0], p)
            assert batch.shape == (4, 3) + single.shape
            for idx in np.ndindex(4, 3):
                assert np.array_equal(batch[idx], build(args[idx], p)), (build.__name__, p)
