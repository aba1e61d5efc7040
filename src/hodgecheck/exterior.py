"""Componentwise exterior algebra on flat R^n in the global Cartesian frame.

Degree-p forms are represented by their coefficient vectors over the ordered
basis ``e_I = dx_{i1} ^ ... ^ dx_{ip}`` with ``I`` running over increasing
index tuples.  All operators on forms (wedge with a covector, interior
product, derivation lifts, exterior powers) become small dense
matrices on those coefficient vectors, which is what the quadrature-point
evaluators in the rest of the package consume.  Every builder that takes a
covector, vector, normal or matrix also takes a batch of them (leading axes
``...``) and returns the stack of the single-call matrices, so boundary and
quadrature-point code calls each builder once for all of its points.

This is the one module that knows the insertion-sign rule
(``_insertion_sign``): the symbolic calculus of ``analytic_forms`` contracts
with ``wedge_covector_matrix`` and ``interior_product_matrix``, and every
curvature and boundary lift goes through ``lift_matrix``.

The domain modules only use n in {1, 2}; everything here works for any n
since the lift algebra is tested against brute-force enumeration in n = 3.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "basis_indices",
    "num_components",
    "basis_position",
    "wedge_covector_matrix",
    "interior_product_matrix",
    "lift_matrix",
    "exterior_power_matrix",
    "tangential_projector",
    "normal_projector",
]


def basis_indices(n: int, p: int) -> list[tuple[int, ...]]:
    """Ordered basis of Lambda^p(R^n)*: increasing index tuples."""
    if p < 0 or p > n:
        return []
    return list(combinations(range(n), p))


def num_components(n: int, p: int) -> int:
    if p < 0 or p > n:
        return 0
    return comb(n, p)


def basis_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {I: k for k, I in enumerate(basis_indices(n, p))}


def _insertion_sign(idx: int, tup: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Insert idx into the increasing tuple; None if already present."""
    if idx in tup:
        return None
    pos = sum(1 for t in tup if t < idx)
    return (-1) ** pos, tup[:pos] + (idx,) + tup[pos:]


def wedge_covector_matrix(a: np.ndarray, p: int) -> np.ndarray:
    """Matrix of ``w -> a ^ w`` from Lambda^p to Lambda^(p+1).

    ``a`` is the coefficient vector of a 1-form (length n) or a batch
    (..., n) of them.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    src = basis_indices(n, p)
    pos = basis_position(n, p + 1)
    out = np.zeros(a.shape[:-1] + (num_components(n, p + 1), num_components(n, p)))
    for j, I in enumerate(src):
        for idx in range(n):
            ins = _insertion_sign(idx, I)
            if ins is None:
                continue
            sign, J = ins
            out[..., pos[J], j] += sign * a[..., idx]
    return out


def interior_product_matrix(x: np.ndarray, p: int) -> np.ndarray:
    """Matrix of ``w -> i_X w`` from Lambda^p to Lambda^(p-1) for the vector X
    (or a batch (..., n) of vectors).

    Pointwise adjoint of ``wedge_covector_matrix(x_flat, p-1)`` since the
    metric is Euclidean.
    """
    return wedge_covector_matrix(x, p - 1).swapaxes(-1, -2)


def lift_matrix(a: np.ndarray, p: int) -> np.ndarray:
    """Derivation-style lift of a 1-form endomorphism to Lambda^p.

    Acts on decomposable forms as the sum over wedge slots of ``a`` applied
    in each slot; the lift of the Hessian and of the Weitzenboeck/boundary
    operators all go through here.  ``a`` may be one (n, n) matrix or a
    batch (..., n, n), lifted matrix by matrix.  For p = 0 the lift is the
    1x1 zero matrix (empty slot sum).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    src = basis_indices(n, p)
    pos = basis_position(n, p)
    out = np.zeros(a.shape[:-2] + (len(src), len(src)))
    for j, I in enumerate(src):
        for slot in range(p):
            rest = I[:slot] + I[slot + 1:]
            for k in range(n):
                ins = _insertion_sign(k, rest)
                if ins is None:
                    continue
                sign, J = ins
                # a e_{I[slot]} = sum_k a[k, I[slot]] e_k; e_k sits in the
                # replaced slot, and sorting it into place costs
                # (slot - insertion position) transpositions
                out[..., pos[J], j] += sign * (-1) ** slot * a[..., k, I[slot]]
    return out


def exterior_power_matrix(m: np.ndarray, p: int) -> np.ndarray:
    """Matrix of slotwise precomposition with ``m``: (Q w)(X1..Xp) = w(mX1..mXp).

    Entry [I, J] is the (I, J) minor determinant of ``m``, an (n, n) matrix
    or a batch (..., n, n).  Used for the tangential projector on boundary
    traces (exterior power of I - nu nu^T), which is idempotent but is not
    the derivation lift.
    """
    m = np.asarray(m, dtype=float)
    if p == 0:
        return np.ones(m.shape[:-2] + (1, 1))
    src = basis_indices(m.shape[-1], p)
    rows = np.array(src, dtype=int).reshape(len(src), p)
    # minors[..., i, j, :, :] = m[np.ix_(src[i], src[j])]
    return np.linalg.det(m[..., rows[:, None, :, None], rows[None, :, None, :]])


def tangential_projector(nu: np.ndarray, p: int) -> np.ndarray:
    """Projector onto tangential p-forms at a boundary point with unit normal
    nu, or at each of a batch (..., n) of normals.

    Tangential part of a form = its values on tangential vectors only, i.e.
    slotwise precomposition with P = I - nu nu^T.
    """
    nu = np.asarray(nu, dtype=float)
    P = np.eye(nu.shape[-1]) - nu[..., :, None] * nu[..., None, :]
    return exterior_power_matrix(P, p)


def normal_projector(nu: np.ndarray, p: int) -> np.ndarray:
    """Complement of ``tangential_projector``; takes the same batches."""
    n = np.shape(nu)[-1]
    return np.eye(num_components(n, p)) - tangential_projector(nu, p)
