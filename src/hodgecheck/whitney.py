"""Lowest-order Whitney form assembly on simplicial complexes.

The Whitney spaces are: hat functions (p = 0), edge forms
``W_ab = lambda_a d lambda_b - lambda_b d lambda_a`` (p = 1, 2D) or
per-element constants ``dx / h`` (p = 1, 1D), and per-triangle constants
``dx^dy / area`` (p = 2).  Degrees of freedom are integrals over oriented
simplices, so the discrete exterior derivative is exactly the integer
incidence matrix.

Mass matrices carry the weight exp(-V) via per-element quadrature; they are
consistent (full quadrature), never lumped - lumping breaks the weighted
adjointness identity at order h.  In 2D the p = 0 and p = 1 element
matrices are closed forms in the weighted quadrature sums of
lambda_a lambda_b and the constant barycentric gradients (_mass_2d), so no
basis is tabulated at the quadrature points.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sparse

from .domains import triangle_gauss
from .meshing import LOCAL_EDGES, SimplicialComplex
from .potentials import Potential

__all__ = ["assemble_mass", "interpolate", "AssemblyWarning", "segment_rule", "triangle_rule"]

INTERPOLATION_QUAD_ORDER = 6  # edge and triangle rules of the DOF integrals in interpolate


class AssemblyWarning(UserWarning):
    """Quadrature order too low for the requested potential degree."""


def segment_rule(order: int):
    """Gauss-Legendre on [0, 1]; exact to polynomial degree 2m-1 >= order+2."""
    m = max(2, (int(order) + 4) // 2)
    xg, wg = np.polynomial.legendre.leggauss(m)
    return 0.5 * (xg + 1.0), 0.5 * wg


def triangle_rule(order: int):
    """Collapsed tensor Gauss rule on the reference triangle (area 1/2)."""
    return triangle_gauss(max(2, (int(order) + 4) // 2))


def _check_quadrature_adequacy(potential: Potential, p: int, order: int):
    if order < 2:
        raise ValueError("quad_order >= 2 required for mass assembly")
    basis_deg = 2 if p <= 1 else 0
    if potential.poly_degree is not None and potential.poly_degree > 0:
        needed = basis_deg + potential.poly_degree
        if order + 2 < needed:
            warnings.warn(
                f"quad_order {order} low for potential degree {potential.poly_degree} "
                f"at form degree {p}; mass entries only approximate the weight",
                AssemblyWarning, stacklevel=3)


def _weight_at(potential: Potential, pts: np.ndarray) -> np.ndarray:
    w = potential.weight(pts)
    if not np.all(np.isfinite(w)):
        bad = pts[~np.isfinite(w)][0]
        raise FloatingPointError(f"non-finite weight exp(-V) at {bad}")
    return w


def assemble_mass(cplx: SimplicialComplex, p: int, potential: Potential,
                  quad_order: int = 4) -> sparse.csr_matrix:
    """Weighted mass matrix M_p[i,j] = int <W_i, W_j> exp(-V) dmu."""
    if p < 0 or p > cplx.dim:
        raise ValueError(f"degree p={p} out of range")
    _check_quadrature_adequacy(potential, p, quad_order)
    if cplx.dim == 1:
        return _mass_1d(cplx, p, potential, quad_order)
    return _mass_2d(cplx, p, potential, quad_order)


def _mass_1d(cplx, p, potential, order):
    t, wt = segment_rule(order)
    ec = cplx.element_coords(1)            # (ne, 2, 1)
    a, b = ec[:, 0, 0], ec[:, 1, 0]
    h = b - a
    pts = (a[:, None] + t[None, :] * h[:, None]).reshape(-1, 1)
    rho = _weight_at(potential, pts).reshape(len(a), len(t))
    wq = wt[None, :] * h[:, None]          # physical weights per element
    if p == 1:
        diag = (rho * wq).sum(axis=1) / h**2
        return sparse.diags(diag).tocsr()
    lam = np.column_stack([1 - t, t])      # (nq, 2)
    loc = np.einsum("eq,qa,qb->eab", rho * wq, lam, lam)
    edges = cplx.simplices[1]
    rows = np.repeat(edges, 2, axis=1).reshape(-1)        # a,a,b,b
    cols = np.tile(edges, (1, 2)).reshape(-1)             # a,b,a,b
    vals = loc.transpose(0, 2, 1).reshape(-1)
    nv = cplx.vertex_coords.shape[0]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(nv, nv))


_REF_GRAD = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_LA, _LB = np.array(LOCAL_EDGES).T     # the vertices a, b of each local edge W_ab


def _element_geometry(cplx):
    ec = cplx.element_coords(2)            # (nt, 3, 2)
    J = np.stack([ec[:, 1, :] - ec[:, 0, :], ec[:, 2, :] - ec[:, 0, :]], axis=2)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1] / detJ
    Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
    Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
    Jinv[:, 1, 1] = J[:, 0, 0] / detJ
    grads = _REF_GRAD @ Jinv               # (nt, 3, 2), constant per triangle
    return ec, J, detJ, grads


def _quad_points(ec, J, ref):
    """Physical images (nt, nq, 2) of the reference points ref (nq, 2)."""
    return ec[:, None, 0, :] + ref @ J.transpose(0, 2, 1)


def _mass_2d(cplx, p, potential, order):
    """Closed-form element kernels.  With rw = rho * w at the quadrature
    points, Q[a, b] = sum_q rw lambda_a lambda_b is the local p = 0 matrix,
    and since the barycentric gradients are constant per triangle, with
    G[a, b] = grad lambda_a . grad lambda_b,

        int <W_ab, W_cd> rho = Q[a,c] G[b,d] - Q[a,d] G[b,c]
                               - Q[b,c] G[a,d] + Q[b,d] G[a,c]

    exactly, so no basis is tabulated at the quadrature points."""
    ref, wref = triangle_rule(order)
    ec, J, detJ, grads = _element_geometry(cplx)
    nt, nq = ec.shape[0], ref.shape[0]
    pts = _quad_points(ec, J, ref)
    rho = _weight_at(potential, pts.reshape(-1, 2)).reshape(nt, nq)
    rw = rho * (wref[None, :] * np.abs(detJ)[:, None])
    if p == 2:
        area = 0.5 * np.abs(detJ)
        return sparse.diags(rw.sum(axis=1) / area**2).tocsr()
    lam = np.column_stack([1 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]])
    Q = (rw @ (lam[:, :, None] * lam[:, None, :]).reshape(nq, 9)).reshape(nt, 3, 3)
    if p == 0:
        return _scatter(Q, cplx.simplices[2], cplx.vertex_coords.shape[0])
    G = grads @ grads.transpose(0, 2, 1)   # (nt, 3, 3)
    a, b = _LA[:, None], _LB[:, None]
    c, d = _LA[None, :], _LB[None, :]
    loc = (Q[:, a, c] * G[:, b, d] - Q[:, a, d] * G[:, b, c]
           - Q[:, b, c] * G[:, a, d] + Q[:, b, d] * G[:, a, c])
    sgn = cplx.tri_edge_sign
    loc = loc * sgn[:, :, None] * sgn[:, None, :]
    return _scatter(loc, cplx.tri_edges, cplx.num(1))


def _scatter(loc, dofs, size):
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, k)).reshape(-1)
    vals = loc.transpose(0, 2, 1).reshape(-1)
    M = sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
    return 0.5 * (M + M.T)  # symmetrize away roundoff asymmetry


def interpolate(form, cplx: SimplicialComplex) -> np.ndarray:
    """Canonical Whitney interpolation: DOF integrals of an analytic form.

    p = 0: vertex values; p = 1: oriented edge integrals of the tangential
    component; p = 2: triangle integrals of the density.
    """
    p = form.degree
    if p == 0:
        return form.components(cplx.vertex_coords)[:, 0]
    if p == 1:
        t, wt = segment_rule(INTERPOLATION_QUAD_ORDER)
        ec = cplx.element_coords(1)
        a = ec[:, 0, :]
        d = ec[:, 1, :] - a
        pts = a[:, None, :] + t[None, :, None] * d[:, None, :]
        vals = form.components(pts.reshape(-1, cplx.n)).reshape(len(a), len(t), -1)
        return np.einsum("q,eqx,ex->e", wt, vals, d)
    ref, wref = triangle_rule(INTERPOLATION_QUAD_ORDER)
    ec, J, detJ, _ = _element_geometry(cplx)
    pts = _quad_points(ec, J, ref)
    vals = form.components(pts.reshape(-1, 2)).reshape(ec.shape[0], len(wref))
    return np.einsum("q,tq,t->t", wref, vals, np.abs(detJ))
