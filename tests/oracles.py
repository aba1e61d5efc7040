"""Independent oracles shared by the test modules."""

from itertools import combinations

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
import sympy as sp

from hodgecheck import exterior
from hodgecheck.analytic_forms import AnalyticForm
from hodgecheck.domains import domain_quadrature
from hodgecheck.meshing import LOCAL_EDGES
from hodgecheck.operators import sparse_lu
from hodgecheck.potentials import _COORDS
from hodgecheck.spectral import SPECTRA_CUTOFF, lowest_eigenpairs
from hodgecheck.whitney import triangle_rule


def fd_oracle_1d(a, b, ne, potential, bc):
    """Conservative finite-difference discretization of -(e^{V}) d/dx (e^{-V} d/dx).

    Midpoint-weight tridiagonal stiffness with a lumped weight mass; a
    deliberately different discretization from the Whitney/consistent-mass
    route, accurate to O(h^2).
    """
    h = (b - a) / ne
    x = a + h * np.arange(ne + 1)
    wmid = potential.weight((x[:-1] + h / 2)[:, None])
    wnode = potential.weight(x[:, None])
    n = ne + 1
    A = np.zeros((n, n))
    for i in range(ne):
        A[i, i] += wmid[i] / h
        A[i + 1, i + 1] += wmid[i] / h
        A[i, i + 1] -= wmid[i] / h
        A[i + 1, i] -= wmid[i] / h
    mass = wnode * h
    mass[0] /= 2
    mass[-1] /= 2
    if bc == "dirichlet":
        A = A[1:-1, 1:-1]
        mass = mass[1:-1]
    vals = dla.eigh(A, np.diag(mass), eigvals_only=True)
    return np.sort(vals)


def edge_table_oracle(cplx):
    """Dict-based triangle -> edge mapping, one triangle at a time.

    Returns (tri_edges, tri_edge_sign, D_1 dense, boundary edge marker,
    boundary vertex marker) for a 2D complex, in the local edge order
    (v0, v1), (v0, v2), (v1, v2); the sign is +1 where the local edge runs
    along the stored edge.  D_1 is assembled from the cyclic boundary
    (v0, v1) + (v1, v2) + (v2, v0), independently of the table's sign rule.
    """
    edges, tris = cplx.simplices[1], cplx.simplices[2]
    edge_pos = {}
    for i, (a, b) in enumerate(edges):
        edge_pos[(a, b)] = (i, 1)
        edge_pos[(b, a)] = (i, -1)
    idx = np.empty(tris.shape, dtype=int)
    sgn = np.empty(tris.shape, dtype=int)
    D1 = np.zeros((len(tris), len(edges)), dtype=int)
    count = np.zeros(len(edges), dtype=int)
    for t, (v0, v1, v2) in enumerate(tris):
        for k, (a, b) in enumerate(((v0, v1), (v0, v2), (v1, v2))):
            idx[t, k], sgn[t, k] = edge_pos[(a, b)]
            count[idx[t, k]] += 1
        for (a, b) in ((v0, v1), (v1, v2), (v2, v0)):
            i, s = edge_pos[(a, b)]
            D1[t, i] += s
    bedge = count == 1
    bvert = np.zeros(len(cplx.vertex_coords), dtype=bool)
    for i in np.nonzero(bedge)[0]:
        bvert[edges[i]] = True
    return idx, sgn, D1, bedge, bvert


def restricted_min_eig_oracle(mats, normals, p, trace):
    """Per-point min eigenvalue of each matrix compressed to the tangential
    (trace="tangential") or normal trace subspace at its boundary point,
    one projector and one eigendecomposition per point; +inf where the
    subspace is trivial."""
    out = np.full(mats.shape[0], np.inf)
    for i in range(mats.shape[0]):
        proj = (exterior.tangential_projector(normals[i], p) if trace == "tangential"
                else exterior.normal_projector(normals[i], p))
        w, v = np.linalg.eigh(proj)
        basis = v[:, w > 0.5]
        if basis.shape[1] == 0:
            continue
        out[i] = np.linalg.eigvalsh(basis.T @ mats[i] @ basis)[0]
    return out


def _insert(idx, tup):
    """Insert idx into the increasing tuple: (sign, tuple), None if present."""
    if idx in tup:
        return None
    pos = sum(1 for t in tup if t < idx)
    return (-1) ** pos, tup[:pos] + (idx,) + tup[pos:]


def _basis(n, p):
    return list(combinations(range(n), p))


def exterior_calculus_oracle(form, op, exprs=None):
    """Components of d, d*, i_X or a ^ of an AnalyticForm, one insertion at
    a time with the sign rule written out here.

    op is "d", "codifferential", "interior" or "wedge"; exprs holds
    the vector field (interior) or 1-form (wedge) components.  Each term is
    accumulated coefficient first, so the result is structurally equal to
    the symbolic calculus it checks.
    """
    n, p, comps = form.n, form.degree, form.comps
    xs = _COORDS[:n]
    if op in ("d", "wedge"):
        src = _basis(n, p)
        pos = {J: k for k, J in enumerate(_basis(n, p + 1))}
        out = [sp.Integer(0)] * len(pos)
        for j, I in enumerate(src):
            for i in range(n):
                ins = _insert(i, I)
                if ins is None:
                    continue
                sign, J = ins
                if op == "d":
                    out[pos[J]] += sign * sp.diff(comps[j], xs[i])
                else:
                    out[pos[J]] += sign * exprs[i] * comps[j]
        return out
    if op in ("codifferential", "interior"):
        tgt = _basis(n, p - 1)
        pos_src = {J: k for k, J in enumerate(_basis(n, p))}
        out = [sp.Integer(0)] * len(tgt)
        for kpos, K in enumerate(tgt):
            for i in range(n):
                ins = _insert(i, K)
                if ins is None:
                    continue
                sign, J = ins
                if op == "codifferential":
                    out[kpos] += -sign * sp.diff(comps[pos_src[J]], xs[i])
                else:
                    out[kpos] += sign * exprs[i] * comps[pos_src[J]]
        return out
    raise ValueError(op)


def range_solve_oracle(op, rhs, kernel=None, steps=4):
    """Dense pseudo-inverse solve of S w = M rhs on Ran d: the generalized
    eigendecomposition of (S, M) restricted to the M-orthogonal complement
    of the projector's span (an SVD null space, Jacobi-scaled: Q =
    diag(M)^{-1/2} Y with Y orthonormal, so Q^T M Q stays well conditioned
    under strong weights), with every mode at
    roundoff (at most dim * eps times the largest eigenvalue) dropped and
    the rest inverted, refined `steps` times on the true residual.  The
    cutoff is the oracle's own, independent of the Betti count that
    borders solve_on_range; on the cases compared here the modes it drops
    are exactly the kernel the border holds."""
    S, M = op.stiffness_dense(), op.M.toarray()
    scale = 1.0 / np.sqrt(np.diag(M))
    Q = np.eye(op.dim)
    if kernel is not None and kernel.dim:
        Q = dla.null_space((M @ kernel.basis).T * scale)
    Q = scale[:, None] * Q
    vals, vecs = dla.eigh(Q.T @ S @ Q, Q.T @ M @ Q)
    roundoff = op.dim * np.finfo(float).eps * abs(vals[-1])
    start = int(np.searchsorted(vals, roundoff, side="right"))
    V, inv = Q @ vecs[:, start:], 1.0 / vals[start:]
    b = op.M @ np.asarray(rhs, dtype=float)
    w, r = np.zeros_like(b), b
    for _ in range(1 + steps):
        w = w + V @ (inv * (V.T @ r))
        r = b - op.stiff_matvec(w)
    return w


def kernel_probe_oracle(op, b, probes=6):
    """The kernel basis an eigensolve finds: the first b eigenvectors of the
    lowest max(probes, b + 1) eigenpairs of op.  Up to SPECTRA_CUTOFF they
    come from lowest_eigenpairs (dense eigh; it certifies their residuals
    and that the first b sit at roundoff); above it from
    mixed_saddle_eigs_oracle, since lowest_eigenpairs builds a p = 1
    spectrum on the kernel basis under test."""
    k = min(op.dim, max(probes, b + 1))
    if op.dim <= SPECTRA_CUTOFF:
        return lowest_eigenpairs(op, k).eigenvectors[:, :b]
    return mixed_saddle_eigs_oracle(op, k)[1][:, :b]


def shifted_mixed_saddle(op, shift):
    """The mixed saddle of a degree p >= 1 with a down block under a shift:

        [-M_{p-1}   D^T M_p          ]
        [ M_p D     S_up - shift M_p ],

    whose u-block solve for the right side (0, y) is (S_p - shift M_p)^{-1} y
    (its sigma block, the first dim_{p-1} rows, is d*_V u)."""
    chain, p = op.chain, op.p
    B = (chain.d_matrix(p - 1).T @ op.M).T.tocsr()
    return sparse.bmat([[-chain.mass(p - 1).tocsr(), B.T],
                        [B, chain.up_stiffness(p) - shift * op.M]], format="csc")


def mixed_saddle_eigs_oracle(op, k, seed=1234):
    """Eigenvalues (ascending) and M-orthonormal eigenvectors of the k
    pairs of (S_p, M_p) nearest the shift -1e-2 mean diag M_p, for p >= 1
    with a down block, by shift-invert eigsh on the p-form DOFs whose OPinv
    is the u-block of one factor of shifted_mixed_saddle (a reverse
    Cuthill-McKee pre-order, then operators.sparse_lu).  The start vector
    is the u-part of a seeded saddle-length vector.  This was the sparse
    route of every p >= 1 spectrum; lowest_eigenpairs no longer factors a
    mixed saddle, so it is an independent cross-check."""
    n = op.dim
    shift = -1e-2 * float(np.mean(op.M.diagonal()))
    A = shifted_mixed_saddle(op, shift)
    nlow = A.shape[0] - n
    perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    lu = sparse_lu(A[perm][:, perm])
    u = np.argsort(perm)[nlow:]

    def opinv(y):
        z = np.zeros(nlow + n)
        z[u] = y
        return lu.solve(z)[u]

    v0 = np.random.default_rng(seed).standard_normal(nlow + n)[nlow:]
    vals, vecs = spla.eigsh(spla.LinearOperator((n, n), matvec=op.stiff_matvec, dtype=float),
                            k=k, M=op.M.tocsr(), sigma=shift, which="LM", v0=v0, maxiter=500,
                            OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float))
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def whitney_mass_oracle(cplx, p, potential, quad_order):
    """Weighted Whitney mass of a 2D complex, the basis tabulated at every
    quadrature point: hat functions lambda_a (p = 0), edge forms
    W_ab = lambda_a grad lambda_b - lambda_b grad lambda_a (p = 1) and
    1/area (p = 2), contracted against rho * w with einsum and summed into
    a CSR matrix over the element DOF pairs."""
    ref, wref = triangle_rule(quad_order)
    ec = cplx.element_coords(2)                       # (nt, 3, 2)
    J = np.stack([ec[:, 1] - ec[:, 0], ec[:, 2] - ec[:, 0]], axis=2)
    detJ = np.linalg.det(J)
    grads = np.einsum("ak,tkx->tax", [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                      np.linalg.inv(J))
    pts = ec[:, None, 0, :] + np.einsum("qk,txk->tqx", ref, J)
    nt, nq = pts.shape[:2]
    rw = potential.weight(pts.reshape(-1, 2)).reshape(nt, nq) * wref * np.abs(detJ)[:, None]
    lam = np.column_stack([1 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]])
    if p == 0:
        loc = np.einsum("tq,qa,qb->tab", rw, lam, lam)
        dofs, size = cplx.simplices[2], cplx.vertex_coords.shape[0]
    elif p == 1:
        W = np.empty((nt, nq, 3, 2))
        for li, (la, lb) in enumerate(LOCAL_EDGES):
            W[:, :, li, :] = (lam[None, :, la, None] * grads[:, None, lb, :]
                              - lam[None, :, lb, None] * grads[:, None, la, :])
        sgn = cplx.tri_edge_sign
        loc = np.einsum("tq,tqax,tqbx->tab", rw, W, W) * sgn[:, :, None] * sgn[:, None, :]
        dofs, size = cplx.tri_edges, cplx.num(1)
    else:
        area = 0.5 * np.abs(detJ)
        loc = (rw.sum(axis=1) / area**2)[:, None, None]
        dofs, size = np.arange(nt)[:, None], nt
    k = dofs.shape[1]
    rows, cols = np.repeat(dofs, k, axis=1).ravel(), np.tile(dofs, (1, k)).ravel()
    return sparse.csr_matrix((loc.ravel(), (rows, cols)), shape=(size, size))


def weighted_laplacian(expr, potential, n):
    """L^(0) u = -Delta u + grad V . grad u of a sympy scalar u in n variables,
    as a sympy expression tree."""
    syms = _COORDS[:n]
    lap = sum(sp.diff(expr, s, 2) for s in syms)
    drift = sum(sp.diff(potential.expr, s) * sp.diff(expr, s) for s in syms)
    return -lap + drift


def weighted_laplacian_one_form(form, potential):
    """L^(1) of a 1-form on a flat domain: componentwise L^(0) plus the
    Hessian action, as an AnalyticForm of sympy expression trees."""
    syms = _COORDS[:form.n]
    out = [weighted_laplacian(comp, potential, form.n)
           + sum(sp.diff(potential.expr, syms[c], syms[k]) * form.comps[k]
                 for k in range(form.n))
           for c, comp in enumerate(form.comps)]
    return AnalyticForm(form.n, 1, out, name=f"L1({form.name})")


def gamma2_oracle(form, potential, domain, quad_order):
    """The five integrals of the gamma2 record from sympy expression trees:
    sp.diff for every derivative and a lambdified evaluator per integrand,
    in the domain's own coordinates.  Returns {lhs, rhs, gamma, dirichlet,
    generator}, the record's lhs, rhs and extras of those names."""
    quad = domain_quadrature(domain, quad_order)
    pts = quad.points
    wgt = potential.weight(pts)
    w = form.comps[0]
    L0w = AnalyticForm(form.n, 0, [weighted_laplacian(w, potential, form.n)])
    gamma = AnalyticForm(form.n, 0, [w * L0w.comps[0] - sp.Rational(1, 2)
                                     * weighted_laplacian(w ** 2, potential, form.n)])
    dw = form.d()
    L1dw = weighted_laplacian_one_form(dw, potential)
    l0 = L0w.components(pts)[:, 0]
    return {
        "gamma": quad.integrate(wgt * gamma.components(pts)[:, 0]),
        "dirichlet": quad.integrate(wgt * dw.norm_sq(pts)),
        "generator": quad.integrate(wgt * l0 * form.components(pts)[:, 0]),
        "lhs": quad.integrate(wgt * l0 ** 2),
        "rhs": quad.integrate(wgt * np.einsum("mc,mc->m", L1dw.components(pts),
                                              dw.components(pts))),
    }
