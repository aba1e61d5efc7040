"""Generalized symmetric eigensolves, kernel projectors, and range solves.

Eigenproblems S x = lambda M x take a dense path up to SPECTRA_CUTOFF and a
sparse one above it (SpectralResult.solver names the one taken):

* "dense-eigh": ``scipy.linalg.eigh`` on the materialized pencil (the
  down-block of S is dense anyway once materialized);
* "eigsh-shift-invert" at a degree without a down block (degree 0, or no
  free DOF below): shift-invert ``eigsh`` on the primal pencil (S_p, M_p),
  whose inverse is one factor of S_up - shift M_p, shift -1e-2;
* "eigsh-mixed" at p >= 1, routed by degree through two exact identities,
  so that no eigensolve factors the indefinite mixed saddle:
  - at the top degree n the Whitney mass M_n is diagonal, so the u-block
    of the shifted mixed saddle (sigma = d*_V u, shift -1e-2 mean diag
    M_n) is eliminated exactly, and shift-invert ``eigsh`` applies
    (S_n - shift M_n)^{-1} through one SPD factor of
    S_up(n-1) - shift M_{n-1} (_shifted_inverse);
  - at 0 < p < n (p = 1 in 2D) supersymmetry gives the spectrum: d and
    d*_V intertwine the Laplacians of one chain, so the nonzero spectrum of
    L^(1) is the union of those of L^(0) and L^(2), carried by D u and
    d*_V w, and its kernel is the b_1 harmonic forms of _kernel_basis
    (_split_eigs).  The two neighbouring spectra are lowest_eigenpairs
    calls themselves, each routed by its own dimension and degree.

Each sparse factor is taken once per eigensolve (_rcm_lu): a reverse
Cuthill-McKee pre-order (George & Liu 1981), then operators.sparse_lu (the
package's one sparse LU, under a symmetric fill-reducing order).  Its solve
is ``eigsh``'s ``OPinv``, so ARPACK never factors on its own, and ARPACK's
vectors and inner products are p-form DOFs with the mass M_p (Lehoucq,
Sorensen & Yang 1998).  A run solves each problem once: lowest_eigenpairs
keeps one spectrum per chain content and degree in the run cache and
serves smaller requests from it, so the p = 0 spectrum a check solved
serves the p = 1 spectrum built on it.

Every spectrum is certified on its own primal pencil: each eigenpair's
residual in the M^{-1}-norm, and its kernel count.  The kernel of L^(p) on
a Whitney chain is the space of discrete harmonic forms, whose dimension is
the Betti number b_p of the chain's cochain complex whatever V is
(OperatorChain.betti: absolute for normal and none, relative for
tangential).  So the first b_p eigenvalues are the kernel: they must sit at
roundoff, |lambda_{b-1}| <= 1e-8 max(lambda_b, 1), else
SolverError("kernel unresolved"), and they are reported as 0.  An
exponentially small eigenvalue above them stays.

Solves on Ran d (solve_on_range) refine on the true residual with one
solver per chain and degree (_range_lu); none factors a mixed saddle.  At
a degree without a down block (degree 0) the solve is exact: S_up
bordered by the kernel basis K, with C = M_p K as a Lagrange multiplier
(Arnold-Falk-Winther, Acta Numerica 2006), [[S_up, C], [C^T, 0]], so that
w is M-orthogonal to K and S w = b up to the part of b along K.  At the
top degree n >= 2 it is (S_n - RANGE_SHIFT M_n)^{-1} through the
eigensolve's elimination (_shifted_inverse), the kernel part of b
deflated before it and of w after it.  At every other degree (0 < p < n,
and the 1D top degree) it is the Hodge split w = D L_{p-1}^{-2} d*_V r +
d*_V L_{p+1}^{-2} D r for r = M_p^{-1} b, through the solvers of degrees
p - 1 and p + 1, so that no factor of degree p is taken.

A kernel basis (kernel_projector, the border and deflations of the range
solves) is built once per chain and degree from the chain's topology,
never by an eigensolve.  At degrees 0 and n it comes from the component
labels of the mesh (_harmonic_basis): the locally constant functions at
degree 0 and M_n^{-1} times the indicators of the components at degree n,
each kept only where it lies in the free DOFs' kernel.  At 0 < p < n with
b_p > 0 (p = 1 on the annulus and the flat torus) it comes from b_1
integer cocycles of a tree-cotree split (_cocycle_basis), made coclosed by
one range solve at degree 0.  A block of right sides is solved in one
call, each column refined until its residual no longer halves and
certified by _certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import runcache
from .operators import AssembledOperator, OperatorChain, column_dots, sparse_lu

__all__ = [
    "SpectralResult",
    "HodgeSplit",
    "SolverError",
    "lowest_eigenpairs",
    "kernel_projector",
    "KernelProjector",
    "hodge_decompose",
    "solve_on_range",
    "check_intertwining",
]

EIGEN_RESIDUAL_TOL = 1e-9
"""lowest_eigenpairs certifies an eigenpair when its residual's M^{-1}-norm
is at most 100 EIGEN_RESIDUAL_TOL (1 + |lambda|)."""

RANGE_SHIFT = -1e-8
"""The shift sigma of the top-degree range solve: each refinement step
contracts the error on a mode lambda by |sigma| / (lambda + |sigma|)."""

SPECTRA_CUTOFF = 300
"""Largest dimension whose spectrum takes "dense-eigh"; above it a spectrum
takes the sparse path of its degree, whatever the chain holds.  A
spectrum needs only its k lowest eigenpairs (k <= 6 in the shipped
configs, at most MAX_EIGEN_COUNT + 1 = 101), so above this a full
O(n^3) eigh costs more than the sparse path, and ARPACK's k < dim always
holds there.  One lowest_eigenpairs call, k = 4, quadratic(1), normal
realization, fresh chain with its masses factored, best of 5, one BLAS
thread, dense path -> sparse path:

    disk      p = 0   dim   91     3.0 ->  6.5 ms
    disk      p = 0   dim  169     7.0 ->  8.7 ms
    disk      p = 0   dim  271    16.5 -> 10.8 ms
    disk      p = 0   dim  397    37.3 -> 12.6 ms
    disk      p = 1   dim  240     9.4 ->  6.9 ms
    disk      p = 1   dim  342    21.0 -> 12.4 ms
    disk      p = 1   dim  462    43.7 -> 21.6 ms
    disk      p = 1   dim 1122   387   -> 25.1 ms
    disk      p = 2   dim  150     4.6 ->  8.9 ms
    disk      p = 2   dim  294    17.0 -> 10.0 ms
    disk      p = 2   dim  486    57.0 -> 13.9 ms
    disk      p = 2   dim  864   246   -> 26.3 ms
    interval  p = 0   dim  129     3.8 ->  3.9 ms
    interval  p = 0   dim  257    12.4 ->  4.3 ms
    interval  p = 0   dim  513    64.4 ->  5.0 ms
    interval  p = 1   dim  128     3.1 ->  4.2 ms
    interval  p = 1   dim  512    64.3 ->  5.6 ms

The p = 1 and p = 2 rows were measured again for the routes of
_split_eigs and the top degree (2-core container, best of two runs of
5); the other rows are older, from a host that read about 20 % slower on
the same dense eigh.  The sparse p = 1 time on the disk includes the
p = 0 and p = 2 spectra it is built on, each on its own path (dense up to
the cutoff).  In 2D the paths cost the same at about 220 (p = 0 and
p = 2) and below 240 (p = 1); the cutoff sits above that range.  On the
interval the crossover is near 130 to 160, but a 1D pencil below the
cutoff costs at most about 20 ms either way.  Eigenvalues of the two paths
agreed to 1.3e-13 relative on the disk and to 9e-12 on the interval,
where the fine levels sit at the pencil's conditioning floor
eps * lambda_top / lambda (lambda_top its largest eigenvalue).
"""


class SolverError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray           # columns, M-orthonormal
    kernel_dim: int                    # b_p of the chain; the first kernel_dim eigenvalues are 0
    residual_norms: np.ndarray
    seed: int
    mesh_h: float
    solver: str

    @property
    def dim(self) -> int:
        return int(self.eigenvectors.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "kernel_dim": int(self.kernel_dim),
            "residuals": [float(v) for v in self.residual_norms],
            "seed": int(self.seed),
            "mesh_h": float(self.mesh_h),
            "solver": self.solver,
            "dim": self.dim,
        }


def _residual_norms(op: AssembledOperator, vals, vecs) -> np.ndarray:
    out = np.empty(len(vals))
    for i, lam in enumerate(vals):
        r = op.stiff_matvec(vecs[:, i]) - lam * (op.M @ vecs[:, i])
        out[i] = np.sqrt(max(0.0, float(r @ op.chain.mass_solve(op.p, r))))
    return out


def _m_orthonormalize(M, vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for i in range(out.shape[1]):
        for j in range(i):
            out[:, i] -= (out[:, j] @ (M @ out[:, i])) * out[:, j]
        nrm = np.sqrt(out[:, i] @ (M @ out[:, i]))
        out[:, i] /= nrm
    return out


def lowest_eigenpairs(op: AssembledOperator, k: int, seed: int = 1234) -> SpectralResult:
    """k smallest eigenpairs of S x = lambda M x with certified residuals
    and kernel count (the module docstring), solved once per problem in a
    run.

    The run cache (see runcache) keeps one spectrum per problem, keyed by
    the chain's content: its complex (by id, held in the value), potential
    key and n, realization and quadrature order, and the degree and
    seed.  A request for no more pairs than the entry holds is served as
    views of its first pairs, without an eigensolve; a request for more
    solves again (_eigenpairs) and replaces the entry.  A spectrum's arrays
    are read-only, since a run may share it.
    """
    if not (1 <= k <= op.dim):
        raise ValueError(f"need 1 <= k <= {op.dim}, got {k}")
    chain = op.chain
    held = runcache.cached(("spectrum", id(chain.cplx), chain.potential.key, chain.potential.n,
                            chain.realization, chain.quad_order, op.p, seed),
                           lambda: {"complex": chain.cplx})
    res = held.get("spectrum")
    if res is None or len(res.eigenvalues) < k:
        res = held["spectrum"] = _eigenpairs(op, k, seed)
    return _leading(res, k)


def _leading(res: SpectralResult, k: int) -> SpectralResult:
    """res itself if it holds k pairs, else views of its first k."""
    if k == len(res.eigenvalues):
        return res
    return replace(res, eigenvalues=res.eigenvalues[:k], eigenvectors=res.eigenvectors[:, :k],
                   residual_norms=res.residual_norms[:k])


def _eigenpairs(op: AssembledOperator, k: int, seed: int) -> SpectralResult:
    """The k smallest eigenpairs, solved and certified: "dense-eigh" when
    op.dim is at most SPECTRA_CUTOFF, else at 0 < p < n with a down block
    the union of the neighbouring spectra (_split_eigs), and otherwise
    shift-invert eigsh (_shift_invert_eigs)."""
    if op.dim <= SPECTRA_CUTOFF:
        vals, vecs = op.pencil()
        vals, vecs, solver = vals[:k], vecs[:, :k], "dense-eigh"
    elif op.has_down and op.has_up:
        vals, vecs = _split_eigs(op, k, seed)
        solver = "eigsh-mixed"
    else:
        vals, vecs, solver = _shift_invert_eigs(op, k, seed)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    vecs = _m_orthonormalize(op.M, vecs)
    res = _residual_norms(op, vals, vecs)
    bad = res > EIGEN_RESIDUAL_TOL * 100 * (1.0 + np.abs(vals))
    if bad.any():
        raise SolverError("eigenpair residuals did not certify", residuals=res)
    b = op.chain.betti(op.p)
    if b:
        scale = max(float(vals[b]), 1.0) if b < len(vals) else 1.0
        if np.abs(vals[:b]).max() > 1e-8 * scale:
            raise SolverError(f"kernel unresolved: b_{op.p} = {b}, but the eigenvalues "
                              f"{vals[:b + 1]} do not sit at roundoff below 1e-8 * {scale:.3e}",
                              residuals=vals[:b + 1])
        vals[:b] = 0.0
    for array in (vals, vecs, res):
        array.flags.writeable = False
    return SpectralResult(vals, vecs, b, res, seed, op.chain.cplx.mesh_size_h, solver)


def _split_eigs(op: AssembledOperator, k: int, seed: int):
    """The k lowest eigenpairs of op at 0 < p < n (p = 1 in 2D) from the
    spectra of its neighbours on the same chain.

    d and d*_V intertwine the Laplacians of one chain (the shared masses
    make it exact), and in 2D every nonzero mode of L^(0) is coexact and
    every one of L^(2) exact.  So the nonzero spectrum of L^(1) is the
    union of theirs: an M-orthonormal eigenvector u of L^(0) with
    eigenvalue lambda gives D u / sqrt(lambda), and one w of L^(2) gives
    d*_V w / sqrt(lambda), both M-normalized.  The kernel is the b_p forms
    of _kernel_basis, valued at their Rayleigh quotients, so the kernel
    count of _eigenpairs still tests them.  Each neighbour q is asked
    (lowest_eigenpairs, so the run's spectrum of that problem serves) for
    b_q + k pairs, capped at dim_q: k nonzero pairs of each are at hand."""
    chain, p = op.chain, op.p
    K = _kernel_basis(op)
    vals, vecs = [column_dots(K, op.stiff_matvec(K))], [K]
    for q, lift in ((p - 1, lambda u: chain.apply_d(p - 1, u)),
                    (p + 1, lambda w: chain.apply_codifferential(p + 1, w))):
        sub = lowest_eigenpairs(chain.operator(q), min(chain.betti(q) + k, chain.dim(q)), seed)
        lam = sub.eigenvalues[sub.kernel_dim:]
        vals.append(lam)
        vecs.append(lift(sub.eigenvectors[:, sub.kernel_dim:]) / np.sqrt(lam))
    vals, vecs = np.concatenate(vals), np.hstack(vecs)
    first = np.argsort(vals, kind="stable")[:k]
    return vals[first], vecs[:, first]


def _shift_invert_eigs(op: AssembledOperator, k: int, seed: int):
    """The k eigenpairs of the pencil (S_p, M_p) nearest a shift sigma, by
    shift-invert eigsh on the p-form DOFs, and the solver label.

    Without a down block (degree 0, or no free DOF below) OPinv is
    (S_up - sigma M_p)^{-1}, sigma = -1e-2: "eigsh-shift-invert".  At the
    top degree n it is _shifted_inverse at sigma = -1e-2 mean diag M_n:
    "eigsh-mixed".  Either way one SPD factor (_shifted_solver) serves every
    solve, and only it, M_p and ARPACK's workspace live while ARPACK
    iterates.  The start vector is the p-form part of a seeded vector of
    length dim_{n-1} + dim_n at the top degree, dim_p otherwise; A is never
    applied in this mode."""
    n, chain = op.dim, op.chain
    if op.has_down:
        sigma = -1e-2 * float(np.mean(op.M.diagonal()))
        opinv = _shifted_inverse(op, sigma)
        nlow, solver = chain.dim(op.p - 1), "eigsh-mixed"
    else:
        sigma, nlow, solver = -1e-2, 0, "eigsh-shift-invert"
        opinv = _shifted_solver(op.up_stiff - sigma * op.M)
    v0 = np.random.default_rng(seed).standard_normal(nlow + n)[nlow:]
    try:
        vals, vecs = spla.eigsh(spla.LinearOperator((n, n), matvec=op.stiff_matvec, dtype=float),
                                k=k, M=op.M.tocsr(), sigma=sigma, which="LM", v0=v0,
                                maxiter=500,
                                OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float))
    except spla.ArpackNoConvergence as e:
        raise SolverError(f"eigensolver hit the iteration cap: {e}",
                          residuals=getattr(e, "eigenvalues", None)) from e
    return vals, vecs, solver


def _shifted_inverse(op: AssembledOperator, sigma: float):
    """y -> (S_n - sigma M_n)^{-1} y at the top degree n, y one vector or a
    (dim, m) block.  S_up is zero there and M_n diagonal (entries m), so the
    u-block -sigma M_n of the shifted mixed saddle

        [-M_{n-1}   D^T M_n    ] [s]   [0]
        [ M_n D     -sigma M_n ] [u] = [y]

    is eliminated exactly: (S_up(n-1) - sigma M_{n-1}) s = D^T y and
    u = (D s - y/m) / sigma, through one SPD factor (_shifted_solver)."""
    chain, q = op.chain, op.p - 1
    solve = _shifted_solver(chain.up_stiffness(q) - sigma * chain.mass(q))
    D, m = chain.d_matrix(q), op.M.diagonal()

    def inverse(y):
        return (D @ solve(D.T @ y) - (y.T / m).T) / sigma

    return inverse


def _shifted_solver(A):
    """y -> A^{-1} y for a symmetric shifted matrix A (S_up - sigma M),
    from one _rcm_lu factor."""
    lu, perm = _rcm_lu(A)

    def solve(y):
        x = np.empty_like(y)
        x[perm] = lu.solve(y[perm])
        return x

    return solve


def _rcm_lu(A):
    """sparse_lu of the symmetric matrix A under a reverse Cuthill-McKee
    pre-order perm (George & Liu 1981), so the factor is of
    A[perm][:, perm], and perm.  Once permuted, A is freed unless the
    caller holds it."""
    perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    A = A[perm][:, perm]
    return sparse_lu(A), perm


@dataclass
class KernelProjector:
    """M-orthogonal projector onto the kernel of an assembled operator."""

    M: sparse.csr_matrix
    basis: np.ndarray          # columns, M-orthonormal kernel vectors

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The projection of x, one vector or a (dim, m) block, column by
        column: a column of a block reads bit for bit as that column
        projected alone."""
        if self.dim == 0:
            return np.zeros_like(x)
        if x.ndim == 1:
            return self.basis @ (self.basis.T @ (self.M @ x))
        out = np.empty(x.shape)
        for j in range(x.shape[1]):
            out[:, j] = self.apply(np.ascontiguousarray(x[:, j]))
        return out

    def complement(self, x: np.ndarray) -> np.ndarray:
        return x - self.apply(x)


def _kernel_basis(op: AssembledOperator) -> np.ndarray:
    """An M-orthonormal basis of the kernel of op, b_p columns, from the
    chain's topology: _harmonic_basis at degrees 0 and n, _cocycle_basis
    between them; empty when b_p = 0.  Kept read-only on the chain, which
    builds it once per degree."""
    chain, p = op.chain, op.p
    if p not in chain._kernel:
        b = chain.betti(p)
        K = (np.zeros((op.dim, 0)) if b == 0 else _harmonic_basis(op, b)
             if p in (0, chain.cplx.dim) else _cocycle_basis(chain))
        K.flags.writeable = False
        chain._kernel[p] = K
    return chain._kernel[p]


def _harmonic_basis(op: AssembledOperator, b: int) -> np.ndarray:
    """The b harmonic forms of op at degree 0 or n, from the component
    labels of its complex.  Y holds the indicator of each component on the
    free DOFs (a top simplex takes the label of its first vertex).  At
    degree 0 the kernel is spanned by the columns with D_0 Y = 0; at degree
    n by M_n^{-1} Y for the columns with D_{n-1}^T Y = 0, since then
    d*_V (M_n^{-1} Y) = M_{n-1}^{-1} D_{n-1}^T Y = 0 (top simplices are
    stored positively oriented, so the facets inside a component cancel).
    Both tests are exact in integers.  A count other than b raises
    SolverError."""
    chain, p = op.chain, op.p
    labels = chain.cplx.component_labels()
    own = labels[chain.cplx.simplices[p][:, 0]][chain.free_dofs(p)]
    Y = (own[:, None] == np.arange(labels.max() + 1)).astype(np.int64)
    image = chain.d_matrix(0) @ Y if p == 0 else chain.d_matrix(p - 1).T @ Y
    keep = Y.any(axis=0) & ~(image != 0).any(axis=0)
    K = Y[:, keep].astype(float)
    if K.shape[1] != b:
        raise SolverError(f"harmonic basis: {K.shape[1]} closed {p}-forms from the "
                          f"components, but b_{p} = {b}")
    return _m_orthonormalize(op.M, chain.mass_solve(p, K) if p else K)


def _cocycle_basis(chain: OperatorChain) -> np.ndarray:
    """The b_1 harmonic 1-forms of a 2D chain: eta = Z - d U for the
    integer cocycles Z of _cocycles, with L^(0) U = d*_V Z, so that
    d eta = 0 exactly and d*_V eta = 0 to the range solve's certificate;
    M-orthonormalized."""
    eta = _cocycles(chain).astype(float)
    if chain.dim(0):
        eta -= chain.apply_d(0, solve_on_range(chain.operator(0),
                                                chain.apply_codifferential(1, eta)))
    return _m_orthonormalize(chain.mass(1), eta)


def _cocycles(chain: OperatorChain) -> np.ndarray:
    """b_1 integer 1-cocycles, one per cohomology generator, from a
    tree-cotree split of the free DOFs (Eppstein, SODA 2003) that reads D_0
    and D_1 alone, as an int64 (dim_1, b_1) array.

    T is a spanning forest of the free vertices and edges plus a ground node
    (the boundary vertices, under tangential); C one of the triangles and the
    edges not in T plus an outside node (across the free boundary edges,
    under normal).  The edges in neither are the generators.  Z is 1 on its
    generator, 0 on T and the other generators, and on C the values that
    make D_1 Z = 0: the rows of D_1 on C, one root row dropped per dual tree,
    form a unimodular square system.  A generator count other than b_1, or
    a rounded Z with D_1 Z != 0 in integers, raises SolverError."""
    D0, D1 = chain.d_matrix(0), chain.d_matrix(1)
    nv, nt = D0.shape[1], D1.shape[0]
    tree, _ = _spanning_forest(_graph_ends(D0), nv + 1)
    rest = np.nonzero(~tree)[0]
    in_cotree, labels = _spanning_forest(_graph_ends(D1.T.tocsr()[rest]), nt + 1)
    cotree = np.zeros_like(tree)
    cotree[rest[in_cotree]] = True
    gens = np.nonzero(~tree & ~cotree)[0]
    b = chain.betti(1)
    if len(gens) != b:
        raise SolverError(f"tree-cotree split: {len(gens)} generator(s), but b_1 = {b}")
    Z = np.zeros((D1.shape[1], b), dtype=np.int64)
    Z[gens, np.arange(b)] = 1
    cot = np.nonzero(cotree)[0]
    if len(cot):
        last = np.unique(labels[::-1], return_index=True)[1]
        keep = np.setdiff1d(np.arange(nt), nt - last)   # the last node of a tree is its root
        rhs = -D1[keep][:, gens].toarray().astype(float)
        Z[cot] = np.rint(spla.spsolve(D1[keep][:, cot].tocsc().astype(float), rhs)
                         .reshape(len(cot), b))
    if (D1 @ Z != 0).any():
        raise SolverError("tree-cotree split: a rounded cocycle has D_1 Z != 0")
    return Z


def _graph_ends(A) -> np.ndarray:
    """The two nodes each row of the incidence matrix A (rows the graph's
    edges, a CSR matrix) joins, as an (m, 2) array, where the node
    A.shape[1] takes minus the row sum: a row with no entry is a loop at it.
    A row with other than two entries raises SolverError."""
    A = sparse.hstack([A, sparse.csr_matrix(-A.sum(axis=1))], format="csr")
    A.eliminate_zeros()
    count = np.diff(A.indptr)
    if ((count != 0) & (count != 2)).any():
        raise SolverError("tree-cotree split: a row of the incidence matrix is no graph edge")
    ends = np.full((A.shape[0], 2), A.shape[1] - 1)
    two = np.nonzero(count)[0]
    ends[two] = A.indices[A.indptr[two][:, None] + [0, 1]]
    return ends


def _spanning_forest(ends, nnodes):
    """Mask of the edges in a spanning forest of the graph whose edges join
    the node pairs ends (the first of parallel edges; no loops), and the
    component label of each node."""
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    _, first = np.unique(lo * nnodes + hi, return_index=True)
    first = first[lo[first] != hi[first]]
    graph = sparse.csr_matrix((first + 1.0, (lo[first], hi[first])), shape=(nnodes, nnodes))
    forest = csgraph.minimum_spanning_tree(graph)   # the weight e + 1 names edge e
    mask = np.zeros(len(ends), dtype=bool)
    mask[forest.data.astype(np.int64) - 1] = True
    return mask, csgraph.connected_components(forest, directed=False)[1]


def kernel_projector(op: AssembledOperator) -> KernelProjector:
    """Projector onto the kernel of op: its b_p harmonic forms
    (_kernel_basis), empty when b_p = 0."""
    return KernelProjector(op.M, _kernel_basis(op))


def solve_on_range(op: AssembledOperator, rhs: np.ndarray, tol: float = 1e-11,
                   kernel: KernelProjector | None = None) -> np.ndarray:
    """Solve L^(p) w = rhs for rhs in Ran d, with w orthogonal to the kernel.

    rhs is one vector or a (dim, m) block of m right sides, and w has its
    shape.  Solves S w = M rhs by iterative refinement on the true residual
    with _range_lu, which inverts every mode above the chain's kernel
    however small its eigenvalue; each iterate is projected off ``kernel``
    when one is given.  Each column is refined until its residual no longer
    falls below half its last value and keeps its iterate of least
    residual.  That residual's M^{-1}-norm, kernel components deflated
    (_certificate), must be at most tol times that of b = M rhs, else
    SolverError names the column.  All columns still refining share each
    solve.  A right side with a part along the kernel (a kernel part
    without a projector) fails the test.
    """
    rhs = np.asarray(rhs, dtype=float)
    B = op.M @ rhs.reshape(op.dim, -1)

    def project(x):
        return kernel.complement(x) if kernel is not None and kernel.dim else x

    target = tol * np.sqrt(np.maximum(column_dots(B, op.chain.mass_solve(op.p, B)), 1e-300))
    solve = _range_lu(op)
    X = project(solve(B))
    R, res = _certificate(op, B, X, project)
    active = np.arange(B.shape[1])
    while active.size:
        trial = X[:, active] + project(solve(R))
        R, new = _certificate(op, B[:, active], trial, project)
        better = new < res
        X[:, active[better]] = trial[:, better]     # each column keeps its best iterate
        falling, best = new < res / 2, np.minimum(new, res)
        failed = ~falling & (best > target[active])
        if failed.any():
            j = int(np.argmax(failed))
            where = f" (column {active[j]})" if rhs.ndim == 2 else ""
            raise SolverError(f"range solve did not certify{where}: residual {best[j]:.2e} "
                              f"above {target[active[j]]:.2e}", residuals=best[failed])
        active, R, res = active[falling], R[:, falling], new[falling]
    return X if rhs.ndim == 2 else X[:, 0]


def _range_lu(op: AssembledOperator):
    """B -> W, about S_p^+ B for right sides B of shape (dim, m), by the
    route of op's degree (the module docstring): the part of B along the
    chain's kernel is dropped, every other mode inverted, and W is
    M-orthogonal to the kernel.  Built once per chain and degree
    (OperatorChain._range), as a closure that holds no chain."""
    chain, p, up = op.chain, op.p, op.has_up
    if p in chain._range:
        return chain._range[p]
    kernel = kernel_projector(op)
    if not op.has_down:
        A, K = op.up_stiff, kernel.basis
        if K.shape[1]:
            C = sparse.csr_matrix(op.M @ K)
            A = sparse.bmat([[A, C], [C.T, None]])
        lu, dim = sparse_lu(A), op.dim

        def solve(B):
            full = np.zeros((lu.shape[0], B.shape[1]))
            full[:dim] = B
            return lu.solve(full)[:dim]
    elif not up and p > 1:
        inverse, m = _shifted_inverse(op, RANGE_SHIFT), op.M.diagonal()[:, None]

        def solve(B):   # the inverse would scale the kernel part of B by 1/|sigma|
            return kernel.complement(inverse(B - m * kernel.apply(B / m)))
    else:
        low, D, Mlow = _range_lu(chain.operator(p - 1)), chain.d_matrix(p - 1), chain.mass(p - 1)
        if up:
            high, Dp, Mhigh = _range_lu(chain.operator(p + 1)), chain.d_matrix(p), chain.mass(p + 1)
            mass_lu = chain.mass_factor(p)

        def solve(B):
            W = D @ low(Mlow @ low(D.T @ B))
            if up:
                Y = high(Mhigh @ high(Mhigh @ (Dp @ mass_lu.solve(B))))
                W += mass_lu.solve(Dp.T @ (Mhigh @ Y))
            return kernel.complement(W)
    chain._range[p] = solve
    return solve


def _certificate(op: AssembledOperator, B, X, project):
    """True residuals R = B - S X and their certified norms sqrt(z.Mz), one
    per column, where z = M^{-1} r with kernel components deflated (not
    r.z, which cancels when r lies almost wholly in the kernel)."""
    R = B - op.stiff_matvec(X)
    Z = project(op.chain.mass_solve(op.p, R))
    return R, np.sqrt(column_dots(Z, op.M @ Z))


@dataclass
class HodgeSplit:
    kernel_part: np.ndarray
    exact_part: np.ndarray
    coexact_part: np.ndarray
    recomposition_residual: float | np.ndarray
    orthogonality_residuals: tuple | np.ndarray = field(default_factory=tuple)


_PAIRS = ((0, 1), (0, 2), (1, 2))   # (kernel, exact), (kernel, coexact), (exact, coexact)


def hodge_decompose(X: np.ndarray, op: AssembledOperator, kernel: KernelProjector) -> HodgeSplit:
    """Split a cochain of degree op.p into kernel + d(d*_V v) + d*_V(d v) parts.

    v solves the operator equation on the complement of ``kernel`` (op's
    kernel_projector), so the exact part is d(d*_V v), the coexact d*_V(d v).
    X of shape (dim, m) splits m cochains in one range solve; then
    the parts are blocks, recomposition_residual holds one value per column
    and orthogonality_residuals is a (3, m) array over the pairs (kernel,
    exact), (kernel, coexact) and (exact, coexact), 0 where a part vanishes.
    A vector keeps the pairs whose parts are both nonzero, as a tuple.
    """
    chain, p = op.chain, op.p
    xk = kernel.apply(X)
    v = solve_on_range(op, X - xk, kernel=kernel)
    if op.has_down:
        exact = chain.apply_d(p - 1, chain.apply_codifferential(p, v))
    else:
        exact = np.zeros_like(X)
    if op.has_up:
        coexact = chain.apply_codifferential(p + 1, chain.apply_d(p, v))
    else:
        coexact = np.zeros_like(X)

    def norm(a):
        return np.sqrt(np.maximum(0.0, column_dots(a, op.M @ a)))

    r = X - (xk + exact + coexact)
    rec = norm(r) / np.maximum(norm(X), 1e-300)
    parts = (xk, exact, coexact)
    norms = [norm(part) for part in parts]
    nonzero = [(norms[i] > 0) & (norms[j] > 0) for i, j in _PAIRS]
    orth = np.array([np.where(ok, np.abs(column_dots(parts[i], op.M @ parts[j]))
                              / np.maximum(norms[i] * norms[j], 1e-300), 0.0)
                     for ok, (i, j) in zip(nonzero, _PAIRS)])
    if X.ndim == 1:
        rec, orth = float(rec), tuple(float(o) for o, ok in zip(orth, nonzero) if ok)
    return HodgeSplit(*parts, rec, orth)


def check_intertwining(chain: OperatorChain, p: int, n_samples: int = 10,
                       seed: int = 1234, upper_chain: OperatorChain | None = None) -> dict:
    """Relative residual of L^(p+1) D_p - D_p L^(p) over random cochains.

    Exact (solver roundoff) when both operators share the degree-(p+1) mass
    matrix; passing a separately assembled ``upper_chain`` with different
    quadrature breaks the shared mass and serves as the negative control.
    """
    upper = upper_chain if upper_chain is not None else chain
    op_lo = chain.operator(p)
    op_hi = upper.operator(p + 1)
    D = chain.d_matrix(p)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(chain.dim(p))
        Lx = op_lo.op_matvec(x)
        lhs = op_hi.op_matvec(D @ x)
        rhs = D @ Lx
        scale = max(np.linalg.norm(Lx), 1e-300)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / scale))
    return {"residual": worst, "p": p, "samples": n_samples,
            "matched_masses": upper_chain is None}
