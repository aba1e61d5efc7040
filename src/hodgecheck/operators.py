"""Discrete weighted Laplacians under tangential/normal boundary realizations.

The weighted picture keeps the exterior derivative as the plain integer
incidence matrix D_p and confines all distortion to the weighted mass
matrices: the codifferential is the weighted adjoint
``d*_V = M_{p-1}^{-1} D_{p-1}^T M_p`` and the Laplacian action is

    L^(p) x = M_p^{-1} D_p^T M_{p+1} D_p x  +  D_{p-1} M_{p-1}^{-1} D_{p-1}^T M_p x.

On a chain sharing one mass matrix per degree this gives the exact matrix
identity ``L^(p+1) D_p = D_p L^(p)`` (supersymmetry), the backbone of the
variance-identity checks.

Realizations: a domain with boundary has tangential and normal, a closed
domain only none; a chain takes the same three words.  The tangential
realization drops DOFs on boundary simplices (t w = 0 strongly;
t d*_V w = 0 arises weakly).  Normal and none keep every DOF: on the
unconstrained Whitney complex the weak codifferential M^{-1} D^T M imposes
n w = 0 and n d w = 0 as natural conditions, so this chain is the normal
realization at every degree (Arnold-Falk-Winther, Acta Numerica 2006).
dual_problem gives the Hodge-star dual (n - p, tangential, -V) that the
duality checks compare the direct assembly against.

Every sparse LU factorization of the package goes through sparse_lu: the
mass factors here (the codifferential, the dense down-block of the
stiffness, the M^{-1}-norms of residuals), the shifted up-blocks
S_up - shift M through which the sparse eigensolvers and the top-degree
range solve of spectral invert their pencils (at degree 0 directly, at the
top degree with the diagonal mass eliminated) and the degree-0 S_up of the
range solves, bordered by the kernel.  All of these matrices are
symmetric, so sparse_lu orders them with a symmetric fill-reducing order.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import runcache
from .meshing import SimplicialComplex, betti_numbers, incidence_matrix
from .potentials import Potential
from .whitney import assemble_mass, interpolate

__all__ = [
    "UnsupportedRealizationError",
    "OperatorChain",
    "AssembledOperator",
    "dual_problem",
    "sparse_lu",
    "column_dots",
]

REALIZATIONS = ("tangential", "normal", "none")
CHAIN_QUAD_ORDER = 4  # mass quadrature of every chain a check builds; its records' quad_order


class UnsupportedRealizationError(ValueError):
    pass


def sparse_lu(A):
    """SuperLU factorization of a sparse symmetric matrix; the package's one splu.

    * ``permc_spec="MMD_AT_PLUS_A"``: minimum degree on the pattern of
      A^T + A.  Every matrix factored here is symmetric (a weighted mass,
      the shifted up-block S_up - shift M of an eigensolve or a top-degree
      range solve, the degree-0 S_up of a range solve, bordered or not),
      and SuperLU's default COLAMD is an order for unsymmetric matrices.
      On the disk at h = 0.05 this order cuts L + U of the p = 1 mass
      (7656 DOFs) from 436 676 to 241 216 nonzeros and that of the normal
      p = 1 mixed saddle under the eigensolve shift (10 267 DOFs) from
      1 375 017 to 1 065 428.  MMD starts from the matrix's own order, so
      a caller may pre-order: spectral._rcm_lu passes the shifted up-blocks
      under a reverse Cuthill-McKee order, and the top-degree one of that
      disk (S_up(1) - shift M_1, 7656 DOFs) fills 201 474 against 241 216.
    * ``relax=1``: no relaxed supernodes.  Under SuperLU's default
      relaxation this order meets a slow case at the same fill: the
      23 880-DOF saddle of the disk suite's duality ladder took 1.8 s to
      factor, against 0.05 s with relax=1 (0.10 s under COLAMD).
    Pivoting keeps SuperLU's default, since the bordered S_up is indefinite.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1)


def column_dots(a: np.ndarray, b: np.ndarray):
    """a @ b for vectors; for (dim, m) blocks the m column products as an
    array, each one a 1-D dot of contiguous columns, so that a column reads
    bit for bit as the product of that column alone."""
    if a.ndim == 1:
        return float(a @ b)
    a, b = np.asfortranarray(a), np.asfortranarray(b)
    return np.array([a[:, j] @ b[:, j] for j in range(a.shape[1])])


class OperatorChain:
    """All degrees of the weighted complex under one boundary realization.

    ``realization`` is tangential, normal or none.  Masses and incidence
    matrices are assembled lazily and shared between the per-degree
    operators, which is what makes the supersymmetry identity exact at the
    matrix level.  The sparse up-blocks of the stiffness, mass
    factorizations, kernel bases and range solvers (spectral) are cached
    beside them, one per degree.  The chain keeps no AssembledOperator: an
    operator refers back to its chain, and that cycle would keep each chain
    and its factorizations alive until the cyclic garbage collector runs.
    The full mass of each degree, before a realization restricts it to its
    free DOFs, is read from the run cache (see runcache), so the chains of
    one run on one mesh assemble it once.
    """

    def __init__(self, cplx: SimplicialComplex, potential: Potential,
                 realization: str = "normal", quad_order: int = CHAIN_QUAD_ORDER):
        if realization not in REALIZATIONS:
            raise UnsupportedRealizationError(f"unknown realization {realization!r}")
        self.cplx = cplx
        self.potential = potential
        self.realization = realization
        self.quad_order = quad_order
        self._mass = {}
        self._up = {}
        self._factor = {}
        self._kernel = {}
        self._range = {}
        self._D = {}
        self._free = {}
        self._betti = None

    # -- degrees of freedom ----------------------------------------------
    def free_dofs(self, p: int) -> np.ndarray:
        if p not in self._free:
            nsimp = self.cplx.num(p)
            if self.realization == "tangential":
                self._free[p] = np.nonzero(~self.cplx.boundary_marker.get(
                    p, np.zeros(nsimp, dtype=bool)))[0]
            else:
                self._free[p] = np.arange(nsimp)
        return self._free[p]

    def dim(self, p: int) -> int:
        return len(self.free_dofs(p))

    def betti(self, p: int) -> int:
        """Dimension of the kernel of L^(p) on this chain, whatever the
        potential and masses (Arnold-Falk-Winther, Acta Numerica 2006): the
        absolute Betti number b_p of the mesh for normal and none, the
        relative one b_p(mesh, boundary) = b_{n-p}(mesh) (Lefschetz duality)
        for tangential, whose free DOFs form the relative cochain complex."""
        if self._betti is None:
            self._betti = betti_numbers(self.cplx)
        return self._betti[self.cplx.dim - p if self.realization == "tangential" else p]

    # -- assembled pieces ---------------------------------------------------
    def mass(self, p: int) -> sparse.csr_matrix:
        if p not in self._mass:
            def assemble():
                M = assemble_mass(self.cplx, p, self.potential, self.quad_order)
                for array in (M.data, M.indices, M.indptr):
                    array.flags.writeable = False   # shared by the chains of a run
                return self.cplx, M   # holding the complex keeps its id from reuse

            _, M = runcache.cached(("mass", id(self.cplx), p, self.potential.key,
                                    self.potential.n, self.quad_order), assemble)
            free = self.free_dofs(p)
            self._mass[p] = M[np.ix_(free, free)].tocsc()
        return self._mass[p]

    def up_stiffness(self, p: int) -> sparse.csr_matrix:
        """D_p^T M_{p+1} D_p, the sparse up-block of the degree-p stiffness;
        the zero matrix at the top degree, which has no d."""
        if p not in self._up:
            if p == self.cplx.dim:
                self._up[p] = sparse.csr_matrix((self.dim(p), self.dim(p)))
            else:
                D = self.d_matrix(p)
                self._up[p] = (D.T @ self.mass(p + 1) @ D).tocsr()
        return self._up[p]

    def mass_factor(self, p: int):
        if p not in self._factor:
            self._factor[p] = sparse_lu(self.mass(p))
        return self._factor[p]

    def mass_solve(self, p: int, b: np.ndarray) -> np.ndarray:
        """M_p^{-1} b for a vector or a (dim, m) block.  The top-degree
        Whitney mass is diagonal (one constant basis form per n-simplex), so
        it divides by the diagonal, bit for bit what its LU solve returns."""
        if p == self.cplx.dim:
            diag = self.mass(p).diagonal()
            return b / (diag if np.ndim(b) == 1 else diag[:, None])
        return self.mass_factor(p).solve(b)

    def d_matrix(self, p: int) -> sparse.csr_matrix:
        if p not in self._D:
            D = incidence_matrix(self.cplx, p)
            self._D[p] = D[np.ix_(self.free_dofs(p + 1), self.free_dofs(p))].tocsr()
        return self._D[p]

    # -- cochain calculus ----------------------------------------------------
    # A p-cochain is the array of its coefficients on free_dofs(p): a vector,
    # or a (dim, m) block of m cochains, one per column.
    def apply_d(self, p: int, x: np.ndarray) -> np.ndarray:
        if p >= self.cplx.dim:
            raise ValueError("apply_d at top degree")
        return self.d_matrix(p) @ x

    def apply_codifferential(self, p: int, x: np.ndarray) -> np.ndarray:
        """Weighted adjoint d*_V = M_{p-1}^{-1} D^T M_p."""
        if p < 1:
            raise ValueError("codifferential at degree 0")
        return self.mass_solve(p - 1, self.d_matrix(p - 1).T @ (self.mass(p) @ x))

    def operator(self, p: int) -> "AssembledOperator":
        return AssembledOperator(self, p)

    def interpolate(self, form) -> np.ndarray:
        """Whitney interpolant of an analytic form on the free DOFs of its degree."""
        return interpolate(form, self.cplx)[self.free_dofs(form.degree)]


class AssembledOperator:
    """Weighted Laplacian at one degree: pencil (S_p, M_p) plus its action.

    The quadratic form is x^T S_p x = ||d x||^2_{M_{p+1}} + ||d*_V x||^2_{M_{p-1}}.
    The up-block D_p^T M_{p+1} D_p is sparse; the down-block
    M_p D M_{p-1}^{-1} D^T M_p is kept as an exact action through the sparse
    mass factorization (it is dense as a matrix).
    """

    def __init__(self, chain: OperatorChain, p: int):
        self.chain = chain
        self.p = p
        cplx = chain.cplx
        self.has_up = p < cplx.dim
        self.has_down = p > 0 and chain.dim(p - 1) > 0

    @property
    def dim(self) -> int:
        return self.chain.dim(self.p)

    @property
    def M(self) -> sparse.csc_matrix:
        """The mass M_p, assembled on first use (an operator whose spectrum
        the run cache already holds assembles nothing)."""
        return self.chain.mass(self.p)

    @property
    def up_stiff(self) -> sparse.csr_matrix:
        return self.chain.up_stiffness(self.p)

    def stiff_matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out += self.up_stiff @ x
        if self.has_down:
            D = self.chain.d_matrix(self.p - 1)
            out += self.M @ (D @ self.chain.mass_solve(self.p - 1, D.T @ (self.M @ x)))
        return out

    def op_matvec(self, x: np.ndarray) -> np.ndarray:
        """Action of L^(p) = M^{-1} S on cochain coefficients."""
        return self.chain.mass_solve(self.p, self.stiff_matvec(x))

    def stiffness_dense(self) -> np.ndarray:
        S = np.zeros((self.dim, self.dim))
        S += self.up_stiff.toarray()
        if self.has_down:
            D = self.chain.d_matrix(self.p - 1)
            B = (D.T @ self.M).toarray()           # (dim_{p-1}, dim_p)
            S += B.T @ self.chain.mass_factor(self.p - 1).solve(B)
        return 0.5 * (S + S.T)

    def pencil(self):
        """Eigenvalues (ascending) and M-orthonormal eigenvectors of the dense
        pencil (S_p, M_p)."""
        return dla.eigh(self.stiffness_dense(), self.M.toarray())


def dual_problem(p: int, b: str, potential: Potential, n: int):
    """Hodge-star dual description of a realization: (n-p, t<->n, -V).

    The weighted star w -> star(exp(-V) w) is unitary from L^2(e^{-V}dmu)
    p-forms to L^2(e^{+V}dmu) (n-p)-forms and intertwines the two
    realizations, so their spectra agree; the duality checks compare the
    direct assembly of (p, b, V) against this dual one.
    """
    if not (0 <= p <= n):
        raise ValueError("degree out of range")
    if b not in ("tangential", "normal"):
        raise UnsupportedRealizationError(f"dual_problem needs tangential/normal, got {b!r}")
    dual_b = "tangential" if b == "normal" else "normal"
    return (n - p, dual_b, potential.negated())
