"""Pointwise endomorphisms of Lambda^p: curvature lift fields, boundary operators.

Everything is expressed in the global Cartesian frame of the flat ambient
space, where the local orthonormal frames collapse to the standard basis;
this is the package's scope boundary: Ric = 0 on every supported domain, so
the Bochner-Weitzenboeck curvature term of the Witten Laplacian is the lift
of 2 Hess f = Hess V alone (``hessian_p``).  Lifts, projectors and wedge
matrices come from ``exterior``, each built once for a whole batch of
points; no function here loops over points.

Boundary operators, with outward unit normal nu, tangent T, scalar shape
operator K1 (so grad_T nu = -K1 T, convex <=> K1 <= 0):

* normal realization:  K_n^(p) = Pi_t lift_p(-K1 T T^T) Pi_t, which acts on
  tangential traces as the derivation lift of w -> w(grad_{X^T} nu);
* tangential realization: on normal forms nu^b ^ tau,
  K_t^(p)(nu^b ^ tau) = nu^b ^ (-Tr(K1) tau + lift_{p-1}(K1 T T^T) tau),
  reducing to -(Tr K1) w(nu) at p = 1 and vanishing identically at p = n = 2
  (degenerate slots evaluate to zero rather than erroring).

Both vanish on 0-forms and on 1D domains (the boundary is points).  They
are (m, C, C) arrays at the m points of one boundary rule, not fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior
from .potentials import Potential

__all__ = [
    "EndomorphismField",
    "PositivityViolationError",
    "lift_endomorphism",
    "hessian_p",
    "bakry_emery_tensor",
    "boundary_operator",
    "invert_endo_field",
    "restricted_min_eig",
]

POSITIVITY_TOL = 1e-10  # smallest eigenvalue a field required positive definite may have


class PositivityViolationError(ValueError):
    """A field required positive definite failed at a sampled point."""

    def __init__(self, point, min_eig, tol):
        self.point = np.asarray(point)
        self.min_eig = float(min_eig)
        self.tol = float(tol)
        super().__init__(
            f"positivity violated: min eigenvalue {min_eig:.4e} < {tol:.1e} "
            f"at point {np.array2string(self.point, precision=4)}")


def _symmetric(mats: np.ndarray, name: str) -> np.ndarray:
    """mats, a (m, C, C) batch, once it is symmetric to 1e-12 of its largest
    entry (plus one); raises ValueError naming it otherwise."""
    sym_dev = np.abs(mats - mats.transpose(0, 2, 1)).max(initial=0.0)
    if sym_dev > 1e-12 * (1.0 + np.abs(mats).max(initial=0.0)):
        raise ValueError(f"field {name} not symmetric: deviation {sym_dev:.2e}")
    return mats


@dataclass
class EndomorphismField:
    """x -> symmetric matrix on Lambda^p components in the Cartesian frame."""

    degree: int
    n: int
    evaluator: callable                  # (m, n) points -> (m, C, C)
    name: str = "field"

    @property
    def num_components(self) -> int:
        return exterior.num_components(self.n, self.degree)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.evaluator(points), dtype=float)
        C = self.num_components
        if out.shape != (points.shape[0], C, C):
            raise ValueError(f"evaluator returned {out.shape}, expected ({points.shape[0]},{C},{C})")
        return _symmetric(out, self.name)

    def quadratic(self, points: np.ndarray, comps: np.ndarray) -> np.ndarray:
        return np.einsum("mi,mij,mj->m", comps, self.evaluate(points), comps)

    def min_eigenvalues(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self.evaluate(points))[:, 0]


def lift_endomorphism(field: EndomorphismField, p: int) -> EndomorphismField:
    """(A)^(p): sum over wedge slots of the 1-form endomorphism A."""
    if field.degree != 1:
        raise ValueError("lift starts from a degree-1 field")
    if not (0 <= p <= field.n):
        raise ValueError(f"lift degree p={p} out of range")
    return EndomorphismField(p, field.n,
                             lambda x, f=field: exterior.lift_matrix(f.evaluate(x), p),
                             f"lift{p}({field.name})")


def hessian_p(potential: Potential, p: int) -> EndomorphismField:
    """Lift of the pointwise Hessian of V to Lambda^p (zero at p = 0)."""
    base = EndomorphismField(1, potential.n, lambda x: potential.hess(x),
                             f"Hess[{potential.name}]")
    return lift_endomorphism(base, p)


def _admissible_N(N: float, n: int, constant: bool) -> bool:
    """The N band rule in dimension n: N = +inf, N <= 0 or N > n, and
    N = n only under a constant potential."""
    return N == np.inf or N <= 0 or N > n or (N == n and constant)


def bakry_emery_tensor(potential: Potential, N: float) -> EndomorphismField:
    """Ric + Hess V - (1/(N-n)) grad V (x) grad V on 1-forms, with Ric = 0.

    Admissible N: _admissible_N (the correction term is dropped entirely at
    N = +inf, and at N = n, where grad V = 0).
    """
    n = potential.n
    if not _admissible_N(N, n, potential.is_constant):
        raise ValueError(f"N={N} is inadmissible in dimension {n}: it lies in (0, {n}), "
                         "or equals n under a nonconstant potential")

    def evaluator(x):
        H = potential.hess(x)
        if N == np.inf or N == n:
            return H
        g = potential.grad(x)
        return H - np.einsum("mi,mj->mij", g, g) / (N - n)

    return EndomorphismField(1, n, evaluator, f"Ric_V,N={N:g}[{potential.name}]")


def _boundary_matrices(b: str, p: int, normals: np.ndarray, k1: np.ndarray) -> np.ndarray:
    m, n = normals.shape
    C = exterior.num_components(n, p)
    if p == 0 or n == 1:
        return np.zeros((m, C, C))
    # n == 2: tangent T = rot90(nu), K1_full = k1 * T T^T
    T = np.column_stack([-normals[:, 1], normals[:, 0]])
    K1_full = k1[:, None, None] * np.einsum("mi,mj->mij", T, T)
    if b == "normal":
        Pt = exterior.tangential_projector(normals, p)
        return Pt @ exterior.lift_matrix(-K1_full, p) @ Pt
    if b == "tangential":
        Cm = exterior.num_components(n, p - 1)
        # Tr K1 = k1: the boundary is a curve
        mid = exterior.lift_matrix(K1_full, p - 1) - k1[:, None, None] * np.eye(Cm)
        W = exterior.wedge_covector_matrix(normals, p - 1)
        return W @ mid @ W.swapaxes(-1, -2)
    raise ValueError(f"boundary operator needs tangential/normal, got {b!r}")


def boundary_operator(b: str, p: int, boundary) -> np.ndarray:
    """K_b^(p) at the quadrature points of a boundary rule, as (m, C, C)
    symmetric matrices in the Cartesian frame.

    ``boundary`` is a ``domains.BoundaryQuadrature``, analytic
    (``boundary_quadrature``) or mesh-attached (``meshing.boundary_geometry``);
    on an empty rule the shape is (0, C, C) with C the number of p-form
    components in the domain's dimension.
    """
    mats = _boundary_matrices(b, p, boundary.normals, boundary.k1)
    return _symmetric(mats, f"K_{b}^{p}")


def invert_endo_field(field: EndomorphismField) -> EndomorphismField:
    """Pointwise inverse; positivity (eigenvalues >= POSITIVITY_TOL) is
    checked at every evaluated point."""

    def evaluator(x):
        mats = field.evaluate(x)
        vals = np.linalg.eigvalsh(mats)
        idx = int(np.argmin(vals[:, 0]))
        if vals[idx, 0] < POSITIVITY_TOL:
            raise PositivityViolationError(np.atleast_2d(x)[idx], vals[idx, 0], POSITIVITY_TOL)
        return np.linalg.inv(mats)

    return EndomorphismField(field.degree, field.n, evaluator, f"inv({field.name})")


def restricted_min_eig(mats: np.ndarray, normals: np.ndarray, p: int,
                       trace: str) -> np.ndarray:
    """Min eigenvalue of each matrix compressed to the tangential/normal trace
    subspace at its boundary point.

    trace="tangential": forms with n w = 0 (the invariant block of K_n);
    trace="normal": forms with t w = 0 (the block entering the K_t terms).
    The subspace has the same dimension at every unit normal; when it is
    trivial every point reports +inf (no constraint).
    """
    proj = (exterior.tangential_projector(normals, p) if trace == "tangential"
            else exterior.normal_projector(normals, p))
    C = proj.shape[-1]
    rank = exterior.num_components(normals.shape[-1] - 1,
                                   p if trace == "tangential" else p - 1)
    if rank == 0:
        return np.full(mats.shape[0], np.inf)
    basis = np.linalg.eigh(proj)[1][..., C - rank:]   # eigenvalue-1 eigenvectors
    return np.linalg.eigvalsh(basis.swapaxes(-1, -2) @ mats @ basis)[:, 0]
