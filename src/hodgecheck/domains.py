"""Parameterized flat domains, their analytic boundary geometry and quadrature.

Supported domains are flat subsets of R^n (n in {1, 2}) plus the boundaryless
circle and flat torus, which are carried as periodic intervals/squares in
intrinsic flat coordinates.  Boundary normals and curvature always come from
the analytic description, never from a polygonal mesh approximation: the
shape operator sign convention is K1(U) = -grad_U(nu) with outward unit
normal nu, so locally convex boundaries have K1 <= 0 (unit disk: K1 = -1,
annulus inner circle: K1 = +1/r).  This module is the one home of the
disk/annulus layout (``DomainSpec.circles``) and of that sign rule on each
circle (``circle_frame``).

One boundary-rule type, ``BoundaryQuadrature``, serves two families:

* domain_quadrature / boundary_quadrature: rules over the exact analytic
  domain, used by the identity/inequality checkers (mesh independent);
* ``meshing.boundary_geometry``: rules on the boundary facets of a mesh.

``curvature.boundary_operator`` reads either as the (m, C, C) matrices of
K_b^(p) at its m points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainValidationError",
    "DomainSpec",
    "Quadrature",
    "BoundaryQuadrature",
    "domain_quadrature",
    "boundary_quadrature",
    "circle_frame",
    "triangle_gauss",
]

_KINDS = ("interval", "rectangle", "disk", "annulus", "polygon", "circle", "flat_torus")


class DomainValidationError(ValueError):
    """Invalid domain parameters; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class DomainSpec:
    """A parameterized flat domain.

    kind: one of interval, rectangle, disk, annulus, polygon, circle
          (no boundary), flat_torus (no boundary).
    parameters: flat list of reals; meaning depends on kind.
    ambient_dim: 1 or 2 (circle counts as 1: intrinsic arclength coordinate).
    """

    kind: str
    parameters: tuple = ()
    vertices: tuple = ()  # polygon only: ((x, y), ...) counterclockwise
    ambient_dim: int = field(default=0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainValidationError("kind", f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "parameters", tuple(float(v) for v in self.parameters))
        object.__setattr__(self, "vertices", tuple(tuple(map(float, v)) for v in self.vertices))
        dims = {"interval": 1, "circle": 1, "rectangle": 2, "disk": 2, "annulus": 2, "polygon": 2}
        if self.kind == "flat_torus":
            dim = len(self.parameters)
            if dim not in (1, 2):
                raise DomainValidationError("parameters", "flat_torus takes 1 or 2 side lengths")
        else:
            dim = dims[self.kind]
        object.__setattr__(self, "ambient_dim", dim)
        self._validate()

    # -- constructors ------------------------------------------------------
    @staticmethod
    def interval(a: float, b: float) -> "DomainSpec":
        return DomainSpec("interval", (a, b))

    @staticmethod
    def rectangle(ax: float, bx: float, ay: float, by: float) -> "DomainSpec":
        return DomainSpec("rectangle", (ax, bx, ay, by))

    @staticmethod
    def disk(radius: float, center=(0.0, 0.0)) -> "DomainSpec":
        return DomainSpec("disk", (radius, center[0], center[1]))

    @staticmethod
    def annulus(r_inner: float, r_outer: float, center=(0.0, 0.0)) -> "DomainSpec":
        return DomainSpec("annulus", (r_inner, r_outer, center[0], center[1]))

    @staticmethod
    def polygon(vertices) -> "DomainSpec":
        return DomainSpec("polygon", (), tuple(tuple(v) for v in vertices))

    @staticmethod
    def circle(radius: float) -> "DomainSpec":
        return DomainSpec("circle", (radius,))

    @staticmethod
    def flat_torus(*sides: float) -> "DomainSpec":
        return DomainSpec("flat_torus", tuple(sides))

    # -- validation --------------------------------------------------------
    def _validate(self):
        p = self.parameters
        if not np.isfinite(p).all():
            raise DomainValidationError("parameters", f"must be finite, got {p}")
        if not all(np.isfinite(v).all() for v in self.vertices):
            raise DomainValidationError("vertices", "must be finite")
        if self.kind == "interval":
            if len(p) != 2 or not p[0] < p[1]:
                raise DomainValidationError("parameters", "interval needs a < b")
        elif self.kind == "rectangle":
            if len(p) != 4 or not (p[0] < p[1] and p[2] < p[3]):
                raise DomainValidationError("parameters", "rectangle needs ax < bx and ay < by")
        elif self.kind == "disk":
            if len(p) != 3 or p[0] <= 0:
                raise DomainValidationError("parameters", "disk needs radius > 0")
        elif self.kind == "annulus":
            if len(p) != 4 or not (0.0 < p[0] < p[1]):
                raise DomainValidationError(
                    "parameters", "annulus needs 0 < inner radius < outer radius")
        elif self.kind == "circle":
            if len(p) != 1 or p[0] <= 0:
                raise DomainValidationError("parameters", "circle needs radius > 0")
        elif self.kind == "flat_torus":
            if any(s <= 0 for s in p):
                raise DomainValidationError("parameters", "torus sides must be positive")
        elif self.kind == "polygon":
            self._validate_polygon()

    def _validate_polygon(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise DomainValidationError("vertices", "polygon needs >= 3 planar vertices")
        x, y = v[:, 0], v[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area2 <= 0:
            raise DomainValidationError("vertices", "polygon must be counterclockwise")
        m = len(v)
        for i in range(m):
            a, b = v[i], v[(i + 1) % m]
            for j in range(i + 1, m):
                if j == i or (j + 1) % m == i or (i + 1) % m == j:
                    continue
                c, d = v[j], v[(j + 1) % m]
                if _segments_intersect(a, b, c, d):
                    raise DomainValidationError("vertices", f"edges {i} and {j} intersect")

    # -- basic properties ----------------------------------------------------
    @property
    def has_boundary(self) -> bool:
        return self.kind not in ("circle", "flat_torus")

    @property
    def circles(self) -> tuple:
        """(center, radius, inner) of each boundary circle, inner first;
        empty unless the domain is a disk or an annulus."""
        p = self.parameters
        if self.kind == "disk":
            return ((np.array(p[1:3]), p[0], False),)
        if self.kind == "annulus":
            center = np.array(p[2:4])
            return ((center, p[0], True), (center, p[1], False))
        return ()

    @property
    def center(self) -> np.ndarray:
        """Midpoint of the domain's bounding box: the centre of a disk or an
        annulus, the midpoint of an interval, rectangle or periodic cell."""
        p = np.asarray(self.parameters)
        if self.circles:
            return self.circles[0][0]
        if self.kind == "polygon":
            v = np.asarray(self.vertices)
            return (v.min(axis=0) + v.max(axis=0)) / 2
        if self.kind in ("interval", "rectangle"):
            return (p[0::2] + p[1::2]) / 2
        return (2 * np.pi * p if self.kind == "circle" else p) / 2

    def measure(self) -> float:
        """Analytic length/area of the domain."""
        p = self.parameters
        if self.kind == "interval":
            return p[1] - p[0]
        if self.kind == "rectangle":
            return (p[1] - p[0]) * (p[3] - p[2])
        if self.kind == "disk":
            return np.pi * p[0] ** 2
        if self.kind == "annulus":
            return np.pi * (p[1] ** 2 - p[0] ** 2)
        if self.kind == "circle":
            return 2 * np.pi * p[0]
        if self.kind == "flat_torus":
            return float(np.prod(p))
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(a, b, c, d) -> bool:
    def orient(p, q, r):
        return np.sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    return (orient(a, b, c) != orient(a, b, d)) and (orient(c, d, a) != orient(c, d, b))


# ---------------------------------------------------------------------------
# Analytic quadrature rules
# ---------------------------------------------------------------------------

@dataclass
class Quadrature:
    """Interior quadrature: points (m, n) and weights (m,)."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


@dataclass
class BoundaryQuadrature:
    """Boundary rule with analytic geometry at every node.

    normals: outward unit normals; k1: scalar shape-operator value on the
    boundary tangent line, which is also its trace since a 2D boundary is a
    curve (zero in 1D, where the boundary is points).
    """

    points: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    k1: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def gauss_legendre_panels(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre on [a, b]; node count grows with order."""
    npanel = max(2, int(order))
    m = max(3, (int(order) + 4) // 2)
    xg, wg = np.polynomial.legendre.leggauss(m)
    edges = np.linspace(a, b, npanel + 1)
    pts, wts = [], []
    for i in range(npanel):
        lo, hi = edges[i], edges[i + 1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts.append(mid + half * xg)
        wts.append(half * wg)
    return np.concatenate(pts), np.concatenate(wts)


def _periodic_rule(n_points: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid on a periodic interval: spectrally accurate for smooth data."""
    t = np.arange(n_points) * (length / n_points)
    w = np.full(n_points, length / n_points)
    return t, w


def domain_quadrature(spec: DomainSpec, order: int) -> Quadrature:
    """Quadrature over the exact analytic domain.

    Accuracy increases with order via more panels and nodes; for the smooth
    integrands used by the verification checks, order 8 reaches ~1e-12.
    """
    p = spec.parameters
    if spec.kind == "interval":
        x, w = gauss_legendre_panels(p[0], p[1], order)
        return Quadrature(x[:, None], w)
    if spec.kind == "circle":
        x, w = _periodic_rule(max(16, 8 * order), 2 * np.pi * p[0])
        return Quadrature(x[:, None], w)
    if spec.kind == "flat_torus" and spec.ambient_dim == 1:
        x, w = _periodic_rule(max(16, 8 * order), p[0])
        return Quadrature(x[:, None], w)
    if spec.kind == "flat_torus":
        x1, w1 = _periodic_rule(max(16, 6 * order), p[0])
        x2, w2 = _periodic_rule(max(16, 6 * order), p[1])
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        W = np.outer(w1, w2)
        return Quadrature(np.column_stack([X1.ravel(), X2.ravel()]), W.ravel())
    if spec.kind == "rectangle":
        x1, w1 = gauss_legendre_panels(p[0], p[1], order)
        x2, w2 = gauss_legendre_panels(p[2], p[3], order)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        W = np.outer(w1, w2)
        return Quadrature(np.column_stack([X1.ravel(), X2.ravel()]), W.ravel())
    if spec.circles:
        r0 = next((R for _, R, inner in spec.circles if inner), 0.0)
        center, r1, _ = spec.circles[-1]
        r, wr = gauss_legendre_panels(r0, r1, order)
        nth = max(16, 6 * order)
        th, wth = _periodic_rule(nth, 2 * np.pi)
        R, TH = np.meshgrid(r, th, indexing="ij")
        pts = np.column_stack([
            center[0] + (R * np.cos(TH)).ravel(),
            center[1] + (R * np.sin(TH)).ravel(),
        ])
        W = np.outer(wr * r, wth).ravel()
        return Quadrature(pts, W)
    if spec.kind == "polygon":
        return _polygon_quadrature(np.asarray(spec.vertices), order)
    raise DomainValidationError("kind", spec.kind)


def triangle_gauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor m x m Gauss rule on the reference triangle (area 1/2)."""
    xg, wg = np.polynomial.legendre.leggauss(m)
    u = 0.5 * (xg + 1.0)
    wu = 0.5 * wg
    U, V = np.meshgrid(u, u, indexing="ij")
    pts = np.column_stack([(U * (1 - V)).ravel(), (U * V).ravel()])
    return pts, (np.outer(wu, wu) * U).ravel()


def _polygon_quadrature(verts: np.ndarray, order: int) -> Quadrature:
    from .meshing import ear_clip_triangulation

    tris = ear_clip_triangulation(verts)
    ref, ref_w = triangle_gauss(max(3, (order + 3) // 2))
    pts, wts = [], []
    for (i, j, k) in tris:
        a, b, c = verts[i], verts[j], verts[k]
        J = np.column_stack([b - a, c - a])
        det = abs(np.linalg.det(J))
        pts.append(a + ref @ J.T)
        wts.append(ref_w * det)
    return Quadrature(np.vstack(pts), np.concatenate(wts))


def boundary_quadrature(spec: DomainSpec, order: int) -> BoundaryQuadrature:
    """Boundary rule over the exact analytic boundary with normals and K1.

    Empty for boundaryless domains.  On 1D domains the boundary is two
    points with counting measure, outward normal -1/+1 and K1 = 0.
    """
    p = spec.parameters
    n = spec.ambient_dim
    if not spec.has_boundary:
        z = np.zeros((0,))
        return BoundaryQuadrature(np.zeros((0, n)), z, np.zeros((0, n)), z)
    if spec.kind == "interval":
        pts = np.array([[p[0]], [p[1]]])
        return BoundaryQuadrature(pts, np.ones(2), np.array([[-1.0], [1.0]]), np.zeros(2))
    if spec.kind == "rectangle":
        ax, bx, ay, by = p
        sides = [
            ((ax, ay), (bx, ay), (0.0, -1.0)),
            ((bx, ay), (bx, by), (1.0, 0.0)),
            ((bx, by), (ax, by), (0.0, 1.0)),
            ((ax, by), (ax, ay), (-1.0, 0.0)),
        ]
        return _straight_sides_rule(sides, order)
    if spec.kind == "polygon":
        v = np.asarray(spec.vertices)
        sides = []
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            t = (b - a) / np.linalg.norm(b - a)
            sides.append((tuple(a), tuple(b), (t[1], -t[0])))  # outward for CCW
        return _straight_sides_rule(sides, order)
    # disk or annulus: one periodic rule per circle, inner first
    rules = (_circle_rule(center, R, inner, order) for center, R, inner in spec.circles)
    return BoundaryQuadrature(*map(np.concatenate, zip(*rules)))


def _straight_sides_rule(sides, order) -> BoundaryQuadrature:
    pts, wts, nrm = [], [], []
    for (a, b, nu) in sides:
        a, b = np.asarray(a), np.asarray(b)
        L = np.linalg.norm(b - a)
        t, w = gauss_legendre_panels(0.0, 1.0, order)
        pts.append(a[None, :] + t[:, None] * (b - a)[None, :])
        wts.append(w * L)
        nrm.append(np.tile(np.asarray(nu), (len(t), 1)))
    pts = np.vstack(pts)
    wts = np.concatenate(wts)
    return BoundaryQuadrature(pts, wts, np.vstack(nrm), np.zeros(len(wts)))


def circle_frame(radial: np.ndarray, radius: float, inner: bool) -> tuple[np.ndarray, np.ndarray]:
    """Outward normals and K1 at points of a boundary circle with unit
    radial directions ``radial``: nu = radial and K1 = -1/R on an outer
    circle, nu = -radial and K1 = +1/R on the inner circle of an annulus."""
    if inner:
        return -radial, np.full(len(radial), +1.0 / radius)
    return radial, np.full(len(radial), -1.0 / radius)


def _circle_rule(center: np.ndarray, radius: float, inner: bool, order: int) -> tuple:
    """(points, weights, normals, k1) of the periodic rule on one circle."""
    th, wth = _periodic_rule(max(16, 8 * order), 2 * np.pi)
    radial = np.column_stack([np.cos(th), np.sin(th)])
    return (center[None, :] + radius * radial, wth * radius) + circle_frame(radial, radius, inner)
