"""Oriented simplicial meshes of the supported flat domains.

Conventions:
* top-dimensional simplices are stored positively oriented (2D: CCW vertex
  order, checked by determinant after index sort; 1D: edges follow the
  coordinate/cycle direction);
* lower simplices are stored with increasing vertex indices;
* a 2D complex carries one edge table, built once at construction:
  ``tri_edges[t, k]`` is the global index of the k-th local edge of triangle
  ``t`` in the local order (v0, v1), (v0, v2), (v1, v2), and
  ``tri_edge_sign[t, k]`` is +1 when that local edge runs along the stored
  edge and -1 otherwise.  Incidence, boundary markers, Whitney edge-form
  DOFs, boundary normals and refinement all read this table;
* incidence matrices are exact integer sparse matrices with D_{p+1} D_p = 0;
  the boundary of [v0, v1, v2] is [v0, v1] - [v0, v2] + [v1, v2], so
  D_1 = tri_edge_sign * (+1, -1, +1) on the table's columns;
* boundary markers are derived from facet adjacency and are closed under
  taking faces;
* periodic domains (circle, flat torus) keep coordinates in the fundamental
  cell; per-element coordinates are unwrapped so element geometry is correct
  across the seam.

Curved boundaries (disk, annulus) place boundary vertices exactly on the
analytic curve, and refinement re-snaps the new boundary vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from .domains import BoundaryQuadrature, DomainSpec, DomainValidationError, circle_frame

__all__ = [
    "SimplicialComplex",
    "generate_mesh",
    "refine",
    "incidence_matrix",
    "betti_numbers",
    "boundary_geometry",
    "ear_clip_triangulation",
]

# local edges of a triangle (v0, v1, v2), in edge-table column order
LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))
_LA, _LB = np.array(LOCAL_EDGES).T


def _edge_keys(a, b, nv):
    """Orientation-free integer key of edge {a, b}; keys sort like (min, max)."""
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _unwrap(coords: np.ndarray, periods) -> np.ndarray:
    """Per-element (ns, k, n) coordinates unwrapped across periodic seams."""
    if periods is None:
        return coords
    out = coords.copy()
    for ax, L in enumerate(periods):
        if L is None:
            continue
        anchor = out[:, :1, ax]
        delta = out[:, :, ax] - anchor
        delta -= L * np.round(delta / L)
        out[:, :, ax] = anchor + delta
    return out


@dataclass
class SimplicialComplex:
    dim: int
    vertex_coords: np.ndarray              # (nv, n)
    simplices: dict                        # p -> (ns, p+1) int array
    boundary_marker: dict = field(default_factory=dict)  # p -> bool array
    mesh_size_h: float = 0.0
    spec: DomainSpec | None = None
    periodic_lengths: tuple | None = None  # per-axis period or None
    # 2D edge table (see module docstring); None in 1D
    tri_edges: np.ndarray | None = field(default=None, init=False, repr=False)
    tri_edge_sign: np.ndarray | None = field(default=None, init=False, repr=False)
    # component label of every vertex (component_labels); None until first read
    _labels: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertex_coords = np.asarray(self.vertex_coords, dtype=float)
        if 0 not in self.simplices:
            self.simplices[0] = np.arange(self.vertex_coords.shape[0])[:, None]
        for p in self.simplices:
            self.simplices[p] = np.asarray(self.simplices[p], dtype=int)
        if self.dim == 2:
            self._build_edge_table()
        if not self.boundary_marker:
            self._derive_boundary_markers()
        if self.mesh_size_h == 0.0:
            self.mesh_size_h = float(self.edge_lengths().max())

    # -- basic accessors -----------------------------------------------------
    @property
    def n(self) -> int:
        return self.vertex_coords.shape[1]

    def num(self, p: int) -> int:
        return self.simplices[p].shape[0]

    def element_coords(self, p: int) -> np.ndarray:
        """Per-simplex vertex coordinates, unwrapped across periodic seams."""
        return _unwrap(self.vertex_coords[self.simplices[p]], self.periodic_lengths)

    def edge_lengths(self) -> np.ndarray:
        ec = self.element_coords(1)
        return np.linalg.norm(ec[:, 1, :] - ec[:, 0, :], axis=1)

    def top_volumes(self, signed: bool = False) -> np.ndarray:
        """Lengths (1D) or areas (2D) of top simplices."""
        ec = self.element_coords(self.dim)
        if self.dim == 1:
            v = ec[:, 1, 0] - ec[:, 0, 0]
            return v if signed else np.abs(v)
        a = ec[:, 1, :] - ec[:, 0, :]
        b = ec[:, 2, :] - ec[:, 0, :]
        v = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        return v if signed else np.abs(v)

    def component_labels(self) -> np.ndarray:
        """Connected component of every vertex of the vertex-edge graph,
        labelled 0, 1, ...; computed once per complex.  The one topology
        of a mesh: betti_numbers counts these components, and the closed
        form harmonic bases of spectral read them."""
        if self._labels is None:
            edges, nv = self.simplices[1], self.num(0)
            graph = sparse.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                                      shape=(nv, nv))
            self._labels = connected_components(graph, directed=False)[1]
        return self._labels

    def _build_edge_table(self):
        """Fill tri_edges / tri_edge_sign; raise if a triangle edge is absent."""
        edges, tris = self.simplices[1], self.simplices[2]
        nv = self.vertex_coords.shape[0]
        ekey = _edge_keys(edges[:, 0], edges[:, 1], nv)
        order = np.argsort(ekey, kind="stable")
        sorted_keys = np.append(ekey[order], -1)  # sentinel for keys past the end
        a = tris[:, _LA]
        key = _edge_keys(a, tris[:, _LB], nv)
        pos = np.searchsorted(sorted_keys[:-1], key)
        if not np.array_equal(sorted_keys[pos], key):
            raise ValueError("missing face edge")
        self.tri_edges = order[pos]
        self.tri_edge_sign = np.where(a == edges[self.tri_edges, 0], 1, -1)

    def _derive_boundary_markers(self):
        nv = self.vertex_coords.shape[0]
        edges = self.simplices[1]
        if self.dim == 1:
            deg = np.bincount(edges.ravel(), minlength=nv)
            self.boundary_marker = {
                0: deg == 1,
                1: np.zeros(self.num(1), dtype=bool),
            }
            return
        # 2D: boundary edges have exactly one incident triangle
        bedge = np.bincount(self.tri_edges.ravel(), minlength=self.num(1)) == 1
        bvert = np.zeros(nv, dtype=bool)
        bvert[edges[bedge]] = True
        self.boundary_marker = {
            0: bvert,
            1: bedge,
            2: np.zeros(self.num(2), dtype=bool),
        }

    def validate(self):
        """Structural invariants: orientation, marker closure, D D = 0.

        Face presence is checked when the edge table is built.
        """
        if self.dim == 2:
            assert np.all(self.top_volumes(signed=True) > 0), "negatively oriented triangle"
            bedges = self.simplices[1][self.boundary_marker[1]]
            assert np.all(self.boundary_marker[0][bedges]), \
                "boundary markers not closed under faces"
        else:
            assert np.all(self.top_volumes(signed=True) > 0), "reversed 1D edge"
        D_list = [incidence_matrix(self, p) for p in range(self.dim)]
        for k in range(len(D_list) - 1):
            prod = D_list[k + 1] @ D_list[k]
            assert prod.nnz == 0 or np.all(prod.data == 0), "D D != 0"
        return True


def incidence_matrix(cplx: SimplicialComplex, p: int) -> sparse.csr_matrix:
    """Signed incidence D_p mapping p-cochains to (p+1)-cochains: an integer
    CSR matrix with entries in {-1, 0, +1}."""
    if p < 0 or p >= cplx.dim:
        raise ValueError(f"incidence degree p={p} out of range for dim {cplx.dim}")
    if p == 0:
        edges = cplx.simplices[1]
        ne, nv = edges.shape[0], cplx.vertex_coords.shape[0]
        rows = np.repeat(np.arange(ne), 2)
        cols = edges.ravel()
        vals = np.tile(np.array([-1, 1]), ne)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(ne, nv), dtype=np.int64)
    # p == 1, dim == 2: d[v0, v1, v2] = [v0, v1] - [v0, v2] + [v1, v2]
    nt, ne = cplx.num(2), cplx.num(1)
    rows = np.repeat(np.arange(nt), 3)
    vals = (cplx.tri_edge_sign * np.array([1, -1, 1])).ravel()
    return sparse.csr_matrix((vals, (rows, cplx.tri_edges.ravel())), shape=(nt, ne),
                             dtype=np.int64)


def betti_numbers(cplx: SimplicialComplex) -> tuple:
    """Absolute Betti numbers (b_0, ..., b_dim) of the complex.

    b_0 counts the connected components (cplx.component_labels) and b_dim
    those that have no boundary vertex (every mesh here is an orientable
    manifold); the Euler characteristic chi gives b_1 = b_0 - chi in 1D
    and b_1 = b_0 + b_2 - chi in 2D.
    """
    labels = cplx.component_labels()
    b0 = int(labels.max()) + 1
    closed = b0 - len(np.unique(labels[cplx.boundary_marker[0]]))
    chi = sum((-1) ** p * cplx.num(p) for p in range(cplx.dim + 1))
    if cplx.dim == 1:
        return (b0, b0 - chi)
    return (b0, b0 + closed - chi, closed)


# ---------------------------------------------------------------------------
# Mesh generation
# ---------------------------------------------------------------------------

def generate_mesh(spec: DomainSpec, target_h: float) -> SimplicialComplex:
    if target_h <= 0:
        raise DomainValidationError("target_h", "must be positive")
    p = spec.parameters
    if spec.kind == "interval":
        return _interval_mesh(p[0], p[1], target_h, spec)
    if spec.kind == "circle":
        return _periodic_interval_mesh(2 * np.pi * p[0], target_h, spec)
    if spec.kind == "flat_torus" and spec.ambient_dim == 1:
        return _periodic_interval_mesh(p[0], target_h, spec)
    if spec.kind == "polygon":
        return _polygon_mesh(np.asarray(spec.vertices), target_h, spec)
    builders = {
        "rectangle": lambda s: _rectangle_mesh(p, target_h / s, spec),
        "flat_torus": lambda s: _torus_mesh(p, target_h / s, spec),
        "disk": lambda s: _disk_mesh(spec, target_h / s),
        "annulus": lambda s: _annulus_mesh(spec, target_h / s),
    }
    if spec.kind not in builders:
        raise DomainValidationError("kind", spec.kind)
    # 2D cells have diagonals longer than their pitch; scale the pitch until
    # the longest edge meets the contract mesh_size_h <= target_h
    scale = 1.0
    for _ in range(40):
        cplx = builders[spec.kind](scale)
        if cplx.mesh_size_h <= target_h:
            return cplx
        scale *= max(1.05, cplx.mesh_size_h / target_h)
    raise DomainValidationError("target_h", "could not reach requested resolution")


def _interval_mesh(a, b, h, spec):
    ne = max(1, int(np.ceil((b - a) / h)))
    x = np.linspace(a, b, ne + 1)
    edges = np.column_stack([np.arange(ne), np.arange(1, ne + 1)])
    return SimplicialComplex(1, x[:, None], {1: edges}, spec=spec)


def _periodic_interval_mesh(L, h, spec):
    ne = max(3, int(np.ceil(L / h)))
    x = np.arange(ne) * (L / ne)
    edges = np.column_stack([np.arange(ne), (np.arange(ne) + 1) % ne])
    return SimplicialComplex(1, x[:, None], {1: edges}, spec=spec, periodic_lengths=(L,))


def _grid_triangles(nx, ny, vid):
    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.asarray(tris, dtype=int)


def _rectangle_mesh(p, h, spec):
    ax, bx, ay, by = p
    nx = max(1, int(np.ceil((bx - ax) / h)))
    ny = max(1, int(np.ceil((by - ay) / h)))
    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    tris = _grid_triangles(nx, ny, lambda i, j: i * (ny + 1) + j)
    return _from_triangles(verts, tris, spec)


def _torus_mesh(p, h, spec):
    L1, L2 = p
    nx = max(3, int(np.ceil(L1 / h)))
    ny = max(3, int(np.ceil(L2 / h)))
    xs = np.arange(nx) * (L1 / nx)
    ys = np.arange(ny) * (L2 / ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    tris = _grid_triangles(nx, ny, lambda i, j: (i % nx) * ny + (j % ny))
    return _from_triangles(verts, tris, spec, periodic=(L1, L2))


def _disk_mesh(spec, h):
    (center, R, _), = spec.circles
    K = max(2, int(np.round(R / h)))
    verts = [center.copy()]
    rings = [[0]]
    for k in range(1, K + 1):
        m = 6 * k
        th = 2 * np.pi * np.arange(m) / m
        r = R * k / K
        ring = list(range(len(verts), len(verts) + m))
        verts.extend(np.column_stack([center[0] + r * np.cos(th),
                                      center[1] + r * np.sin(th)]))
        rings.append(ring)
    tris = []
    for k in range(1, K + 1):
        tris.extend(_bridge_rings(rings[k - 1], rings[k]))
    return _from_triangles(np.asarray(verts), np.asarray(tris, dtype=int), spec)


def _bridge_rings(inner, outer):
    """Triangulate the strip between two concentric uniformly spaced rings."""
    mA, mB = len(inner), len(outer)
    if mA == 1:
        return [(inner[0], outer[j], outer[(j + 1) % mB]) for j in range(mB)]
    tris = []
    i = j = 0
    while i < mA or j < mB:
        a_next = (i + 1) / mA
        b_next = (j + 1) / mB
        if j >= mB or (i < mA and a_next <= b_next):
            tris.append((inner[i % mA], outer[j % mB], inner[(i + 1) % mA]))
            i += 1
        else:
            tris.append((inner[i % mA], outer[j % mB], outer[(j + 1) % mB]))
            j += 1
    return tris


def _annulus_mesh(spec, h):
    (center, r0, _), (_, r1, _) = spec.circles
    nr = max(1, int(np.ceil((r1 - r0) / h)))
    nth = max(8, int(np.ceil(np.pi * (r0 + r1) / h)))
    radii = np.linspace(r0, r1, nr + 1)
    th = 2 * np.pi * np.arange(nth) / nth
    verts = []
    for r in radii:
        verts.append(np.column_stack([center[0] + r * np.cos(th),
                                      center[1] + r * np.sin(th)]))
    verts = np.vstack(verts)
    tris = _grid_triangles(nr, nth, lambda i, j: i * nth + (j % nth))
    return _from_triangles(verts, tris, spec)


def _polygon_mesh(vertices, h, spec):
    tris = np.asarray(ear_clip_triangulation(vertices), dtype=int)
    cplx = _from_triangles(vertices.copy(), tris, spec)
    while cplx.mesh_size_h > h:
        cplx = refine(cplx)
    return cplx


def ear_clip_triangulation(verts: np.ndarray) -> list[tuple[int, int, int]]:
    """Ear clipping of a simple CCW polygon; O(m^2), fine at preset scale."""
    verts = np.asarray(verts, dtype=float)
    idx = list(range(len(verts)))
    tris = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def point_in_tri(p, a, b, c):
        d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
        return (d1 >= -1e-14) and (d2 >= -1e-14) and (d3 >= -1e-14)

    guard = 0
    while len(idx) > 3 and guard < 10000:
        guard += 1
        m = len(idx)
        clipped = False
        for k in range(m):
            i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            a, b, c = verts[i0], verts[i1], verts[i2]
            if cross(a, b, c) <= 1e-14:
                continue  # reflex or degenerate corner
            if any(point_in_tri(verts[j], a, b, c)
                   for j in idx if j not in (i0, i1, i2)):
                continue
            tris.append((i0, i1, i2))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise DomainValidationError("vertices", "ear clipping failed; polygon degenerate?")
    tris.append(tuple(idx))
    return tris


def _from_triangles(verts, tris, spec, periodic=None) -> SimplicialComplex:
    """Canonicalize triangles (positive orientation), derive edges."""
    periods = tuple(periodic) if periodic is not None else None
    verts = np.asarray(verts, dtype=float)
    nv = len(verts)
    tris = np.sort(np.asarray(tris, dtype=int), axis=1)
    keys = np.unique(_edge_keys(tris[:, _LA], tris[:, _LB], nv))
    edges = np.column_stack(np.divmod(keys, nv))
    ec = _unwrap(verts[tris], periods)
    a, b = ec[:, 1] - ec[:, 0], ec[:, 2] - ec[:, 0]
    flip = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] <= 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return SimplicialComplex(2, verts, {1: edges, 2: tris}, spec=spec,
                             periodic_lengths=periods)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def refine(cplx: SimplicialComplex) -> SimplicialComplex:
    """Uniform refinement (1D bisection / 2D 1-to-4); re-snaps curved boundaries."""
    if cplx.dim == 1:
        return _refine_1d(cplx)
    return _refine_2d(cplx)


def _edge_midpoints(cplx) -> np.ndarray:
    """Midpoint of every edge, taken across periodic seams and wrapped back."""
    mids = 0.5 * cplx.element_coords(1).sum(axis=1)
    for ax, L in enumerate(cplx.periodic_lengths or ()):
        if L is not None:
            mids[:, ax] %= L
    return mids


def _refine_1d(cplx):
    a, b = cplx.simplices[1].T
    mid = cplx.vertex_coords.shape[0] + np.arange(len(a))
    verts = np.vstack([cplx.vertex_coords, _edge_midpoints(cplx)])
    edges = np.column_stack([a, mid, mid, b]).reshape(-1, 2)
    return SimplicialComplex(1, verts, {1: edges},
                             spec=cplx.spec, periodic_lengths=cplx.periodic_lengths)


def _nearest_circle(circles, pts: np.ndarray):
    """(which, rel, d): the index into ``circles`` of the circle nearest each
    point, and each point's offset from and distance to their common center."""
    radii = np.array([R for _, R, _ in circles])
    rel = pts - circles[0][0]
    d = np.linalg.norm(rel, axis=1)
    return np.argmin(np.abs(d[:, None] - radii[None, :]), axis=1), rel, d


def _snap_to_boundary(spec: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Project points onto the analytic curved boundary (disk/annulus only)."""
    circles = spec.circles
    if not circles:
        return pts
    which, rel, d = _nearest_circle(circles, pts)
    target = np.array([R for _, R, _ in circles])[which]
    return circles[0][0] + rel * (target / d)[:, None]


def _refine_2d(cplx):
    mids = _edge_midpoints(cplx)
    if cplx.spec is not None and cplx.spec.has_boundary:
        on_bdy = cplx.boundary_marker[1]
        if on_bdy.any():
            mids[on_bdy] = _snap_to_boundary(cplx.spec, mids[on_bdy])
    verts = np.vstack([cplx.vertex_coords, mids])
    a, b, c = cplx.simplices[2].T
    mab, mca, mbc = (cplx.vertex_coords.shape[0] + cplx.tri_edges).T
    # four children per triangle, in order: three corners, then the middle
    children = np.column_stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca])
    return _from_triangles(verts, children.reshape(-1, 3), cplx.spec,
                           periodic=cplx.periodic_lengths)


# ---------------------------------------------------------------------------
# Mesh-attached boundary geometry
# ---------------------------------------------------------------------------

def boundary_geometry(cplx: SimplicialComplex, spec: DomainSpec | None,
                      quad_order: int = 4) -> BoundaryQuadrature:
    """Quadrature on boundary facets; normals/K1 from the analytic spec.

    Weights integrate polynomials of degree quad_order exactly on each
    (straight) boundary facet.  A mesh without boundary gives an empty rule.
    """
    if quad_order < 1:
        raise ValueError("quad_order >= 1 required")
    if cplx.dim == 1:
        bverts = np.nonzero(cplx.boundary_marker[0])[0]
        pts = cplx.vertex_coords[bverts]
        normals = np.sign(pts - cplx.vertex_coords.mean())
        return BoundaryQuadrature(pts, np.ones(len(bverts)), normals, np.zeros(len(bverts)))

    bedges = np.nonzero(cplx.boundary_marker[1])[0]
    m = max(1, (quad_order + 2) // 2)
    xg, wg = np.polynomial.legendre.leggauss(m)
    t = 0.5 * (xg + 1.0)
    a, b = cplx.simplices[1][bedges].T
    pa, pb = cplx.vertex_coords[a], cplx.vertex_coords[b]
    # outward normal per boundary edge, pointing away from the vertex opposite
    # it in its unique triangle; local edge k of the table is opposite vertex 2 - k
    opposite = np.empty(cplx.num(1), dtype=int)
    on_bdy = cplx.boundary_marker[1][cplx.tri_edges]
    opposite[cplx.tri_edges[on_bdy]] = cplx.simplices[2][:, ::-1][on_bdy]
    pc = cplx.vertex_coords[opposite[bedges]]
    d = pb - pa
    # per-edge dot products (stacked matmul), bit-identical to norm() of each edge
    L = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    tang = d / L[:, None]
    nu = np.column_stack([tang[:, 1], -tang[:, 0]])
    nu[np.einsum("ex,ex->e", nu, pa - pc) < 0] *= -1
    pts = (pa[:, None, :] + t[None, :, None] * d[:, None, :]).reshape(-1, 2)
    wts = (0.5 * wg[None, :] * L[:, None]).ravel()
    nrm = np.repeat(nu, m, axis=0)
    k1 = np.zeros(len(wts))
    circles = spec.circles if spec is not None else ()
    if circles:
        which, rel, d = _nearest_circle(circles, pts)
        radial = rel / d[:, None]
        for kk, (_, R, inner) in enumerate(circles):
            sel = which == kk
            nrm[sel], k1[sel] = circle_frame(radial[sel], R, inner)
    return BoundaryQuadrature(pts, wts, nrm, k1)
