"""Independent oracles shared by the test modules."""

import numpy as np
import scipy.linalg as dla


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
