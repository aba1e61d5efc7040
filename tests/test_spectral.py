"""Eigensolves against closed forms and an independent finite-difference oracle."""

import importlib
import json

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.special import jnp_zeros

import hodgecheck.operators as operators
from hodgecheck.config import MAX_EIGEN_COUNT
import hodgecheck.checks as checks
from hodgecheck.checks import (check_variance_identity, hodge_decomposition_record,
                               semiclassical_sweep, variance_identity_record)
from hodgecheck.domains import DomainSpec
from hodgecheck.meshing import SimplicialComplex, betti_numbers, generate_mesh, refine
from hodgecheck.operators import OperatorChain, dual_problem
from hodgecheck.potentials import Potential
import hodgecheck.spectral as spectral
from hodgecheck.spectral import (SolverError, hodge_decompose, kernel_projector,
                                 lowest_eigenpairs, solve_on_range)

from oracles import (fd_oracle_1d, kernel_probe_oracle, mixed_saddle_eigs_oracle,
                     range_solve_oracle, shifted_mixed_saddle)


def test_interval_closed_form_spectra():
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 64)
    res = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "normal").operator(0), 3)
    assert res.kernel_dim == 1
    assert np.allclose(res.eigenvalues, [0, np.pi**2, 4 * np.pi**2], rtol=3e-3)
    rest = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "tangential").operator(0), 2)
    assert rest.kernel_dim == 0
    assert np.allclose(rest.eigenvalues, [np.pi**2, 4 * np.pi**2], rtol=3e-3)


def test_interval_convergence_order():
    errs, hs = [], []
    for ne in (16, 32, 64, 128):
        m = generate_mesh(DomainSpec.interval(0, 1), 1 / ne)
        res = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "normal").operator(0), 2)
        errs.append(abs(res.eigenvalues[1] - np.pi**2))
        hs.append(1 / ne)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_fd_oracle_agreement():
    """Independent dense FD oracle matches the Whitney route at matched h."""
    ne = 256
    for pot, bc, realization in [
        (Potential.zero(1), "neumann", "normal"),
        (Potential.zero(1), "dirichlet", "tangential"),
        (Potential.quadratic(2.0, 1), "neumann", "normal"),
    ]:
        m = generate_mesh(DomainSpec.interval(0, 1), 1 / ne)
        res = lowest_eigenpairs(OperatorChain(m, pot, realization).operator(0), 3)
        fd = fd_oracle_1d(0, 1, ne, pot, bc)[:3]
        start = 1 if bc == "neumann" else 0
        for lam, mu in zip(res.eigenvalues[start:], fd[start:]):
            assert abs(lam - mu) <= 1e-3 * max(abs(mu), 1.0)


def test_disk_neumann_bessel_convergence():
    """V = 0 disk: lambda_1 -> (j'_{1,1})^2 with observed order >= 1.5."""
    target = jnp_zeros(1, 1)[0] ** 2
    errs, hs = [], []
    m = generate_mesh(DomainSpec.disk(1.0), 0.4)
    for _ in range(3):
        chain = OperatorChain(m, Potential.zero(2), "normal")
        res = lowest_eigenpairs(chain.operator(0), 2)
        errs.append(abs(res.eigenvalues[1] - target))
        hs.append(m.mesh_size_h)
        m = refine(m)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.5


def test_eigenvalues_nonnegative_and_orthonormal():
    m = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.25)
    chain = OperatorChain(m, Potential.linear(0.4, 2), "tangential")
    res = lowest_eigenpairs(chain.operator(1), 5)
    assert np.all(res.eigenvalues >= -1e-9)
    V = res.eigenvectors
    G = V.T @ (chain.mass(1) @ V)
    assert np.abs(G - np.eye(5)).max() <= 1e-8
    assert np.all(res.residual_norms <= 1e-7 * (1 + np.abs(res.eigenvalues)))


def test_annulus_harmonic_one_form():
    """First Betti number of the annulus: one tangential harmonic 1-form."""
    m = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.22)
    chain = OperatorChain(m, Potential.zero(2), "tangential")
    op = chain.operator(1)
    res = lowest_eigenpairs(op, 4)
    assert res.kernel_dim == chain.betti(1) == 1
    assert res.eigenvalues[0] == 0.0
    raw = op.pencil()[0]
    assert abs(raw[0]) <= 1e-8 * raw[1]
    assert res.eigenvalues[1] == pytest.approx(raw[1], rel=1e-10)


def test_kernel_projector_properties():
    m = generate_mesh(DomainSpec.disk(1.0), 0.3)
    chain = OperatorChain(m, Potential.quadratic(1.0, 2), "normal")
    op = chain.operator(0)
    kp = kernel_projector(op)
    assert kp.dim == 1
    rng = np.random.default_rng(0)
    x = rng.standard_normal(op.dim)
    assert np.linalg.norm(kp.apply(kp.apply(x)) - kp.apply(x)) <= 1e-10 * np.linalg.norm(x)
    y = rng.standard_normal(op.dim)
    assert abs(kp.apply(x) @ (op.M @ y) - x @ (op.M @ kp.apply(y))) <= 1e-10
    # tangential realization with convex V has no kernel
    chain_t = OperatorChain(m, Potential.quadratic(1.0, 2), "tangential")
    assert kernel_projector(chain_t.operator(0)).dim == 0


def test_solve_on_range_consistency():
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 128)
    chain = OperatorChain(m, Potential.zero(1), "normal")
    op0, op1 = chain.operator(0), chain.operator(1)
    eta = chain.interpolate(_linear_form())
    kp = kernel_projector(op0)
    centered = kp.complement(eta)
    lhs = float(centered @ (chain.mass(0) @ centered))
    deta = chain.apply_d(0, eta)
    w = solve_on_range(op1, deta, tol=1e-12)
    rhs = float(w @ (chain.mass(1) @ deta))
    assert abs(lhs - rhs) <= 1e-9 * lhs
    assert abs(lhs - 1 / 12) <= 1e-6
    assert np.allclose(solve_on_range(op1, np.zeros(op1.dim)), 0.0)


def _linear_form():
    from hodgecheck.analytic_forms import AnalyticForm
    from hodgecheck.potentials import _COORDS

    return AnalyticForm(1, 0, [_COORDS[0]], name="x")


def _mass_norm(chain, p, x):
    return float(np.sqrt(x @ (chain.mass(p) @ x)))


def test_hodge_decomposition():
    m = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.25)
    chain = OperatorChain(m, Potential.quadratic(1.0, 2), "tangential")
    op = chain.operator(1)
    kp = kernel_projector(op)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(chain.dim(1))
    split = hodge_decompose(x, op)
    assert split.recomposition_residual <= 1e-8
    assert split.orthogonality_residuals.shape == (3,)
    assert split.orthogonality_residuals.max() <= 1e-8
    # kernel input decomposes to itself
    if kp.dim:
        xk = kp.basis[:, 0].copy()
        s2 = hodge_decompose(xk, op)
        assert _mass_norm(chain, 1, s2.exact_part) <= 1e-8
        assert _mass_norm(chain, 1, s2.coexact_part) <= 1e-8
    # exact input has negligible coexact part
    y = rng.standard_normal(chain.dim(0))
    dy = chain.apply_d(0, y)
    s3 = hodge_decompose(dy, op)
    assert _mass_norm(chain, 1, s3.coexact_part) <= 1e-8 * _mass_norm(chain, 1, dy)


def test_lowest_eigenpairs_validation():
    m = generate_mesh(DomainSpec.interval(0, 1), 0.25)
    op = OperatorChain(m, Potential.zero(1), "normal").operator(0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, op.dim + 1)


def test_spectral_result_json():
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 16)
    res = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "normal").operator(0), 2,
                            seed=42)
    d = res.to_json_dict()
    assert set(d) == {"eigenvalues", "kernel_dim", "residuals", "seed", "mesh_h",
                      "solver", "dim"}
    assert d["seed"] == 42 and d["kernel_dim"] == 1
    assert d["solver"] == "dense-eigh" and d["dim"] == 17


def test_sparse_paths_match_dense(monkeypatch):
    """Shift-invert (p = 0) and mixed-pencil (p > 0) paths agree with dense
    eigh on eigenvalues and kernel dimension: both realizations at every
    degree on the disk, the harmonic 1-form of the annulus, and on the
    interval at dimension about 512 both realizations at p = 0 and the
    tangential p = 1 (there the two paths differ by at most 9.2e-12
    relative, the pencil's conditioning floor)."""
    V = Potential.quadratic(1.0, 2)
    disk = generate_mesh(DomainSpec.disk(1.0), 0.25)
    cases = [(disk, V, b, p) for b in ("tangential", "normal") for p in (0, 1, 2)]
    cases.append((generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.25), V, "tangential", 1))
    interval = generate_mesh(DomainSpec.interval(0, 1), 1 / 512)
    V1 = Potential.quadratic(1.0, 1)
    cases += [(interval, V1, "normal", 0), (interval, V1, "tangential", 0),
              (interval, V1, "tangential", 1)]
    # normal p = 0: the constants; tangential p = 2: their star dual; annulus:
    # the harmonic 1-form; interval tangential p = 1: the relative class
    kernels = [0, 0, 1, 1, 0, 0, 1, 1, 0, 1]
    tols = [dict(rtol=1e-7, atol=1e-9)] * 7 + [dict(rtol=1e-9, atol=0)] * 3
    ops = [OperatorChain(cplx, pot, b).operator(p) for cplx, pot, b, p in cases]
    monkeypatch.setattr(spectral, "SPECTRA_CUTOFF", 10 ** 9)
    dense = [lowest_eigenpairs(op, 4) for op in ops]
    monkeypatch.setattr(spectral, "SPECTRA_CUTOFF", 1)
    for op, d, kernel, tol in zip(ops, dense, kernels, tols):
        s = lowest_eigenpairs(op, 4)
        assert d.solver == "dense-eigh"
        assert s.solver == ("eigsh-shift-invert" if op.p == 0 else "eigsh-mixed")
        assert d.kernel_dim == s.kernel_dim == kernel
        assert np.allclose(d.eigenvalues, s.eigenvalues, **tol)


def test_eigsh_paths_never_factor_inside_arpack(monkeypatch):
    """Both eigsh paths hand ARPACK the one sparse_lu factorization as OPinv:
    they run with ARPACK's own splu made to raise."""
    arpack = importlib.import_module(spla.eigsh.__module__)

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK factored a matrix itself")

    monkeypatch.setattr(arpack, "splu", refuse)
    monkeypatch.setattr(spectral, "SPECTRA_CUTOFF", 1)
    chain = OperatorChain(generate_mesh(DomainSpec.disk(1.0), 0.3), Potential.quadratic(1.0, 2),
                          "normal")
    assert lowest_eigenpairs(chain.operator(0), 3).solver == "eigsh-shift-invert"
    assert lowest_eigenpairs(chain.operator(1), 3).solver == "eigsh-mixed"


_DISK_01 = DomainSpec.disk(1.0), 0.1
ORACLE_CASES = (
    [(_DISK_01, Potential.quadratic(1.0, 2).rescaled(h), b) for b in ("normal", "tangential")
     for h in (1.0, 0.125)]
    + [((DomainSpec.annulus(0.5, 1.0), 0.15), Potential.quadratic(1.0, 2), b)
       for b in ("normal", "tangential")]
    + [((DomainSpec.flat_torus(1.0, 1.0), 0.08), Potential.zero(2), "none")])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("mesh, V, b", ORACLE_CASES,
                         ids=["disk-normal-h1", "disk-normal-h0.125", "disk-tangential-h1",
                              "disk-tangential-h0.125", "annulus-normal", "annulus-tangential",
                              "torus"])
def test_sparse_spectra_match_mixed_saddle_oracle(mesh, V, b, p):
    """The sparse p = 1 (union of the p = 0 and p = 2 spectra) and p = 2
    (eliminated top degree) spectra against shift-invert eigsh through the
    shifted mixed saddle: k = b_p + 4 eigenvalues, the kernel count, and
    every eigenvalue above the kernel within 1e-12 relative, both copies of
    each double eigenvalue included (each case has one).  The annulus has
    b_1 = 1 and the flat torus b_1 = 2."""
    chain = OperatorChain(generate_mesh(*mesh), V, b)
    op, bp = chain.operator(p), chain.betti(p)
    assert op.dim > spectral.SPECTRA_CUTOFF
    res = lowest_eigenpairs(op, bp + 4)
    ref, _ = mixed_saddle_eigs_oracle(op, bp + 4)
    assert res.solver == "eigsh-mixed" and res.kernel_dim == bp
    assert np.abs(ref[:bp]).max(initial=0.0) <= 1e-8 * ref[bp]
    assert np.allclose(res.eigenvalues[bp:], ref[bp:], rtol=1e-12, atol=0)
    assert (np.diff(ref[bp:]) <= 1e-9 * ref[-1]).any()


def _explicit_shift_invert(chain, p, k, seed):
    """Shift-invert eigsh on the primal pencil (S_p, M_p) as written out
    here, at p = 0 or the top degree n; the sorted eigenvalues.  At p = 0
    OPinv is (S_up - sigma M)^{-1} under sigma = -1e-2.  At p = n, with
    sigma = -1e-2 mean diag M_n = -1e-2 mean(m), OPinv(y) = (D s - y/m) /
    sigma for (S_up(n-1) - sigma M_{n-1}) s = D^T y.  Each factor is one
    sparse_lu under a reverse Cuthill-McKee pre-order; the start vector is
    the p-form part of a seeded vector of length dim_{p-1} + dim_p (dim_0
    at p = 0), and ARPACK never applies A."""
    M, n = chain.mass(p), chain.dim(p)
    q = max(p - 1, 0)
    if p == 0:
        sigma, nlow = -1e-2, 0
        A = chain.up_stiffness(0) - sigma * M
    else:
        m = M.diagonal()
        sigma, nlow = -1e-2 * float(np.mean(m)), chain.dim(q)
        A = chain.up_stiffness(q) - sigma * chain.mass(q)
    perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    lu = operators.sparse_lu(A[perm][:, perm])

    def solve(y):
        x = np.empty_like(y)
        x[perm] = lu.solve(y[perm])
        return x

    def opinv(y):
        if p == 0:
            return solve(y)
        D = chain.d_matrix(q)
        return (D @ solve(D.T @ y) - y / m) / sigma

    def refuse(x):
        raise AssertionError("ARPACK applied A in shift-invert mode")

    v0 = np.random.default_rng(seed).standard_normal(nlow + n)[nlow:]
    vals, _ = spla.eigsh(spla.LinearOperator((n, n), matvec=refuse, dtype=float), k=k,
                         M=M.tocsr(), sigma=sigma, which="LM", v0=v0, maxiter=500,
                         OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float))
    return np.sort(vals)


@pytest.mark.parametrize("realization, p", [("tangential", 0), ("normal", 1), ("normal", 2)],
                         ids=["shift-invert-p0", "mixed-p1", "mixed-p2"])
def test_sparse_path_matches_explicit_pencil(monkeypatch, realization, p):
    """Above SPECTRA_CUTOFF the eigenvalues are, bit for bit, those of the
    routes written out here.  At p = 0 and p = n: shift-invert eigsh on the
    primal pencil (_explicit_shift_invert).  At p = 1: the union of the
    nonzero spectra of p = 0 (b_0 + k pairs) and p = 2 (b_2 + k pairs),
    each solved that way, its k lowest; the disk has b_1 = 0."""
    monkeypatch.setattr(spectral, "SPECTRA_CUTOFF", 1)
    k, seed = 4, 1234
    chain = OperatorChain(generate_mesh(DomainSpec.disk(1.0), 0.3),
                          Potential.quadratic(1.0, 2), realization)
    if p == 1:
        b0, b2 = chain.betti(0), chain.betti(2)
        vals = np.sort(np.concatenate([_explicit_shift_invert(chain, 0, b0 + k, seed)[b0:],
                                       _explicit_shift_invert(chain, 2, b2 + k, seed)[b2:]]))[:k]
    else:
        vals = _explicit_shift_invert(chain, p, k, seed)
    res = lowest_eigenpairs(chain.operator(p), k, seed=seed)
    assert res.solver == ("eigsh-shift-invert" if p == 0 else "eigsh-mixed")
    assert res.kernel_dim == 0
    assert np.array_equal(res.eigenvalues, vals)


def test_spectrum_path_rule(monkeypatch):
    """A spectrum takes dense-eigh only up to SPECTRA_CUTOFF, whatever the
    chain holds, and so does each sub-spectrum of a p = 1 spectrum: on the
    annulus p = 1 (dim 377, kernel 1) lowest_eigenpairs builds the p = 1
    spectrum from one dense eigh of p = 0 and one of p = 2, each at most
    SPECTRA_CUTOFF, and factors no mixed saddle (its one factor is the
    degree-0 range solve's, for its cocycle basis: S_up(0) bordered by the
    constants).  A kernel projector and the range solve after it run no
    eigh, and that solve adds one factor, S_up(1) - sigma M_1 of the top
    degree.  Above SPECTRA_CUTOFF no config asks ARPACK for k >= dim."""
    assert MAX_EIGEN_COUNT + 1 < spectral.SPECTRA_CUTOFF
    dims, factors = [], []
    eigh, lu = operators.dla.eigh, spectral.sparse_lu
    monkeypatch.setattr(operators.dla, "eigh", lambda *a: dims.append(len(a[0])) or eigh(*a))
    monkeypatch.setattr(spectral, "sparse_lu", lambda A: factors.append(A.shape[0]) or lu(A))
    m = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.25)
    chain = OperatorChain(m, Potential.quadratic(1.0, 2), "normal")
    op = chain.operator(1)
    assert spectral.SPECTRA_CUTOFF < op.dim
    res = lowest_eigenpairs(op, 4)
    assert res.solver == "eigsh-mixed" and res.kernel_dim == 1
    assert dims == [chain.dim(0), chain.dim(2)] and max(dims) <= spectral.SPECTRA_CUTOFF
    assert factors == [chain.dim(0) + 1]
    kp = kernel_projector(op)
    rhs = chain.d_matrix(0) @ np.random.default_rng(0).standard_normal(chain.dim(0))
    w = solve_on_range(op, rhs)
    assert kp.dim == 1 and len(dims) == 2
    assert factors == [chain.dim(0) + 1, chain.dim(1)]
    assert _certified_residual(op, rhs, w, kp) <= 1e-11


@pytest.fixture(scope="module")
def disk_fine_chain():
    """The normal chain on the disk at h = 0.05: 7656 p = 1 DOFs, 5046 p = 2."""
    return OperatorChain(generate_mesh(DomainSpec.disk(1.0), 0.05),
                         Potential.quadratic(1.0, 2), "normal")


def _mass_shift(M) -> float:
    return -1e-2 * float(np.mean(M.diagonal()))


def test_sparse_lu_fill_and_solves(disk_fine_chain):
    """On the disk at h = 0.05 the symmetric order of sparse_lu fills L + U
    less than SuperLU's default order, for the p = 1 mass and the p = 1
    shifted mixed saddle (10 267 DOFs), and its solves match spsolve."""
    op = disk_fine_chain.operator(1)
    saddle = shifted_mixed_saddle(op, _mass_shift(op.M))
    rng = np.random.default_rng(0)
    for X in (op.M, saddle):
        lu, default = operators.sparse_lu(X), spla.splu(X)
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz
        b = rng.standard_normal(X.shape[0])
        x, ref = lu.solve(b), spla.spsolve(X, b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_eigensolve_factor_rcm_fill_and_solves(disk_fine_chain):
    """The top-degree eigensolve's factor on the disk at h = 0.05, _rcm_lu
    of S_up(1) - sigma M_1 (7656 DOFs), fills L + U to at most 0.9 times
    plain sparse_lu of the same matrix and 0.9 times the RCM-ordered factor
    of the shifted p = 2 mixed saddle it replaces (12 702 DOFs); its
    solves, permuted back, match spsolve."""
    chain = disk_fine_chain
    sigma = _mass_shift(chain.mass(2))
    A = (chain.up_stiffness(1) - sigma * chain.mass(1)).tocsc()
    lu, perm = spectral._rcm_lu(A)
    fill = lu.L.nnz + lu.U.nnz
    plain = operators.sparse_lu(A)
    saddle, _ = spectral._rcm_lu(shifted_mixed_saddle(chain.operator(2), sigma))
    assert fill <= 0.9 * (plain.L.nnz + plain.U.nnz)
    assert fill <= 0.9 * (saddle.L.nnz + saddle.U.nnz)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x, ref = np.empty_like(b), spla.spsolve(A, b)
    x[perm] = lu.solve(b[perm])
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("realization", ["normal", "tangential"])
@pytest.mark.parametrize("p", [1, 2])
def test_range_solve_fill_on_fine_disk(monkeypatch, disk_fine_chain, p, realization):
    """On the disk at h = 0.05 a hodge_decompose of 5 random cochains at
    p = 1 and p = 2 certifies on range-solve factors of at most 0.5 M
    entries of L + U in all: S_up(0) (bordered by the constants under
    normal) and S_up(1) - sigma M_1, 0.20-0.33 M together.  The mixed
    saddles they replace filled 0.74-11.3 M."""
    chain = disk_fine_chain
    if realization == "tangential":
        chain = OperatorChain(chain.cplx, chain.potential, realization)
    chain._range.clear()     # the fixture's chain is shared across cases
    fills = []
    lu = spectral.sparse_lu

    def counted(A):
        factor = lu(A)
        fills.append(factor.L.nnz + factor.U.nnz)
        return factor

    monkeypatch.setattr(spectral, "sparse_lu", counted)
    op = chain.operator(p)
    X = np.random.default_rng(0).standard_normal((op.dim, 5))
    split = hodge_decompose(X, op)
    assert split.recomposition_residual.max() <= 1e-12
    assert fills and sum(fills) <= 0.5e6


def test_spectral_result_m_orthonormal():
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 32)
    chain = OperatorChain(m, Potential.zero(1), "tangential")
    res = lowest_eigenpairs(chain.operator(0), 2)
    V = res.eigenvectors
    assert V.shape == (chain.dim(0), 2)
    assert np.abs(V.T @ (chain.mass(0) @ V) - np.eye(2)).max() <= 1e-9


@pytest.mark.parametrize("domain, V, p, h, levels, kernel, lowest", [
    (DomainSpec.disk(1.0), Potential.quadratic(2.0, 2), 1, 0.3, 4, 0, 4.344690),
    (DomainSpec.annulus(0.5, 1.0), Potential.zero(2), 1, 0.3, 4, 1, None),
    (DomainSpec.rectangle(0, 1, 0, 1), Potential.quadratic(1.0, 2), 2, 0.2, 4, 0, None),
    (DomainSpec.interval(0, 1), Potential.quadratic(1.0, 1), 1, 1 / 64, 3, 0, None),
], ids=["disk-p1", "annulus-p1", "rectangle-p2", "interval-p1"])
def test_normal_realization_two_routes_agree(domain, V, p, h, levels, kernel, lowest):
    """The normal realization (p, normal, V) assembled directly on the
    unconstrained chain and its star dual from dual_problem have kernels of
    one dimension (the harmonic field on the annulus) and extrapolate to the
    same spectrum above them, validating the direct assembly beyond p = 0."""
    from hodgecheck.checks import _richardson

    dual_p, dual_b, dual_V = dual_problem(p, "normal", V, domain.ambient_dim)
    cplx = generate_mesh(domain, h)
    direct_levels, dual_levels = [], []
    for _ in range(levels):
        res_n = lowest_eigenpairs(OperatorChain(cplx, V, "normal").operator(p), 3, seed=1)
        res_d = lowest_eigenpairs(OperatorChain(cplx, dual_V, dual_b).operator(dual_p), 3,
                                  seed=1)
        assert res_n.kernel_dim == res_d.kernel_dim == kernel
        direct_levels.append(res_n.eigenvalues)
        dual_levels.append(res_d.eigenvalues)
        cplx = refine(cplx)
    for i in range(kernel, 3):
        a = _richardson([lev[i] for lev in direct_levels])
        b = _richardson([lev[i] for lev in dual_levels])
        assert abs(a - b) <= 1e-6 * abs(a)
    if lowest is not None:  # on the disk the exact branch shares the degree-0 spectrum
        assert abs(_richardson([lev[0] for lev in direct_levels]) - lowest) < 1e-4


def test_circle_periodic_spectrum():
    """Unit circle, V = 0: eigenvalues k^2 with multiplicity two."""
    m = generate_mesh(DomainSpec.circle(1.0), 2 * np.pi / 96)
    res = lowest_eigenpairs(OperatorChain(m, Potential.zero(1), "none").operator(0), 5)
    assert res.kernel_dim == 1
    assert np.allclose(res.eigenvalues, [0, 1, 1, 4, 4], rtol=5e-3)


def _range_case(domain, realization, h, p, with_projector):
    """Operator, a right side on the range of d (or off the kernel at p = 0)
    and the kernel projector, if one is used."""
    V = Potential.quadratic(1.0, domain.ambient_dim)
    chain = OperatorChain(generate_mesh(domain, h), V, realization)
    op = chain.operator(p)
    kp = kernel_projector(op) if with_projector else None
    rng = np.random.default_rng(5)
    if p == 1:
        rhs = chain.apply_d(0, rng.standard_normal(chain.dim(0)))
    else:
        rhs = kp.complement(rng.standard_normal(op.dim))
    return op, rhs, kp


def _certified_residual(op, rhs, w, kp=None) -> float:
    """||M rhs - S w||_{M^-1} / ||M rhs||_{M^-1}, kernel deflated, recomputed here."""
    b = op.M @ rhs
    r = b - op.stiff_matvec(w)
    z = np.linalg.solve(op.M.toarray(), r)
    if kp is not None:
        z = kp.complement(z)
    return float(np.sqrt(z @ (op.M @ z) / (b @ np.linalg.solve(op.M.toarray(), b))))


@pytest.mark.parametrize("domain, realization, h, p, with_projector", [
    (DomainSpec.interval(0, 1), "normal", 1 / 64, 1, False),
    (DomainSpec.interval(0, 1), "tangential", 1 / 64, 1, False),  # kernel, not deflated
    (DomainSpec.annulus(0.5, 1.0), "normal", 0.3, 1, True),
    (DomainSpec.disk(1.0), "normal", 0.3, 0, True),              # constants kernel
], ids=["interval-normal-p1", "interval-tangential-p1", "annulus-p1", "disk-normal-p0"])
def test_range_solve_paths_agree(domain, realization, h, p, with_projector):
    """The bordered saddle and the dense pseudo-inverse oracle give the same
    certified solution."""
    op, rhs, kp = _range_case(domain, realization, h, p, with_projector)
    if realization == "tangential":
        assert lowest_eigenpairs(op, 2).kernel_dim == 1
    w = solve_on_range(op, rhs)
    d = w - range_solve_oracle(op, rhs, kp)
    assert np.sqrt(d @ (op.M @ d) / (w @ (op.M @ w))) <= 1e-9
    assert _certified_residual(op, rhs, w, kp) <= 1e-10


def test_range_solve_refines_smooth_fine_rhs():
    """h = 1/1024, d of the interpolant of x: the refined solve meets the
    certificate and the 1/12 variance."""
    m = generate_mesh(DomainSpec.interval(0, 1), 1 / 1024)
    chain = OperatorChain(m, Potential.zero(1), "normal")
    op = chain.operator(1)
    eta = chain.interpolate(_linear_form())
    deta = chain.apply_d(0, eta)
    w = solve_on_range(op, deta, tol=1e-11)
    assert _certified_residual(op, deta, w) <= 1e-11
    lhs, rhs = check_variance_identity(eta, chain)
    assert abs(lhs - rhs) <= 1e-12 * lhs and abs(lhs - 1 / 12) <= 1e-6


def test_range_solve_zero_and_kernel_rhs():
    """Without a projector the border is the chain's own b_0 = 1 kernel
    basis, the closed-form constant.  A zero right side gives zero, a
    kernel part cannot be solved."""
    op, rhs, kp = _range_case(DomainSpec.disk(1.0), "normal", 0.3, 0, True)
    assert np.array_equal(solve_on_range(op, np.zeros(op.dim)), np.zeros(op.dim))
    w = solve_on_range(op, rhs)
    assert np.allclose(w, range_solve_oracle(op, rhs), rtol=0, atol=1e-10 * np.abs(w).max())
    # a constant part lies in the kernel: no w solves it, so no certificate
    with pytest.raises(SolverError):
        solve_on_range(op, rhs + 1.0)


def test_pencil_deflates_kernel_rhs_with_projector():
    """A caller that deflates a kernel part of the right side with the
    projector first gets a solve that meets the certificate on the true
    residual, kernel deflated, and the solution of the right side without
    that part."""
    op, rhs, kp = _range_case(DomainSpec.disk(1.0), "normal", 0.3, 0, True)
    w = solve_on_range(op, kp.complement(rhs + 1.0))
    assert _certified_residual(op, rhs + 1.0, w, kp) <= 1e-11
    assert np.allclose(w, solve_on_range(op, rhs), rtol=0, atol=1e-12)


@pytest.mark.parametrize("record, args, extra", [
    (hodge_decomposition_record, (1,), {"kernel_dim", "recomposition", "orthogonality",
                                         "samples"}),
    (variance_identity_record, (), {"samples", "worst_rel"}),
], ids=["hodge_decomposition", "variance_identity"])
def test_projector_and_range_solves_share_one_decomposition(monkeypatch, record, args, extra):
    """On the annulus each record builds the kernel of L^(1) (a projector,
    or the range solve's own) with no dense eigh and no mixed saddle: one
    factor of S_up(0) bordered by the constants serves the degree-0 solve
    that makes its cocycle coclosed and the exact half of the degree-1
    split, and one of S_up(1) - sigma M_1 the coexact half, for all
    samples."""
    calls, lus = [], []
    eigh, lu = operators.dla.eigh, spectral.sparse_lu
    monkeypatch.setattr(operators.dla, "eigh", lambda *a: calls.append(1) or eigh(*a))
    monkeypatch.setattr(spectral, "sparse_lu", lambda A: lus.append(A.shape) or lu(A))
    domain, V = DomainSpec.annulus(0.5, 1.0), Potential.quadratic(1.0, 2)
    rec = record(domain, V, "normal", *args, mesh_h=0.3, n_samples=3)
    assert rec.passed and set(rec.extra) == extra
    chain = OperatorChain(generate_mesh(domain, 0.3), V, "normal")
    n0, n1 = chain.dim(0) + 1, chain.dim(1)
    assert calls == [] and lus == [(n0, n0), (n1, n1)]


@pytest.mark.parametrize("domain", [DomainSpec.disk(1.0), DomainSpec.annulus(0.5, 1.0)],
                         ids=["disk-3660", "annulus-3404-kernel"])
def test_range_solve_large_chain_without_eigh(monkeypatch, domain):
    """p = 1, normal, two refinements of h = 0.3: 3660 DOFs on the disk and
    3404 on the annulus, whose harmonic field the border builds from an
    integer cocycle.  No dense eigh runs, and the variance identity holds
    to 1e-13."""
    calls = []
    eigh = operators.dla.eigh
    monkeypatch.setattr(operators.dla, "eigh", lambda *a: calls.append(1) or eigh(*a))
    chain = OperatorChain(refine(refine(generate_mesh(domain, 0.3))),
                          Potential.quadratic(1.0, 2), "normal")
    assert chain.dim(1) > 3000
    rng = np.random.default_rng(2)
    for _ in range(3):
        lhs, rhs = check_variance_identity(rng.standard_normal(chain.dim(0)), chain)
        assert abs(lhs - rhs) <= 1e-13 * lhs
    assert calls == []


def _double_well_case(h_param):
    """Tangential p = 1 on [-2, 2] under the double well rescaled by h_param:
    the lowest mode above the kernel has a small eigenvalue (tunnelling),
    1.9e-7, 8.4e-9, 3.1e-10 and 3.4e-13 of the largest at h_param 0.3, 0.2,
    0.15 and 0.1, and one at roundoff at 0.07.  No projector: the variance
    identity inverts it."""
    V = Potential.quartic_double_well(1.0, 1).rescaled(h_param)
    chain = OperatorChain(generate_mesh(DomainSpec.interval(-2, 2), 1 / 64), V, "tangential")
    eta = np.random.default_rng(3).standard_normal(chain.dim(0))
    return chain, eta


@pytest.mark.parametrize("h_param", [0.3, 0.2, 0.15, 0.1])
def test_range_solve_inverts_small_nonkernel_modes(h_param):
    """The border holds only the kernel, so the tunnelling mode is inverted
    and the variance identity holds, on the saddle and on the oracle."""
    chain, eta = _double_well_case(h_param)
    op = chain.operator(1)
    deta = chain.apply_d(0, eta)
    w = solve_on_range(op, deta)
    assert _certified_residual(op, deta, w) <= 1e-11
    lhs, rhs = check_variance_identity(eta, chain)
    assert abs(lhs - rhs) <= 1e-13 * lhs
    rhs_oracle = float(range_solve_oracle(op, deta) @ (chain.mass(1) @ deta))
    assert abs(lhs - rhs_oracle) <= 1e-11 * lhs


@pytest.mark.parametrize("h_param", [0.2, 0.15])
def test_pencil_drops_projector_span(h_param):
    """kernel_projector holds the relative class alone (b_1 = 1), not the
    tunnelling mode above it (a threshold of 1e-8 times the largest
    eigenvalue would count both).  So the solve borders that class alone: a
    certified w with no part along the kernel."""
    chain, eta = _double_well_case(h_param)
    op = chain.operator(1)
    kp = kernel_projector(op)
    assert kp.dim == 1
    deta = chain.apply_d(0, eta)
    w = solve_on_range(op, deta)
    assert _certified_residual(op, deta, w, kp) <= 1e-11
    assert _mass_norm(chain, 1, kp.apply(w)) <= 1e-14 * _mass_norm(chain, 1, w)


@pytest.mark.parametrize("h_param, certifies", [(None, True), (0.1, True), (0.07, False)],
                         ids=["disk-kernel-rhs", "double-well-0.1", "double-well-0.07"])
def test_cg_certifies_on_true_residual(h_param, certifies):
    """Cases where an iterative solver's recursive residual once met tol
    while the true one did not (4.2e-9 on the disk, 2.5e-11 and 9.2e-10 on
    the double well): a solution the range solve returns meets tol on the
    recomputed residual and agrees with the oracle in the full M-norm, and
    at h_param 0.07, whose tunnelling mode is at roundoff, it refuses with
    SolverError.  Both take the closed-form kernel projector: the disk case
    deflates the constant part of its right side with it before the solve,
    and at h_param 0.1 (cond M 3.6e9) the oracle's pencil is restricted to
    its complement in Jacobi-scaled coordinates, without which the two
    differ by 0.9998."""
    if h_param is None:
        op, rhs, kp = _range_case(DomainSpec.disk(1.0), "normal", 0.3, 0, True)
        rhs = kp.complement(rhs + 1.0)
    else:
        chain, eta = _double_well_case(h_param)
        op, rhs = chain.operator(1), chain.apply_d(0, eta)
        kp = kernel_projector(op)
    if not certifies:
        with pytest.raises(SolverError, match="did not certify"):
            solve_on_range(op, rhs)
        return
    w = solve_on_range(op, rhs)
    assert _certified_residual(op, rhs, w, kp) <= 1e-11
    d = w - range_solve_oracle(op, rhs, kp)
    assert np.sqrt(d @ (op.M @ d) / (w @ (op.M @ w))) <= 1e-9


def test_range_solve_refuses_modes_at_roundoff():
    """A mode whose eigenvalue is at roundoff, above the b_1 = 1 kernel,
    cannot be inverted to the certificate: the solve refuses rather than
    return an uncertified solution."""
    chain, eta = _double_well_case(0.07)
    vals, _ = chain.operator(1).pencil()
    assert abs(vals[1]) <= 1e-15 * vals[-1]
    with pytest.raises(SolverError, match="did not certify"):
        solve_on_range(chain.operator(1), chain.apply_d(0, eta))


@pytest.mark.parametrize("realization", ["normal", "tangential"])
def test_top_degree_range_solve_inverts_small_eigenvalue(realization):
    """p = 2 on disk(1.5), mesh_h 0.1, under the double well over h: the
    lowest eigenvalue above the kernel is 3.8e-7 at h = 0.012 and 7.9e-9 at
    h = 0.010.  The top-degree refinement contracts that mode by
    |sigma| / (lambda + |sigma|) a step, sigma = RANGE_SHIFT = -1e-8, so a
    hodge_decompose certifies at h = 0.012 and refuses at h = 0.010, where
    the contraction is above 1/2."""
    cplx = generate_mesh(DomainSpec.disk(1.5), 0.1)
    rng = np.random.default_rng(0)
    for h, certifies in ((0.012, True), (0.010, False)):
        chain = OperatorChain(cplx, Potential.quartic_double_well(1.0, 2).rescaled(h),
                              realization)
        op = chain.operator(2)
        X = rng.standard_normal((op.dim, 5))
        if not certifies:
            with pytest.raises(SolverError, match="did not certify"):
                hodge_decompose(X, op)
            continue
        split = hodge_decompose(X, op)
        assert split.recomposition_residual.max() <= 1e-10
        assert split.orthogonality_residuals.max() <= 1e-10


LSHAPE = DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("domain, h, betti", [
    (DomainSpec.interval(0, 1), 0.2, (1, 0)),
    (DomainSpec.circle(1.0), 0.8, (1, 1)),
    (DomainSpec.flat_torus(2.0), 0.5, (1, 1)),
    (DomainSpec.disk(1.0), 0.5, (1, 0, 0)),
    (DomainSpec.annulus(0.5, 1.0), 0.4, (1, 1, 0)),
    (DomainSpec.rectangle(0, 1, 0, 2), 0.5, (1, 0, 0)),
    (LSHAPE, 0.6, (1, 0, 0)),
    (DomainSpec.flat_torus(1.0, 1.0), 0.35, (1, 2, 1)),
], ids=["interval", "circle", "torus-1d", "disk", "annulus", "rectangle", "l-shape",
        "torus-2d"])
def test_betti_numbers_match_dense_ranks(domain, h, betti):
    """Every allowed realization and degree: the chain's Betti number is
    dim - rank D_p - rank D_{p-1} on its free DOFs (dense ranks), the
    absolute numbers for normal and none, and Lefschetz duality
    b_p(mesh, boundary) = b_{n-p}(mesh) for tangential."""
    cplx = generate_mesh(domain, h)
    n = cplx.dim
    assert betti_numbers(cplx) == betti
    for b in (("tangential", "normal") if domain.has_boundary else ("none",)):
        chain = OperatorChain(cplx, Potential.zero(domain.ambient_dim), b)
        ranks = [np.linalg.matrix_rank(chain.d_matrix(p).toarray()) for p in range(n)] + [0]
        for p in range(n + 1):
            expected = chain.dim(p) - ranks[p] - (ranks[p - 1] if p else 0)
            assert chain.betti(p) == expected, (b, p)
            assert chain.betti(p) == betti[n - p if b == "tangential" else p]


DOUBLE_WELL = Potential.quartic_double_well(1.0, 1)


def _double_well_spectrum(h, b, p):
    chain = OperatorChain(generate_mesh(DomainSpec.interval(-2, 2), 0.02),
                          DOUBLE_WELL.rescaled(h), b)
    return lowest_eigenpairs(chain.operator(p), 4)


def test_exponentially_small_eigenvalue_is_not_kernel():
    """[-2, 2] under the double well over h, mesh_h 0.02: the tunnelling
    eigenvalue 8.13e-5 at h = 0.02 (normal p = 0) stays above the one
    kernel vector, and semiclassical_sweep reads it as lambda1 (the record
    stays not_applicable, since a double well violates the hypothesis).
    Tangential at h = 0.05 counts the relative b_0 = 0 and b_1 = 1."""
    res = _double_well_spectrum(0.02, "normal", 0)
    assert res.kernel_dim == 1 and res.eigenvalues[0] == 0.0
    assert res.eigenvalues[1] == pytest.approx(8.13e-5, rel=1e-3)
    recs = semiclassical_sweep(DOUBLE_WELL, DomainSpec.interval(-2, 2), "normal", 0,
                               [0.1, 0.05, 0.03, 0.02], mesh_h=0.02)
    assert recs[-1].h_param == 0.02
    assert recs[-1].extra["lambda1"] == pytest.approx(8.13e-5, rel=1e-3)
    assert [rec.status for rec in recs] == ["not_applicable"] * 4
    assert _double_well_spectrum(0.05, "tangential", 0).kernel_dim == 0
    assert _double_well_spectrum(0.05, "tangential", 1).kernel_dim == 1


def test_kernel_count_is_certified(monkeypatch):
    """A Betti number the spectrum does not bear out raises "kernel
    unresolved" rather than being recounted: one too many on the disk's
    normal p = 0 chain, whose second eigenvalue is far from roundoff."""
    chain = OperatorChain(generate_mesh(DomainSpec.disk(1.0), 0.4), Potential.quadratic(1.0, 2),
                          "normal")
    op = chain.operator(0)
    assert lowest_eigenpairs(op, 3).kernel_dim == 1
    monkeypatch.setattr(chain, "betti", lambda p: 2)
    with pytest.raises(SolverError, match="kernel unresolved"):
        lowest_eigenpairs(op, 3)


def test_no_kernel_probe_where_betti_is_zero(monkeypatch):
    """Where b_p = 0 neither a projector nor a range solve runs an
    eigensolve, and the range solve takes no factor of its own degree: the
    degree-1 split runs on the factors of degrees 0 and 2, kept on the
    chain by degree."""
    monkeypatch.setattr(spectral, "lowest_eigenpairs", None)
    factors = []
    lu = spectral.sparse_lu
    monkeypatch.setattr(spectral, "sparse_lu", lambda A: factors.append(A.shape[0]) or lu(A))
    chain = OperatorChain(generate_mesh(DomainSpec.disk(1.0), 0.3), Potential.quadratic(1.0, 2),
                          "normal")
    op = chain.operator(1)
    assert chain.betti(1) == 0 and kernel_projector(op).dim == 0
    rhs = chain.d_matrix(0) @ np.random.default_rng(0).standard_normal(chain.dim(0))
    w = solve_on_range(op, rhs)
    assert _certified_residual(op, rhs, w) <= 1e-11
    assert sorted(chain._range) == [0, 1, 2]
    assert factors == [chain.dim(0) + 1, chain.dim(1)]


@pytest.mark.parametrize("domain, h, realization", [
    (DomainSpec.disk(1.0), 0.3, "normal"),
    (DomainSpec.interval(0, 1), 1 / 64, "tangential"),     # bordered by the relative class
], ids=["disk", "interval"])
def test_block_range_solve_matches_column_solves(domain, h, realization):
    """Each column of a (dim, m) solve is, bit for bit, its single-column
    solve."""
    chain = OperatorChain(generate_mesh(domain, h), Potential.quadratic(1.0, domain.ambient_dim),
                          realization)
    op = chain.operator(1)
    R = chain.d_matrix(0) @ np.random.default_rng(1).standard_normal((chain.dim(0), 5))
    W = solve_on_range(op, R)
    assert W.shape == R.shape
    for j in range(R.shape[1]):
        assert np.array_equal(W[:, j], solve_on_range(op, R[:, j]))


def test_block_range_solve_certifies_each_column():
    """A block with one column that has a kernel part (no projector) fails,
    and the error names that column; without it the block certifies."""
    op, rhs, kp = _range_case(DomainSpec.disk(1.0), "normal", 0.3, 0, True)
    R = np.column_stack([rhs, 2 * rhs, rhs + 1.0, -rhs])
    with pytest.raises(SolverError, match=r"did not certify \(column 2\)"):
        solve_on_range(op, R)
    W = solve_on_range(op, np.delete(R, 2, axis=1))
    for j, col in enumerate((rhs, 2 * rhs, -rhs)):
        assert _certified_residual(op, col, W[:, j]) <= 1e-11


@pytest.mark.parametrize("domain, V, b", [
    (DomainSpec.disk(1.0), Potential.quadratic(1.0, 2), "normal"),
    (DomainSpec.disk(1.0), Potential.quadratic(1.0, 2), "tangential"),
    (DomainSpec.interval(0, 1), Potential.linear(1.0, 1), "tangential"),
], ids=["disk-normal", "disk-tangential", "interval-tangential"])
def test_variance_record_equals_per_sample_computation(monkeypatch, domain, V, b):
    """variance_identity_record makes one range solve for all samples, and
    its record is JSON-equal to the one built from sequential draws solved
    one sample at a time."""
    n_samples, seed, mesh_h = 6, 7, 0.3 if domain.ambient_dim == 2 else 1 / 32
    calls = []
    solve = checks.solve_on_range
    monkeypatch.setattr(checks, "solve_on_range", lambda op, r: calls.append(r.shape) or solve(op, r))
    rec = variance_identity_record(domain, V, b, mesh_h, n_samples=n_samples, seed=seed)
    chain = OperatorChain(generate_mesh(domain, mesh_h), V, b)
    assert calls == [(chain.dim(1), n_samples)]
    rng = np.random.default_rng(seed)
    worst, pair = 0.0, (0.0, 0.0)
    for _ in range(n_samples):
        lhs, rhs = check_variance_identity(rng.standard_normal(chain.dim(0)), chain)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        if rel > worst:
            worst, pair = rel, (lhs, rhs)
    ref = checks.identity_record("variance_identity", *pair, rec.tolerance, rel_err=worst,
                                 **checks._labels(domain, V), p=0, b=b, mesh_h=rec.mesh_h,
                                 quad_order=rec.quad_order,
                                 extra={"samples": n_samples, "worst_rel": worst})
    assert rec.passed
    assert json.dumps(rec.to_json_dict()) == json.dumps(ref.to_json_dict())


def _sin_angle(M, K, P) -> float:
    """Sine of the largest principal angle between the spans of the
    M-orthonormal columns K and P."""
    R = P - K @ (K.T @ (M @ P))
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(R.T @ (M @ R)).max())))


CLOSED_FORM_DOMAINS = [
    (DomainSpec.interval(0, 1), 0.1), (DomainSpec.circle(1.0), 0.3),
    (DomainSpec.flat_torus(2.0), 0.2), (DomainSpec.disk(1.0), 0.3),
    (DomainSpec.annulus(0.5, 1.0), 0.25), (DomainSpec.rectangle(0, 1, 0, 2), 0.3),
    (LSHAPE, 0.4), (DomainSpec.flat_torus(1.0, 1.0), 0.25)]
# b_p > 0 at p in {0, n}: normal p = 0 and tangential p = n on a bounded
# domain, none at both degrees on a closed one
CLOSED_FORM_CASES = [
    (domain, h, b, p)
    for domain, h in CLOSED_FORM_DOMAINS
    for b, p in ((("normal", 0), ("tangential", domain.ambient_dim)) if domain.has_boundary
                 else (("none", 0), ("none", domain.ambient_dim)))]


@pytest.mark.parametrize("domain, h, b, p", CLOSED_FORM_CASES,
                         ids=[f"{d.kind}-{d.ambient_dim}d-{b}-p{p}"
                              for d, _, b, p in CLOSED_FORM_CASES])
def test_harmonic_basis_in_closed_form(monkeypatch, domain, h, b, p):
    """At degrees 0 and n the kernel basis comes from the component labels,
    with no eigensolve: b_p M-orthonormal columns with D_0 K = 0 or
    D_{n-1}^T M_n K = 0 and eigen residuals at roundoff, spanning the
    probe's kernel eigenvectors to a principal angle of 1e-12."""
    n = domain.ambient_dim
    V = Potential.quadratic(1.0, n) if domain.has_boundary else Potential.zero(n)
    chain = OperatorChain(generate_mesh(domain, h), V, b)
    op, bp = chain.operator(p), chain.betti(p)
    assert bp >= 1
    probe = lowest_eigenpairs(op, min(op.dim, max(6, bp + 1)))
    monkeypatch.setattr(spectral, "lowest_eigenpairs", None)
    K = kernel_projector(op).basis
    assert K.shape == (op.dim, bp)
    assert np.abs(K.T @ (op.M @ K) - np.eye(bp)).max() <= 1e-12
    if p == 0:
        assert np.abs(chain.d_matrix(0) @ K).max() <= 1e-14 * np.abs(K).max()
    else:
        MK = op.M @ K
        assert np.abs(chain.d_matrix(p - 1).T @ MK).max() <= 1e-13 * np.abs(MK).max()
    assert spectral._residual_norms(op, np.zeros(bp), K).max() <= 1e-12
    assert _sin_angle(op.M, K, probe.eigenvectors[:, :bp]) <= 1e-12


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("a kernel basis ran an eigensolve")


@pytest.mark.parametrize("domain, h, b", [
    (DomainSpec.interval(0, 1), 1 / 32, "normal"),
    (DomainSpec.interval(0, 1), 1 / 32, "tangential"),
    (DomainSpec.disk(1.0), 0.3, "normal"),
    (DomainSpec.disk(1.0), 0.3, "tangential"),
    (DomainSpec.annulus(0.5, 1.0), 0.25, "normal"),
    (DomainSpec.annulus(0.5, 1.0), 0.25, "tangential"),
    (DomainSpec.flat_torus(1.0, 1.0), 0.35, "none"),
], ids=["interval-normal", "interval-tangential", "disk-normal", "disk-tangential",
        "annulus-normal", "annulus-tangential", "torus-2d"])
def test_no_kernel_basis_runs_an_eigensolve(monkeypatch, domain, h, b):
    """Every degree of every realization builds its kernel basis from
    topology: with lowest_eigenpairs raising, each projector holds b_p
    harmonic forms and each range solve without one finds its own border
    and certifies."""
    monkeypatch.setattr(spectral, "lowest_eigenpairs", _no_eigensolve)
    n = domain.ambient_dim
    V = Potential.quadratic(1.0, n) if domain.has_boundary else Potential.zero(n)
    chain = OperatorChain(generate_mesh(domain, h), V, b)
    rng = np.random.default_rng(0)
    for p in range(n + 1):
        op = chain.operator(p)
        kp = kernel_projector(op)
        assert kp.dim == chain.betti(p)
        assert spectral._residual_norms(op, np.zeros(kp.dim), kp.basis).max(initial=0) <= 1e-10
        if p:
            rhs = chain.d_matrix(p - 1) @ rng.standard_normal(chain.dim(p - 1))
            w = solve_on_range(op, rhs)
            assert _certified_residual(op, rhs, w, kp) <= 1e-11
    assert domain.kind not in ("annulus", "flat_torus") or chain.betti(1) >= 1


@pytest.mark.parametrize("domain, h, V, b", [
    (DomainSpec.annulus(0.5, 1.0), 0.1, Potential.quadratic(1.0, 2), "normal"),
    (DomainSpec.annulus(0.5, 1.0), 0.1, Potential.quadratic(1.0, 2), "tangential"),
    (DomainSpec.annulus(0.5, 1.0), 0.8, Potential.quadratic(1.0, 2), "tangential"),
    (DomainSpec.flat_torus(1.0, 1.0), 0.2, Potential.zero(2), "none"),
    (DomainSpec.annulus(0.3, 1.2), 0.05,
     Potential.quartic_double_well(0.75, 2).rescaled(0.05), "normal"),
], ids=["annulus-normal", "annulus-tangential", "annulus-no-free-vertex", "torus-2d",
        "double-well-19398"])
def test_cocycle_basis_spans_the_probe_kernel(domain, h, V, b):
    """The tree-cotree cocycles are integer and closed in int64, one per
    generator; their harmonic parts span the kernel an eigensolve probe
    finds, to a principal angle of 1e-10, with eigen residuals far below
    the probe's certificate.  The double well's p = 1 chain has 19398 DOFs;
    the coarse tangential annulus has no free vertex, so no correction."""
    chain = OperatorChain(generate_mesh(domain, h), V, b)
    op = chain.operator(1)
    Z = spectral._cocycles(chain)
    assert Z.dtype == np.int64 and Z.shape == (op.dim, chain.betti(1))
    assert not (chain.d_matrix(1) @ Z).any()
    K = kernel_projector(op).basis
    assert np.abs(K.T @ (op.M @ K) - np.eye(K.shape[1])).max() <= 1e-12
    assert spectral._residual_norms(op, np.zeros(K.shape[1]), K).max() <= 1e-9
    assert _sin_angle(op.M, K, kernel_probe_oracle(op, chain.betti(1))) <= 1e-10


def test_cocycle_count_is_certified(monkeypatch):
    """A b_1 one too large raises SolverError at the tree-cotree count, in a
    projector and in a range solve's border, and no eigensolve stands in."""
    monkeypatch.setattr(spectral, "lowest_eigenpairs", _no_eigensolve)
    chain = OperatorChain(generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.3),
                          Potential.quadratic(1.0, 2), "normal")
    betti = chain.betti
    monkeypatch.setattr(chain, "betti", lambda p: betti(p) + (p == 1))
    op = chain.operator(1)
    with pytest.raises(SolverError, match=r"1 generator\(s\), but b_1 = 2"):
        kernel_projector(op)
    with pytest.raises(SolverError, match="tree-cotree"):
        solve_on_range(op, chain.d_matrix(0) @ np.ones(chain.dim(0)))


def test_closed_form_kernel_is_exact_under_strong_weights():
    """Tangential p = 1 on the h_param 0.1 double well, where the kernel
    eigenvector of a probe reads a residual of 2.0e-11 and lies 1.8e-5 off
    the exact kernel: the closed-form vector has a residual at most 1e-12
    and is coclosed to the roundoff of one mass product."""
    chain, _ = _double_well_case(0.1)
    op = chain.operator(1)
    K = kernel_projector(op).basis
    assert K.shape == (op.dim, 1)
    assert spectral._residual_norms(op, [0.0], K)[0] <= 1e-12
    MK = op.M @ K
    assert np.abs(chain.d_matrix(0).T @ MK).max() <= 1e-14 * np.abs(MK).max()


def test_harmonic_basis_counts_components():
    """Two disjoint intervals: b_0 = 2, so normal p = 0 and tangential
    p = 1 each have two kernel vectors, one per component, and the variance
    identity centres each component by its own weighted mean (one
    projection onto the constants would not)."""
    x = np.r_[np.linspace(0, 1, 9), np.linspace(2, 3.5, 13)]
    edges = np.r_[[[i, i + 1] for i in range(8)], [[i, i + 1] for i in range(9, 21)]]
    cplx = SimplicialComplex(1, x[:, None], {1: edges})
    assert betti_numbers(cplx) == (2, 0)
    rng = np.random.default_rng(0)
    for b, p in (("normal", 0), ("tangential", 1)):
        chain = OperatorChain(cplx, Potential.quadratic(1.0, 1), b)
        kp = kernel_projector(chain.operator(p))
        assert kp.dim == 2
        # one component per column
        assert np.count_nonzero(np.abs(kp.basis) > 1e-12, axis=1).max() == 1
        eta = rng.standard_normal((chain.dim(0), 3))
        lhs, rhs = check_variance_identity(eta, chain)
        assert np.abs(lhs - rhs).max() <= 1e-13 * lhs.max()


@pytest.mark.parametrize("domain, b, p", [
    (DomainSpec.annulus(0.5, 1.0), "tangential", 1),
    (DomainSpec.disk(1.0), "normal", 0),
    (DomainSpec.disk(1.0), "tangential", 2),
], ids=["annulus-tangential-p1", "disk-normal-p0", "disk-tangential-p2"])
def test_block_hodge_decompose_matches_columns(domain, b, p):
    """A (dim, m) block splits in one range solve, each column as it splits
    alone: its parts to 1e-12 and its recomposition residual and its 3
    orthogonality residuals to 1e-15."""
    chain = OperatorChain(generate_mesh(domain, 0.3), Potential.quadratic(1.0, 2), b)
    op = chain.operator(p)
    X = np.random.default_rng(2).standard_normal((chain.dim(p), 4))
    split = hodge_decompose(X, op)
    assert split.recomposition_residual.shape == (4,)
    assert split.orthogonality_residuals.shape == (3, 4)
    for j in range(4):
        one = hodge_decompose(X[:, j], op)
        for block, col in zip((split.kernel_part, split.exact_part, split.coexact_part),
                              (one.kernel_part, one.exact_part, one.coexact_part)):
            assert np.abs(block[:, j] - col).max() <= 1e-12 * np.abs(X).max()
        assert split.recomposition_residual[j] == pytest.approx(one.recomposition_residual,
                                                                abs=1e-15)
        assert one.orthogonality_residuals.shape == (3,)
        assert np.abs(split.orthogonality_residuals[:, j]
                      - one.orthogonality_residuals).max() <= 1e-15
        assert split.recomposition_residual[j] <= 1e-12
        assert split.orthogonality_residuals[:, j].max() <= 1e-12


def test_hodge_record_makes_one_range_solve(monkeypatch):
    """hodge_decomposition_record splits all its samples, drawn as one
    (n_samples, dim) block, in one degree-1 range solve; its kernel
    projector makes the one degree-0 solve of the cocycle's correction."""
    calls = []
    solve = spectral.solve_on_range
    monkeypatch.setattr(spectral, "solve_on_range",
                        lambda op, r, **kw: calls.append((op.p, r.shape)) or solve(op, r, **kw))
    domain, V = DomainSpec.annulus(0.5, 1.0), Potential.quadratic(1.0, 2)
    rec = hodge_decomposition_record(domain, V, "tangential", 1, 0.3, n_samples=5, seed=4)
    chain = OperatorChain(generate_mesh(domain, 0.3), V, "tangential")
    assert calls == [(0, (chain.dim(0), 1)), (1, (chain.dim(1), 5))]
    assert rec.passed and rec.extra["kernel_dim"] == 1 and rec.extra["samples"] == 5


def test_components_computed_once_per_complex(monkeypatch):
    """The component labels are the one topology of a mesh: the Betti
    numbers and the closed-form bases of every chain on one complex read
    them from a single connected_components call."""
    import hodgecheck.meshing as meshing

    calls = []
    components = meshing.connected_components
    monkeypatch.setattr(meshing, "connected_components",
                        lambda *a, **kw: calls.append(1) or components(*a, **kw))
    cplx = generate_mesh(DomainSpec.annulus(0.5, 1.0), 0.3)
    for b in ("normal", "tangential"):
        chain = OperatorChain(cplx, Potential.quadratic(1.0, 2), b)
        assert [kernel_projector(chain.operator(p)).dim for p in (0, 2)] == \
            [chain.betti(0), chain.betti(2)]
    assert betti_numbers(cplx) == (1, 1, 0)
    assert calls == [1]
