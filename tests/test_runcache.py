"""The run-scoped cache: byte-identical reports, scope lifetime, content keys."""

import json
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from hodgecheck import checks as checks_mod
from hodgecheck import operators as operators_mod
from hodgecheck import report as report_mod
from hodgecheck import runcache
from hodgecheck import spectral as spectral_mod
from hodgecheck.config import load_config
from hodgecheck.domains import DomainSpec
from hodgecheck.meshing import SimplicialComplex, generate_mesh
from hodgecheck.operators import CHAIN_QUAD_ORDER, OperatorChain
from hodgecheck.potentials import Potential, _COORDS, _lambdify
from hodgecheck.spectral import SPECTRA_CUTOFF, check_intertwining, lowest_eigenpairs

ROOT = Path(__file__).resolve().parents[1]
SMALL_DISK = {
    "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
    "potential": "quadratic(1.0)", "degrees": [0, 1],
    "realizations": ["normal", "tangential"], "N": ["inf", 4],
    "checks": ["eigen_spectrum", "gap_lower_bound", "duality_spectrum",
               "semiclassical_sweep", "hypothesis_check", "bl_scalar", "bl_forms",
               "variance_identity", "intertwining", "hodge_decomposition"],
    "mesh": {"target_h": 0.4, "refinements": 0}, "h_list": [1.0, 0.5],
    "eigen_count": 3, "n_samples": 3, "seed": 5,
}
INTERVAL = DomainSpec.interval(0, 1)
V1 = Potential.quadratic(1.0, 1)


def _open():
    return runcache._store.get() is not None


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_report_byte_identical_inside_and_outside_a_scope(monkeypatch):
    """run_config shares meshes and spectra between checks; the same runners
    called outside a scope compute everything afresh and give the same bytes.
    The cache holds meshes, spectra, curvature minima, functions, full
    masses and potential derivations only (minima, masses and derivations
    are tuples), never a chain, an operator or a dense pencil."""
    cfg = load_config(SMALL_DISK)
    stored = set()
    lookup = runcache.cached

    def spy(key, compute):
        value = lookup(key, compute)
        stored.add(type(value))
        return value

    monkeypatch.setattr(runcache, "cached", spy)
    inside = report_mod.run_config(cfg).to_json()
    assert not _open()
    records = [r for cid in cfg.checks for r in report_mod.RUNNERS[cid](cfg)]
    outside = report_mod.Report(cfg.echo(), report_mod._environment(), records)
    assert outside.finalize().to_json() == inside
    assert json.loads(inside)["summary"]["fail"] == 0
    assert {t for t in stored if t.__name__ != "function"} == {
        SimplicialComplex, dict, tuple}   # a dict holds each problem's spectrum


@pytest.mark.parametrize("entry", [report_mod.run_config, report_mod.convergence_study])
def test_scope_dropped_on_return_and_on_raise(monkeypatch, entry):
    cfg = load_config({"domain": {"kind": "interval", "parameters": [0, 1]},
                       "potential": "zero", "degrees": [0], "realizations": ["normal"],
                       "checks": ["eigen_spectrum"],
                       "mesh": {"target_h": 0.25, "refinements": 2}})
    seen = []
    runner = report_mod.RUNNERS["eigen_spectrum"]

    def spy(cfg, timings=False):
        seen.append(_open())
        return runner(cfg, timings=timings)

    monkeypatch.setitem(report_mod.RUNNERS, "eigen_spectrum", spy)
    entry(cfg)
    assert seen and all(seen) and not _open()

    def boom(cfg, timings=False):
        raise RuntimeError("runner failed")

    monkeypatch.setitem(report_mod.RUNNERS, "eigen_spectrum", boom)
    with pytest.raises(RuntimeError, match="runner failed"):
        entry(cfg)
    assert not _open()


def test_problems_differing_in_one_key_field_do_not_share(monkeypatch):
    """A spectrum is keyed by its chain's content: each of the complex
    (mesh_h), the potential expression (semiclassical h), realization,
    quadrature order, degree and seed makes a new entry; the potential's
    name does not: rescaled(1.0) renames V but solves the same problem.  k
    is not in the key: fewer pairs are served from the entry, more solve
    once and replace it."""
    solved = _counting(monkeypatch, spectral_mod, "_eigenpairs")

    def spectrum(potential=V1, b="normal", k=3, seed=1, mesh_h=1 / 16, degree=0,
                 quad_order=CHAIN_QUAD_ORDER):
        chain = OperatorChain(checks_mod._mesh(INTERVAL, mesh_h), potential, b, quad_order)
        return lowest_eigenpairs(chain.operator(degree), k, seed=seed)

    with runcache.scope():
        base = spectrum()
        assert spectrum() is base and spectrum(V1.rescaled(1.0)) is base
        assert len(solved) == 1
        fewer = spectrum(k=2)
        assert len(solved) == 1 and fewer is not base
        assert np.array_equal(fewer.eigenvalues, base.eigenvalues[:2])
        more = spectrum(k=5)
        assert len(solved) == 2 and len(more.eigenvalues) == 5
        assert spectrum(k=5) is more and len(spectrum().eigenvalues) == 3
        assert len(solved) == 2
        variants = [dict(b="tangential"), dict(seed=2), dict(potential=V1.rescaled(0.5)),
                    dict(mesh_h=1 / 8), dict(degree=1), dict(quad_order=8)]
        for i, variant in enumerate(variants, start=3):
            assert spectrum(**variant) is not base
            assert len(solved) == i
    spectrum()
    assert len(solved) == len(variants) + 3   # outside a scope every call solves


def test_disk_suite_solves_each_spectrum_once(monkeypatch):
    """On the shipped disk suite the three p = 0 gap cases, the direct side
    of duality_spectrum and the sparse p = 1 gap rungs ask for one p = 0
    ladder; it is solved once per number of pairs (eigen_spectrum's 3-pair
    level-0 solve and the gap's 4-pair one share a key, and so do the gap's
    4-pair rungs and the 5 pairs, b_0 + 4, that a p = 1 rung asks)."""
    raw = json.loads((ROOT / "examples_config" / "disk_suite.json").read_text())
    raw["checks"] = ["eigen_spectrum", "gap_lower_bound", "duality_spectrum"]
    requested = []
    lookup = runcache.cached

    def spy(key, compute):
        if key[0] == "spectrum":
            requested.append(key)
        return lookup(key, compute)

    solved = []
    solve = spectral_mod._eigenpairs

    def counted(op, k, seed):
        solved.append((requested[-1], k))   # the key lowest_eigenpairs just read
        return solve(op, k, seed)

    monkeypatch.setattr(runcache, "cached", spy)
    monkeypatch.setattr(spectral_mod, "_eigenpairs", counted)
    rep = report_mod.run_config(load_config(raw))
    assert rep.summary["fail"] == 0
    assert len(solved) == len(set(solved)) < len(requested)
    assert {key for key, _ in solved} == set(requested)
    # levels 0-2 of the p = 0 normal ladder: three gap cases and duality's direct
    # side, with eigen_spectrum at level 0 and, at the sparse levels 1-2, the
    # p = 1 normal gap case's spectrum built on them; that case's level 0
    # shares eigen_spectrum's key
    assert sorted(map(requested.count, set(requested)))[-5:] == [1, 2, 5, 5, 5]


def test_cached_spectrum_is_read_only():
    with runcache.scope():
        [[res]] = checks_mod._ladder(INTERVAL, 1 / 16, 1, [(V1, "normal", 0)], 3, 1)
    for array in (res.eigenvalues, res.eigenvectors, res.residual_norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_lambda1_request_solves_kernel_and_lambda1_only(monkeypatch):
    """On a sparse rung a k None request asks lowest_eigenpairs for b_p + 1
    pairs, and its lambda_1 is within 1e-12 of a 4-pair solve's."""
    disk, V = DomainSpec.disk(1.0), Potential.quadratic(1.0, 2)
    solved = _counting(monkeypatch, checks_mod, "lowest_eigenpairs")
    [[alone]] = checks_mod._ladder(disk, 0.2, 1, [(V, "normal", 1)], None, 1234)
    [[op, k]] = solved
    assert op.dim > SPECTRA_CUTOFF and alone.solver.startswith("eigsh")
    assert k == op.chain.betti(1) + 1 == len(alone.eigenvalues)
    [[four]] = checks_mod._ladder(disk, 0.2, 1, [(V, "normal", 1)], 4, 1234)
    lam, ref = alone.eigenvalues[alone.kernel_dim], four.eigenvalues[four.kernel_dim]
    assert abs(lam - ref) <= 1e-12 * abs(ref)


def test_lambda1_request_is_served_from_a_larger_spectrum(monkeypatch):
    """In one scope a k None request after a 4-pair solve makes no
    eigensolve and returns read-only views of the first pairs."""
    annulus, V = DomainSpec.annulus(0.5, 1.0), Potential.quadratic(1.0, 2)
    solved = _counting(monkeypatch, spectral_mod, "_eigenpairs")
    with runcache.scope():
        [[four]] = checks_mod._ladder(annulus, 0.4, 1, [(V, "normal", 1)], 4, 1234)
        [[res]] = checks_mod._ladder(annulus, 0.4, 1, [(V, "normal", 1)], None, 1234)
    assert len(solved) == 1 and res.kernel_dim == 1 and len(res.eigenvalues) == 2
    for view, full in ((res.eigenvalues, four.eigenvalues),
                       (res.eigenvectors, four.eigenvectors),
                       (res.residual_norms, four.residual_norms)):
        assert view.base is not None and np.shares_memory(view, full)
        assert np.array_equal(view, full[..., :2]) and not view.flags.writeable


def test_p1_spectrum_is_built_on_the_runs_p0_spectrum(monkeypatch):
    """In one scope a sparse p = 1 spectrum after its p = 0 problem makes
    no new p = 0 eigensolve: the sweep's p = 0 rung (kernel and lambda_1,
    b_0 + 1 pairs) is exactly what the p = 1 lambda_1 asks of it, so only
    p = 2 is solved besides.  lambda_1 of p = 1 is the smaller of the two
    neighbours' lambda_1, bit for bit.  Outside a scope p = 0 is solved
    again."""
    disk, V = DomainSpec.disk(1.0), Potential.quadratic(1.0, 2)
    solved = _counting(monkeypatch, spectral_mod, "_eigenpairs")
    problems = [(V, "normal", 0), (V, "normal", 1)]
    with runcache.scope():
        [[zero], [one]] = checks_mod._ladder(disk, 0.15, 1, problems, None, 1234)
        two = lowest_eigenpairs(OperatorChain(checks_mod._mesh(disk, 0.15), V, "normal")
                                .operator(2), 1, seed=1234)
    assert one.dim > SPECTRA_CUTOFF and one.solver == "eigsh-mixed"
    assert [(op.p, k) for op, k, _ in solved] == [(0, 2), (1, 1), (2, 1)]
    assert one.eigenvalues[0] == min(zero.eigenvalues[1], two.eigenvalues[0])
    checks_mod._ladder(disk, 0.15, 1, problems, None, 1234)
    assert [op.p for op, _, _ in solved[3:]] == [0, 1, 0, 2]


def test_sweep_statuses_and_lambda1_do_not_depend_on_check_order():
    """On a sparse disk the h = 1 sweep rung is served by eigen_spectrum's
    solve when that check runs first, and solved alone when it runs last;
    statuses agree and lambda_1 moves at roundoff only."""
    raw = {"domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
           "potential": "quadratic(1.0)", "degrees": [0, 1], "realizations": ["normal"],
           "N": ["inf"], "checks": ["eigen_spectrum", "semiclassical_sweep"],
           "mesh": {"target_h": 0.15, "refinements": 0}, "h_list": [1.0, 0.5],
           "eigen_count": 4, "seed": 5}

    def records(checks):
        rep = report_mod.run_config(load_config({**raw, "checks": checks}))
        return {(r.check_id, r.p, r.h_param): r for r in rep.records}

    forward = records(raw["checks"])
    reverse = records(raw["checks"][::-1])
    assert forward.keys() == reverse.keys()
    assert {r.extra["solvers"][0] for r in forward.values()
            if r.check_id == "semiclassical_sweep"} == {"eigsh-shift-invert", "eigsh-mixed"}
    for key, rec in forward.items():
        assert rec.status == reverse[key].status != "error"
        if rec.check_id == "semiclassical_sweep":
            lam, again = rec.extra["lambda1"], reverse[key].extra["lambda1"]
            assert abs(lam - again) <= 1e-12 * abs(lam)


def test_lambdify_and_interior_minimum_once_per_run(monkeypatch):
    """One function per (expr, n) in a run; the interior curvature minimum
    of hypothesis_check is evaluated once for every realization and h."""
    expr = _COORDS[0] ** 2
    assert _lambdify(expr, 1) is not _lambdify(expr, 1)
    with runcache.scope():
        assert _lambdify(expr, 1) is _lambdify(expr, 1)
    disk, pot = DomainSpec.disk(1.0), Potential.quadratic(2.0, 2)

    def sweep():
        return [r.to_json_dict() for b in ("normal", "tangential") for r in
                checks_mod.semiclassical_sweep(pot, disk, b, 1, [1.0, 0.5, 0.25],
                                               mesh_h=0.45)]

    quads = _counting(monkeypatch, checks_mod, "domain_quadrature")
    outside = sweep()
    assert len(quads) == 6
    with runcache.scope():
        assert sweep() == outside
    assert len(quads) == 7


def test_run_config_assembles_each_mass_once(monkeypatch):
    """The chains of a run, tangential and normal alike, share one full mass
    per (mesh, p, V, quadrature order)."""
    requested = []
    lookup = runcache.cached

    def spy(key, compute):
        if key[0] == "mass":
            requested.append(key)
        return lookup(key, compute)

    monkeypatch.setattr(runcache, "cached", spy)
    assembled = _counting(monkeypatch, operators_mod, "assemble_mass")
    rep = report_mod.run_config(load_config(SMALL_DISK))
    assert rep.summary["fail"] == 0
    distinct = {(id(cplx), p, pot.expr, pot.n, order) for cplx, p, pot, order in assembled}
    assert len(assembled) == len(distinct) == len(set(requested)) < len(requested)


@pytest.mark.parametrize("b", ["tangential", "normal"])
def test_cached_mass_is_bit_identical(b):
    """A chain's mass read from the cache, where the other realization's
    chain assembled it, has the bytes of the mass built without a cache."""
    mesh, V = generate_mesh(DomainSpec.disk(1.0), 0.4), Potential.quadratic(1.0, 2)
    outside = [OperatorChain(mesh, V, b).mass(p) for p in range(3)]
    other = "normal" if b == "tangential" else "tangential"
    with runcache.scope():
        for p in range(3):
            OperatorChain(mesh, V, other).mass(p)
        inside = [OperatorChain(mesh, V, b).mass(p) for p in range(3)]
    for A, B in zip(outside, inside):
        assert A.format == B.format and A.shape == B.shape
        for x, y in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_cached_mass_is_read_only():
    with runcache.scope():
        mesh = generate_mesh(DomainSpec.disk(1.0), 0.4)
        OperatorChain(mesh, Potential.quadratic(1.0, 2), "normal").mass(1)
        [(_, full)] = [v for k, v in runcache._store.get().items() if k[0] == "mass"]
    for array in (full.data, full.indices, full.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_mismatched_quadrature_control_gets_its_own_mass(monkeypatch):
    """The quadrature order is in the key: the negative control of
    check_intertwining, a chain at another order, assembles its own masses
    inside a scope and still breaks the identity."""
    mesh, V = generate_mesh(DomainSpec.disk(1.0), 0.35), Potential.quadratic(2.0, 2)
    assembled = _counting(monkeypatch, operators_mod, "assemble_mass")
    with runcache.scope():
        chain = OperatorChain(mesh, V, "tangential", 4)
        assert check_intertwining(chain, 0)["residual"] <= 1e-10
        mismatched = OperatorChain(mesh, V, "tangential", 8)
        assert check_intertwining(chain, 0, upper_chain=mismatched)["residual"] > 1e-10
    assert sorted((p, order) for _, p, _, order in assembled) == [
        (0, 4), (0, 8), (1, 4), (1, 8), (2, 4), (2, 8)]


def test_rescaled_derives_once_per_expression(monkeypatch):
    """A semiclassical sweep rescales V once per h and check: for an
    expression potential, inside a scope each V/h is derived once, outside
    every construction derives."""
    V = Potential(Potential.quartic_double_well(1.0, 2).expr, 2)
    derived = []
    lookup = runcache.cached

    def spy(key, compute):
        def derive():
            derived.append(key)
            return compute()

        return lookup(key, derive if key[0] == "potential" else compute)

    monkeypatch.setattr(runcache, "cached", spy)
    hs = (1.0, 0.5, 0.25, 0.125)
    with runcache.scope():
        for _ in range(4):
            for h in hs:
                V.rescaled(h)
    assert len(derived) == len(set(derived)) == len(hs)
    for h in hs:
        V.rescaled(h)
    assert len(derived) == 2 * len(hs)


def test_rescaled_preset_derives_and_lambdifies_nothing(monkeypatch):
    """A preset's V/h scales its closed form: rescaling, negating, halving
    and evaluating derive, lambdify and cache no expression, and V/h keeps
    its own content key."""
    V = Potential.quartic_double_well(1.0, 2)
    stored = []
    lookup = runcache.cached

    def spy(key, compute):
        stored.append(key[0])
        return lookup(key, compute)

    def forbidden(*args, **kwargs):
        raise AssertionError("a preset called sympy diff or lambdify")

    monkeypatch.setattr(runcache, "cached", spy)
    monkeypatch.setattr(sp, "diff", forbidden)
    monkeypatch.setattr(sp, "lambdify", forbidden)
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (5, 2))
    keys = set()
    with runcache.scope():
        for h in (1.0, 0.5, 0.25, 0.125):
            for W in (V.rescaled(h), V.rescaled(h).negated(), checks_mod._half(V.rescaled(h))):
                keys.add(W.key)
                for f in ("value", "grad", "hess", "laplacian"):
                    assert np.all(np.isfinite(getattr(W, f)(x)))
    assert stored == [] and len(keys) == 9   # half of V/h is V/(2h)
    assert V.rescaled(0.5).key != V.key == V.rescaled(1.0).key


@pytest.mark.parametrize("pot, is_constant, poly_degree", [
    (Potential.zero(2), True, 0), (Potential.linear(0.5, 1), False, 1),
    (Potential.quartic_double_well(1.0, 2), False, 4),
    (Potential.quartic_double_well(1.0, 2).rescaled(0.5), False, 4),
    (Potential(sp.exp(_COORDS[0]), 1), False, None)], ids=str)
def test_cached_derivation_equals_uncached(pot, is_constant, poly_degree):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (7, pot.n))
    with runcache.scope():
        inside = Potential(pot.expr, pot.n)
        again = Potential(pot.expr, pot.n)
        assert again._grad is inside._grad and again._hess is inside._hess
    outside = Potential(pot.expr, pot.n)
    assert (inside.is_constant, inside.poly_degree) == (is_constant, poly_degree)
    assert (outside.is_constant, outside.poly_degree) == (is_constant, poly_degree)
    for f in ("value", "grad", "hess", "laplacian"):
        assert np.array_equal(getattr(inside, f)(x), getattr(outside, f)(x))
