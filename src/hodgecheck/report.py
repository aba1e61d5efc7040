"""Batch driver: execute configured check suites and assemble reports.

Per-check errors are captured into records (the batch never aborts on one
bad case); summary counts and the process exit status derive from record
statuses: not_applicable records do not fail a run.

Determinism contract: identical configs produce byte-identical JSON
reports.  Wall-clock timings are therefore zeroed by default; pass
``timings=True`` (CLI ``--timings``) to record real milliseconds and
forfeit byte-identity.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, checks
from .config import RunConfig
from .operators import OperatorChain
from .meshing import generate_mesh
from .presets import bl_form_cases, gamma2_bump, test_form
from .records import CSV_COLUMNS, CheckRecord
from .spectral import check_intertwining, lowest_eigenpairs

__all__ = ["Report", "run_config", "convergence_study"]


@dataclass
class Report:
    config_echo: dict
    environment: dict
    records: list
    convergence: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def finalize(self):
        counts = {"pass": 0, "fail": 0, "not_applicable": 0}
        for r in self.records:
            counts[r.status] += 1
        self.summary = counts
        return self

    @property
    def any_failure(self) -> bool:
        return self.summary.get("fail", 0) > 0

    def to_json(self) -> str:
        payload = {
            "config": self.config_echo,
            "environment": self.environment,
            "records": [r.to_json_dict() for r in self.records],
            "convergence": self.convergence,
            "summary": self.summary,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def write_json(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow(r.csv_row())


def _environment() -> dict:
    return {"hodgecheck": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _spectrum_with_duality(cfg: RunConfig, p: int, b: str, cplx, k: int, seed: int):
    """Eigenvalues of the (p, b) realization; normal p >= 1 goes through the
    star dual (n-p, tangential, -V)."""
    n = cfg.domain.ambient_dim
    if b == "normal" and p >= 1 and cfg.domain.has_boundary:
        chain = OperatorChain(cplx, cfg.potential.negated(), "tangential", 4)
        res = lowest_eigenpairs(chain.operator(n - p), k, seed=seed)
        return res, "dual"
    chain = OperatorChain(cplx, cfg.potential, b, 4)
    res = lowest_eigenpairs(chain.operator(p), k, seed=seed)
    return res, "direct"


def _interval_oracle(cfg: RunConfig, p: int, b: str, k: int):
    if (cfg.domain.kind != "interval" or p != 0 or cfg.potential.name != "zero"):
        return None
    a, c = cfg.domain.parameters
    L = c - a
    if b in ("normal", "none"):
        return [(j * math.pi / L) ** 2 for j in range(k)]
    return [(j * math.pi / L) ** 2 for j in range(1, k + 1)]


# ---------------------------------------------------------------------------
# Check runners
# ---------------------------------------------------------------------------

def _run_eigen_spectrum(cfg: RunConfig):
    recs = []
    for p in cfg.degrees:
        for b in cfg.realizations:
            cplx = generate_mesh(cfg.domain, cfg.target_h)
            res, route = _spectrum_with_duality(cfg, p, b, cplx, cfg.eigen_count, cfg.seed)
            oracle = _interval_oracle(cfg, p, b, cfg.eigen_count)
            extra = {"spectral": res.to_json_dict(), "route": route}
            if oracle is not None:
                scale = max(max(abs(v) for v in oracle), 1.0)
                rel = max(abs(x - y) for x, y in zip(res.eigenvalues, oracle)) / scale
                tol = 10.0 * cplx.mesh_size_h ** 2
                extra["oracle"] = oracle
                recs.append(CheckRecord(
                    "eigen_spectrum", kind="identity", domain=checks._label(cfg.domain),
                    potential=cfg.potential.name, p=p, b=b,
                    lhs=float(res.eigenvalues[-1]), rhs=oracle[-1],
                    abs_err=rel * scale, rel_err=rel, tolerance=tol, passed=rel <= tol,
                    hypothesis_status="satisfied", mesh_h=cplx.mesh_size_h,
                    quad_order=4, extra=extra))
            else:
                ok = bool(np.all(res.residual_norms
                                 <= 1e-6 * (1.0 + np.abs(res.eigenvalues))))
                recs.append(CheckRecord(
                    "eigen_spectrum", kind="report", domain=checks._label(cfg.domain),
                    potential=cfg.potential.name, p=p, b=b,
                    lhs=float(res.eigenvalues[0]), rhs=float(res.eigenvalues[-1]),
                    rel_err=float(np.max(res.residual_norms)), tolerance=1e-6,
                    passed=ok, hypothesis_status="satisfied",
                    mesh_h=cplx.mesh_size_h, quad_order=4, extra=extra))
    return recs


def _identity_runner(which):
    def run(cfg: RunConfig):
        recs = []
        tol = cfg.tolerances["identity_rel"]
        for p in cfg.degrees:
            for b in cfg.realizations:
                if b == "none" and cfg.domain.has_boundary:
                    continue
                bb = b if cfg.domain.has_boundary else "none"
                try:
                    form = test_form(cfg.domain, p, bb if bb != "none" else "tangential")
                    use_b = form.bc if form.bc != "none" else "normal"
                    if which == "decomposition":
                        recs.append(checks.eval_decomposition_identity(
                            form, cfg.potential, cfg.domain, use_b, cfg.quad_order, tol))
                    elif which == "green":
                        recs.append(checks.eval_green_identity(
                            form, cfg.potential, cfg.domain, use_b, cfg.quad_order, tol))
                    else:
                        recs.append(checks.eval_h1_identity(
                            form, cfg.domain, use_b, cfg.quad_order, tol))
                except Exception as e:  # captured per case
                    recs.append(CheckRecord(
                        f"{which}_identity" if which != "h1" else "h1_identity",
                        kind="report", domain=checks._label(cfg.domain),
                        potential=cfg.potential.name, p=p, b=b,
                        error=f"{type(e).__name__}: {e}"))
        return recs

    return run


def _run_gamma2(cfg: RunConfig):
    tol = cfg.tolerances["identity_rel"]
    return [checks.check_gamma2(gamma2_bump(cfg.domain, i), cfg.potential,
                                cfg.domain, cfg.quad_order, tol)
            for i in range(2)]


def _run_bl_scalar(cfg: RunConfig):
    recs = []
    for b in cfg.realizations:
        if b == "none" and cfg.domain.has_boundary:
            continue
        form = test_form(cfg.domain, 0, b)
        for N in cfg.N_values:
            if N in cfg.inadmissible_N:
                recs.append(CheckRecord(
                    "bl_scalar", kind="inequality", domain=checks._label(cfg.domain),
                    potential=cfg.potential.name, p=1, b=b, N=N,
                    lhs=math.nan, rhs=math.nan, passed=False,
                    hypothesis_status="violated",
                    extra={"note": "N flagged inadmissible at parse time"}))
                continue
            recs.append(checks.check_bl_scalar(
                form, cfg.potential, cfg.domain, b, N, cfg.quad_order,
                cfg.tolerances["inequality_rel"], cfg.tolerances["inequality_abs"]))
    return recs


def _run_bl_forms(cfg: RunConfig):
    recs = []
    for b in cfg.realizations:
        if b == "none":
            continue
        for form, variant in bl_form_cases(cfg.domain, cfg.potential.expr, b):
            recs.append(checks.check_bl_forms(
                form, cfg.potential, cfg.domain, b, variant, cfg.quad_order,
                mesh_h=cfg.target_h, tol_rel=cfg.tolerances["inequality_rel"],
                tol_abs=cfg.tolerances["inequality_abs"], seed=cfg.seed))
    return recs


def _run_variance(cfg: RunConfig):
    skip_none = cfg.domain.has_boundary
    return [checks.variance_identity_record(
        cfg.domain, cfg.potential, b, cfg.target_h, cfg.n_samples, cfg.seed,
        cfg.tolerances["variance_rel"])
        for b in cfg.realizations if not (b == "none" and skip_none)]


def _run_gap(cfg: RunConfig):
    recs = []
    levels = max(3, cfg.refinements + 1)
    for p in cfg.degrees:
        for N in cfg.N_values or [None]:
            if N in cfg.inadmissible_N:
                continue
            recs.append(checks.check_gap_lower_bound(
                cfg.potential, cfg.domain, "normal", p,
                use_N=None if N == math.inf else N,
                mesh_h=cfg.target_h, levels=levels, seed=cfg.seed))
    return recs


def _run_semiclassical(cfg: RunConfig):
    recs = []
    for b in cfg.realizations:
        if b == "none":
            continue
        for p in cfg.degrees:
            recs.extend(checks.semiclassical_sweep(
                cfg.potential, cfg.domain, b, p, cfg.h_list, cfg.target_h,
                seed=cfg.seed))
    return recs


def _run_hypothesis(cfg: RunConfig):
    recs = []
    for b in cfg.realizations:
        if b == "none":
            continue
        for p in cfg.degrees:
            for N in cfg.N_values or [None]:
                if N in cfg.inadmissible_N:
                    continue
                rep = checks.hypothesis_check(cfg.potential, cfg.domain, b, max(p, 1),
                                              N=N if max(p, 1) == 1 else None,
                                              quad_order=cfg.quad_order)
                recs.append(CheckRecord(
                    "hypothesis_check", kind="inequality",
                    domain=checks._label(cfg.domain), potential=cfg.potential.name,
                    p=max(p, 1), b=b, N=N, lhs=rep.interior_min, rhs=rep.boundary_min,
                    passed=rep.status == "satisfied", hypothesis_status=rep.status,
                    witness=rep.witness, quad_order=cfg.quad_order,
                    extra=rep.to_dict()))
    return recs


def _run_intertwining(cfg: RunConfig):
    recs = []
    tol = cfg.tolerances["intertwining_rel"]
    cplx = generate_mesh(cfg.domain, cfg.target_h)
    n = cfg.domain.ambient_dim
    routes = []
    for b in cfg.realizations:
        if b == "tangential":
            routes.append(("tangential", cfg.potential))
        elif b == "normal":
            routes.append(("natural", cfg.potential))           # p = 0 natural
            if cfg.domain.has_boundary:
                routes.append(("tangential", cfg.potential.negated()))  # via duality
        else:
            routes.append(("natural", cfg.potential))
    seen = set()
    for realization, pot in routes:
        key = (realization, pot.name)
        if key in seen:
            continue
        seen.add(key)
        chain = OperatorChain(cplx, pot, realization, 4)
        for p in range(n):
            if chain.dim(p) == 0:
                continue
            rep = check_intertwining(chain, p, n_samples=5, seed=cfg.seed)
            recs.append(CheckRecord(
                "intertwining", kind="identity", domain=checks._label(cfg.domain),
                potential=pot.name, p=p, b=realization, lhs=rep["residual"], rhs=0.0,
                abs_err=rep["residual"], rel_err=rep["residual"], tolerance=tol,
                passed=rep["residual"] <= tol, hypothesis_status="satisfied",
                mesh_h=cplx.mesh_size_h, quad_order=4, extra=rep))
    return recs


def _run_hodge(cfg: RunConfig):
    recs = []
    for p in cfg.degrees:
        for b in cfg.realizations:
            if b == "normal" and p >= 1 and cfg.domain.has_boundary:
                continue  # primal basis carries tangential traces; see dual_problem
            recs.append(checks.hodge_decomposition_record(
                cfg.domain, cfg.potential, b, p, cfg.target_h, n_samples=5,
                seed=cfg.seed, tol=cfg.tolerances["hodge_rel"]))
    return recs


def _run_duality(cfg: RunConfig):
    # 1e-6 agreement needs one Richardson stage beyond the h^2 and h^4 terms
    levels = max(4, cfg.refinements + 1)
    return [checks.duality_spectrum_check(
        cfg.domain, cfg.potential, k=cfg.eigen_count, mesh_h=cfg.target_h,
        levels=levels, seed=cfg.seed, tol=cfg.tolerances["duality_rel"])]


RUNNERS = {
    "eigen_spectrum": _run_eigen_spectrum,
    "decomposition_identity": _identity_runner("decomposition"),
    "green_identity": _identity_runner("green"),
    "h1_identity": _identity_runner("h1"),
    "gamma2": _run_gamma2,
    "bl_scalar": _run_bl_scalar,
    "bl_forms": _run_bl_forms,
    "variance_identity": _run_variance,
    "gap_lower_bound": _run_gap,
    "semiclassical_sweep": _run_semiclassical,
    "hypothesis_check": _run_hypothesis,
    "intertwining": _run_intertwining,
    "hodge_decomposition": _run_hodge,
    "duality_spectrum": _run_duality,
}


def run_config(cfg: RunConfig, timings: bool = False) -> Report:
    records = []
    for check_id in cfg.checks:
        start = time.perf_counter()
        try:
            batch = RUNNERS[check_id](cfg)
        except Exception as e:  # per-check errors become records, never abort the batch
            batch = [CheckRecord(check_id, kind="report",
                                 domain=checks._label(cfg.domain),
                                 potential=cfg.potential.name,
                                 error=f"{type(e).__name__}: {e}")]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if timings and batch:
            per = elapsed_ms / len(batch)
            for r in batch:
                r.runtime_ms = round(per, 3)
        records.extend(batch)
    return Report(cfg.echo(), _environment(), records).finalize()


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

_QUAD_SWEEP = (4, 8, 12)


def _fit_order(hs, errs):
    """Log-log least-squares slope; needs >= 3 levels with positive error."""
    pairs = [(h, e) for h, e in zip(hs, errs) if e > 0 and np.isfinite(e)]
    if len(pairs) < 3:
        return None
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    A = np.column_stack([lx, np.ones_like(lx)])
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def convergence_study(cfg: RunConfig, timings: bool = False) -> Report:
    """Refinement/quadrature ladders with fitted observed orders."""
    if cfg.refinements < 2:
        raise ValueError("convergence study needs refinements >= 2 (>= 3 levels)")
    records = []
    tables = []
    for check_id in cfg.checks:
        if check_id in ("decomposition_identity", "green_identity", "h1_identity",
                        "gamma2"):
            # levels below the configured order are ladder data only: the
            # production tolerance is graded at the configured order and above
            levels = sorted({*_QUAD_SWEEP, cfg.quad_order})
            errs = []
            for qo in levels:
                sub = RUNNERS[check_id](_with(cfg, quad_order=qo))
                if qo >= cfg.quad_order:
                    records.extend(sub)
                errs.append(max((r.rel_err for r in sub), default=math.nan))
            tables.append({"check_id": check_id, "axis": "quad_order",
                           "levels": levels, "rel_errs": errs,
                           "order": _fit_order([1.0 / q for q in levels], errs),
                           "note": "error vs inverse quadrature order"})
        elif check_id in ("eigen_spectrum", "variance_identity"):
            hs, errs = [], []
            h = cfg.target_h
            for _ in range(cfg.refinements + 1):
                sub = RUNNERS[check_id](_with(cfg, target_h=h))
                records.extend(sub)
                hs.append(max(r.mesh_h or h for r in sub))
                errs.append(max((r.rel_err for r in sub), default=math.nan))
                h = h / 2
            order = _fit_order(hs, errs)
            note = ""
            if order is None:
                note = "order omitted: fewer than 3 levels with finite error"
            tables.append({"check_id": check_id, "axis": "mesh_h", "levels": hs,
                           "rel_errs": errs, "order": order, "note": note})
        else:
            sub = RUNNERS[check_id](cfg)
            records.extend(sub)
            tables.append({"check_id": check_id, "axis": "none", "levels": [],
                           "rel_errs": [], "order": None,
                           "note": "check runs its own ladder"})
    report = Report(cfg.echo(), _environment(), records, convergence=tables)
    return report.finalize()


def _with(cfg: RunConfig, **kw) -> RunConfig:
    import copy

    out = copy.copy(cfg)
    for k, v in kw.items():
        setattr(out, k, v)
    return out
