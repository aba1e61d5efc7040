"""Batch driver: execute configured check suites and assemble reports.

Each check is a per-case function that _runner calls over the check's case
axes (degree p, realization b, dimension parameter N).  The runner reports
an inadmissible N as not_applicable and captures an exception into the
record of the case that raised it, so the batch never aborts on one bad
case; summary counts and the process exit status derive from record
statuses: not_applicable records do not fail a run.  Every (p, b) case is
assembled directly, on the chain of its own realization b.

Determinism contract: identical configs produce byte-identical JSON
reports at a fixed BLAS thread count (a threaded BLAS sums in another
order, so records move at roundoff between thread counts).  Wall-clock
timings are therefore zeroed by default; pass
``timings=True`` (CLI ``--timings``) to record each case's milliseconds,
shared by the records it yields, and forfeit byte-identity.
"""

from __future__ import annotations

import csv
import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from . import __version__, checks, runcache
from .config import RunConfig, check_mesh_budget
from .operators import CHAIN_QUAD_ORDER, OperatorChain
from .presets import bl_form_cases, gamma2_bump, test_form
from .records import CSV_COLUMNS, CheckRecord, identity_record
from .spectral import check_intertwining

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


def _labels(cfg: RunConfig) -> dict:
    return checks._labels(cfg.domain, cfg.potential)


def _interval_oracle(cfg: RunConfig, p: int, b: str, k: int):
    """(j pi / L)^2 for p = 0 on an interval under a constant potential,
    whose weight cancels from both sides of the pencil."""
    if cfg.domain.kind != "interval" or p != 0 or not cfg.potential.is_constant:
        return None
    a, c = cfg.domain.parameters
    L = c - a
    first = 0 if b == "normal" else 1
    return [(j * math.pi / L) ** 2 for j in range(first, first + k)]


# Case axes: the record label an axis fills and its values in a config,
# given the values the outer axes took in the case.
DEGREES = ("p", lambda cfg, case: cfg.degrees)
BOUND_DEGREES = ("p", lambda cfg, case: list(dict.fromkeys(max(p, 1)
                                                          for p in cfg.degrees)))
SCALAR_DEGREE = ("p", lambda cfg, case: [1])   # the scalar bound is a degree-1 bound
REALIZATIONS = ("b", lambda cfg, case: cfg.realizations)
N_VALUES = ("N", lambda cfg, case: cfg.N_values)
# N enters a curvature bound only at bound degree max(p, 1) = 1; above it
# the case has no N
BOUND_N_VALUES = ("N", lambda cfg, case: cfg.N_values if max(case["p"], 1) == 1
                  else [None])
# under a given N the gap check measures the degree-0 gap for p <= 1, so N
# enters its cases at p = 0 only; at p = 1 it would re-solve that ladder
GAP_N_VALUES = ("N", lambda cfg, case: cfg.N_values if case["p"] == 0 else [None])


def _cases(cfg: RunConfig, axes) -> list:
    """Every case of the axes, outermost first, as {label: value} dicts."""
    cases = [{}]
    for label, values in axes:
        cases = [{**case, label: v} for case in cases for v in values(cfg, case)]
    return cases


def _runner(check_id: str, axes, case_fn):
    """Runner of check_id: case_fn(cfg, **case) for every case of the axes.

    Cases run in the order of _cases, outermost first; case_fn returns one
    record or a list of them.  A case whose N was flagged inadmissible at
    parse time yields a not_applicable record without running, and an
    exception raised in a case becomes that case's error record, with
    ``Type: message`` as its error and the formatted traceback as
    ``extra.traceback``.  With timings, the records of a case share its wall
    time.
    """
    def run(cfg: RunConfig, timings: bool = False) -> list:
        records = []
        for case in _cases(cfg, axes):
            start = time.perf_counter()
            if case.get("N") in cfg.inadmissible_N:
                batch = [CheckRecord(check_id, kind="inequality", **_labels(cfg), **case,
                                     lhs=math.nan, rhs=math.nan, passed=False,
                                     hypothesis_status="violated",
                                     extra={"note": "N flagged inadmissible at parse time"})]
            else:
                try:
                    out = case_fn(cfg, **case)
                    batch = out if isinstance(out, list) else [out]
                except Exception as e:  # captured per case, never aborts the batch
                    batch = [CheckRecord(check_id, kind="report", **_labels(cfg), **case,
                                         error=f"{type(e).__name__}: {e}",
                                         extra={"traceback": traceback.format_exc()})]
            if timings and batch:
                per = (time.perf_counter() - start) * 1000.0 / len(batch)
                for r in batch:
                    r.runtime_ms = round(per, 3)
            records.extend(batch)
        return records

    return run


# ---------------------------------------------------------------------------
# Per-case check functions
# ---------------------------------------------------------------------------

def _eigen_spectrum(cfg: RunConfig, p: int, b: str):
    [[res]] = checks._ladder(cfg.domain, cfg.target_h, 1, [(cfg.potential, b, p)],
                             cfg.eigen_count, cfg.seed)
    if len(res.eigenvalues) < cfg.eigen_count:
        raise ValueError(f"need 1 <= k <= {len(res.eigenvalues)}, got {cfg.eigen_count}")
    oracle = _interval_oracle(cfg, p, b, cfg.eigen_count)
    extra = {"spectral": res.to_json_dict()}
    common = dict(**_labels(cfg), p=p, b=b, mesh_h=res.mesh_h, quad_order=CHAIN_QUAD_ORDER,
                  extra=extra)
    if oracle is not None:
        scale = max(max(abs(v) for v in oracle), 1.0)
        rel = max(abs(x - y) for x, y in zip(res.eigenvalues, oracle)) / scale
        extra["oracle"] = oracle
        return identity_record("eigen_spectrum", float(res.eigenvalues[-1]), oracle[-1],
                               10.0 * res.mesh_h ** 2, rel_err=rel, abs_err=rel * scale,
                               **common)
    ok = bool(np.all(res.residual_norms <= 1e-6 * (1.0 + np.abs(res.eigenvalues))))
    return CheckRecord("eigen_spectrum", kind="report",
                       lhs=float(res.eigenvalues[0]), rhs=float(res.eigenvalues[-1]),
                       rel_err=float(np.max(res.residual_norms)), tolerance=1e-6,
                       passed=ok, hypothesis_status="satisfied", **common)


def _decomposition(cfg: RunConfig, p: int, b: str):
    return checks.eval_decomposition_identity(
        test_form(cfg.domain, p, b), cfg.potential, cfg.domain, b, cfg.quad_order,
        cfg.tolerances["identity_rel"])


def _green(cfg: RunConfig, p: int, b: str):
    return checks.eval_green_identity(
        test_form(cfg.domain, p, b), cfg.potential, cfg.domain, b, cfg.quad_order,
        cfg.tolerances["identity_rel"])


def _h1(cfg: RunConfig, p: int, b: str):
    return checks.eval_h1_identity(test_form(cfg.domain, p, b), cfg.domain, b,
                                   cfg.quad_order, cfg.tolerances["identity_rel"])


def _gamma2(cfg: RunConfig):
    return [checks.check_gamma2(gamma2_bump(cfg.domain, i), cfg.potential, cfg.domain,
                                cfg.quad_order, cfg.tolerances["identity_rel"])
            for i in range(2)]


def _bl_scalar(cfg: RunConfig, p: int, b: str, N: float):
    return checks.check_bl_scalar(
        test_form(cfg.domain, 0, b), cfg.potential, cfg.domain, b, N, cfg.quad_order,
        cfg.tolerances["inequality_rel"], cfg.tolerances["inequality_abs"])


def _bl_forms(cfg: RunConfig, b: str):
    return [checks.check_bl_forms(
        form, cfg.potential, cfg.domain, b, variant, cfg.quad_order,
        mesh_h=cfg.target_h, tol_rel=cfg.tolerances["inequality_rel"],
        tol_abs=cfg.tolerances["inequality_abs"])
        for form, variant in bl_form_cases(cfg.domain, cfg.potential.expr, b)]


def _variance(cfg: RunConfig, b: str):
    return checks.variance_identity_record(
        cfg.domain, cfg.potential, b, cfg.target_h, cfg.n_samples, cfg.seed,
        cfg.tolerances["variance_rel"])


def _gap(cfg: RunConfig, p: int, N: float):
    # the gap above the constants: the normal realization, none without boundary
    b = "normal" if cfg.domain.has_boundary else "none"
    return checks.check_gap_lower_bound(
        cfg.potential, cfg.domain, b, p, use_N=N,
        mesh_h=cfg.target_h, levels=max(3, cfg.refinements + 1), seed=cfg.seed,
        tol_rel=cfg.tolerances["inequality_rel"])


def _semiclassical(cfg: RunConfig, b: str, p: int):
    return checks.semiclassical_sweep(cfg.potential, cfg.domain, b, p, cfg.h_list,
                                      cfg.target_h, seed=cfg.seed,
                                      tol_rel=cfg.tolerances["inequality_rel"])


def _hypothesis(cfg: RunConfig, b: str, p: int, N: float):
    rep = checks.hypothesis_check(cfg.potential, cfg.domain, b, p, N=N,
                                  quad_order=cfg.quad_order)
    return CheckRecord("hypothesis_check", kind="inequality", **_labels(cfg), p=p, b=b,
                       N=N, lhs=rep.interior_min, rhs=rep.boundary_min,
                       passed=rep.status == "satisfied", hypothesis_status=rep.status,
                       witness=rep.witness, quad_order=cfg.quad_order, extra=rep.to_dict())


def _intertwining(cfg: RunConfig, b: str):
    """Supersymmetry residuals at every degree below the top on the chain of b."""
    tol = cfg.tolerances["intertwining_rel"]
    cplx = checks._mesh(cfg.domain, cfg.target_h)
    chain = OperatorChain(cplx, cfg.potential, b, CHAIN_QUAD_ORDER)
    recs = []
    for p in range(cfg.domain.ambient_dim):
        if chain.dim(p) == 0:
            continue
        rep = check_intertwining(chain, p, n_samples=5, seed=cfg.seed)
        recs.append(identity_record(
            "intertwining", rep["residual"], 0.0, tol, rel_err=rep["residual"], extra=rep,
            **_labels(cfg), p=p, b=b, mesh_h=cplx.mesh_size_h, quad_order=CHAIN_QUAD_ORDER))
    return recs


def _hodge(cfg: RunConfig, p: int, b: str):
    return checks.hodge_decomposition_record(
        cfg.domain, cfg.potential, b, p, cfg.target_h, n_samples=5, seed=cfg.seed,
        tol=cfg.tolerances["hodge_rel"])


def _duality(cfg: RunConfig):
    return checks.duality_spectrum_check(
        cfg.domain, cfg.potential, k=cfg.eigen_count, mesh_h=cfg.target_h,
        levels=cfg.duality_levels, seed=cfg.seed,
        tol=cfg.tolerances["duality_rel"])


_CASES = {  # check id: (case axes, outermost first; case function)
    "eigen_spectrum": ((DEGREES, REALIZATIONS), _eigen_spectrum),
    "decomposition_identity": ((DEGREES, REALIZATIONS), _decomposition),
    "green_identity": ((DEGREES, REALIZATIONS), _green),
    "h1_identity": ((DEGREES, REALIZATIONS), _h1),
    "gamma2": ((), _gamma2),
    "bl_scalar": ((SCALAR_DEGREE, REALIZATIONS, N_VALUES), _bl_scalar),
    "bl_forms": ((REALIZATIONS,), _bl_forms),
    "variance_identity": ((REALIZATIONS,), _variance),
    "gap_lower_bound": ((DEGREES, GAP_N_VALUES), _gap),
    "semiclassical_sweep": ((REALIZATIONS, DEGREES), _semiclassical),
    "hypothesis_check": ((REALIZATIONS, BOUND_DEGREES, BOUND_N_VALUES), _hypothesis),
    "intertwining": ((REALIZATIONS,), _intertwining),
    "hodge_decomposition": ((DEGREES, REALIZATIONS), _hodge),
    "duality_spectrum": ((), _duality),
}

# Looked up at call time, so a wrapper installed here (a tracer) sees every run.
RUNNERS = {cid: _runner(cid, axes, fn) for cid, (axes, fn) in _CASES.items()}


def run_config(cfg: RunConfig, timings: bool = False) -> Report:
    """Every configured check in one run-cache scope (see runcache), once the
    mesh budget admits the config."""
    check_mesh_budget(cfg)
    records = []
    with runcache.scope():
        for check_id in cfg.checks:
            records.extend(RUNNERS[check_id](cfg, timings=timings))
    return Report(cfg.echo(), _environment(), records).finalize()


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

_QUAD_SWEEP = (4, 8, 12)
ROUNDOFF_FLOOR = 1e-12   # a ladder error at or below this is roundoff


def _fit_order(hs, errs):
    """Log-log least-squares slope and a note.

    Only levels with a finite error above ROUNDOFF_FLOOR count; with fewer
    than 3 of them the order is None and the note says why.
    """
    finite = [(h, e) for h, e in zip(hs, errs) if np.isfinite(e)]
    pairs = [(h, e) for h, e in finite if e > ROUNDOFF_FLOOR]
    if len(pairs) < 3:
        if len(pairs) < len(finite):
            return None, "errors at roundoff floor"
        return None, "order omitted: fewer than 3 levels with finite error"
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    A = np.column_stack([lx, np.ones_like(lx)])
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope), ""


def _worst(records) -> float:
    """Largest rel_err of a ladder level; error records carry none."""
    return max((r.rel_err for r in records if r.error is None), default=math.nan)


def convergence_study(cfg: RunConfig, timings: bool = False) -> Report:
    """Refinement/quadrature ladders with fitted observed orders, in one
    run-cache scope (see runcache)."""
    if cfg.refinements < 2:
        raise ValueError("convergence study needs refinements >= 2 (>= 3 levels)")
    check_mesh_budget(cfg)
    records = []
    tables = []
    with runcache.scope():
        for check_id in cfg.checks:
            if check_id in ("decomposition_identity", "green_identity", "h1_identity",
                            "gamma2"):
                # levels below the configured order are ladder data only: the
                # production tolerance is graded at the configured order and above
                levels = sorted({*_QUAD_SWEEP, cfg.quad_order})
                errs = []
                for qo in levels:
                    sub = RUNNERS[check_id](replace(cfg, quad_order=qo), timings=timings)
                    if qo >= cfg.quad_order:
                        records.extend(sub)
                    errs.append(_worst(sub))
                order, note = _fit_order([1.0 / q for q in levels], errs)
                tables.append({"check_id": check_id, "axis": "quad_order",
                               "levels": levels, "rel_errs": errs, "order": order,
                               "note": note or "error vs inverse quadrature order"})
            elif check_id in ("eigen_spectrum", "variance_identity"):
                hs, errs = [], []
                h = cfg.target_h
                for _ in range(cfg.refinements + 1):
                    sub = RUNNERS[check_id](replace(cfg, target_h=h), timings=timings)
                    records.extend(sub)
                    hs.append(max(r.mesh_h or h for r in sub))
                    errs.append(_worst(sub))
                    h = h / 2
                order, note = _fit_order(hs, errs)
                tables.append({"check_id": check_id, "axis": "mesh_h", "levels": hs,
                               "rel_errs": errs, "order": order, "note": note})
            else:
                sub = RUNNERS[check_id](cfg, timings=timings)
                records.extend(sub)
                tables.append({"check_id": check_id, "axis": "none", "levels": [],
                               "rel_errs": [], "order": None,
                               "note": "check runs its own ladder"})
    report = Report(cfg.echo(), _environment(), records, convergence=tables)
    return report.finalize()
