"""Verification outcome records with stable JSON/CSV serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckRecord", "DEFAULT_TOLERANCES", "encode_extended", "decode_extended",
           "identity_record", "inequality_record"]

DEFAULT_TOLERANCES = {
    "identity_rel": 1e-8,
    "inequality_rel": 1e-6,
    "inequality_abs": 1e-9,
    "variance_rel": 1e-7,
    "intertwining_rel": 1e-10,
    "hodge_rel": 1e-8,
    "duality_rel": 1e-6,
}
"""The one table of default tolerances: a config's ``tolerances`` overrides
it key by key (config), and the checks' keyword defaults read it."""

CSV_COLUMNS = ["check_id", "p", "b", "N", "h", "quad_order", "lhs", "rhs",
               "rel_err", "hypothesis_status", "pass", "runtime_ms"]


def encode_extended(x):
    """Extended reals to JSON-safe values ("inf"/"-inf" strings)."""
    if x is None:
        return None
    if isinstance(x, str):
        return x
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def decode_extended(x):
    if x is None:
        return None
    if isinstance(x, str):
        return {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf,
                "nan": math.nan}[x.strip().lower()]
    return float(x)


@dataclass
class CheckRecord:
    """One verification outcome: identity sides or inequality side vs bound.

    ``kind`` is "identity", "inequality", or "report"; pass semantics:
    identity passes when rel_err <= tolerance, an inequality when
    lhs <= rhs + tol_abs + tol_rel*|rhs| and its hypotheses hold.  Violated
    hypotheses yield status "not_applicable", never "fail".
    """

    check_id: str
    kind: str = "identity"
    domain: str = ""
    potential: str = ""
    p: int | None = None
    b: str | None = None
    N: float | None = None
    h_param: float = 1.0
    lhs: float = 0.0
    rhs: float = 0.0
    abs_err: float = 0.0
    rel_err: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    hypothesis_status: str = "not_applicable"
    witness: list | None = None
    quad_order: int | None = None
    mesh_h: float | None = None
    runtime_ms: float = 0.0
    error: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.error is not None:
            return "fail"
        if self.kind == "inequality" and self.hypothesis_status == "violated":
            return "not_applicable"
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "domain": self.domain,
            "potential": self.potential,
            "p": self.p,
            "b": self.b,
            "N": encode_extended(self.N),
            "h_param": self.h_param,
            "lhs": encode_extended(self.lhs),
            "rhs": encode_extended(self.rhs),
            "abs_err": encode_extended(self.abs_err),
            "rel_err": encode_extended(self.rel_err),
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "status": self.status,
            "hypothesis_status": self.hypothesis_status,
            "witness": self.witness,
            "quad_order": self.quad_order,
            "mesh_h": self.mesh_h,
            "runtime_ms": self.runtime_ms,
            "error": self.error,
            "extra": _jsonify(self.extra),
        }

    def csv_row(self) -> list:
        return [self.check_id, self.p, self.b, encode_extended(self.N), self.mesh_h,
                self.quad_order, encode_extended(self.lhs), encode_extended(self.rhs),
                encode_extended(self.rel_err), self.hypothesis_status,
                self.status, self.runtime_ms]


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return encode_extended(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _rel_err(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-13:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / scale


def identity_record(check_id: str, lhs: float, rhs: float, tolerance: float,
                    rel_err: float | None = None, abs_err: float | None = None,
                    **kw) -> CheckRecord:
    """The one identity verdict: pass when rel_err <= tolerance.

    rel_err and abs_err default to the gap between lhs and rhs; a check that
    measures its own error (a worst sample, a chain of equalities, an oracle
    scale) passes it in.
    """
    if rel_err is None:
        rel_err = _rel_err(lhs, rhs)
    if abs_err is None:
        abs_err = abs(lhs - rhs)
    return CheckRecord(check_id, kind="identity", lhs=lhs, rhs=rhs,
                       abs_err=abs_err, rel_err=rel_err, tolerance=tolerance,
                       passed=rel_err <= tolerance, hypothesis_status="satisfied", **kw)


def inequality_record(check_id: str, lhs: float, rhs_bound: float,
                      hypothesis_status: str,
                      tol_rel: float = DEFAULT_TOLERANCES["inequality_rel"],
                      tol_abs: float = DEFAULT_TOLERANCES["inequality_abs"],
                      witness=None, **kw) -> CheckRecord:
    margin = lhs - rhs_bound if math.isfinite(rhs_bound) else -math.inf
    if hypothesis_status == "satisfied":
        passed = lhs <= rhs_bound + tol_abs + tol_rel * abs(rhs_bound)
    else:
        passed = False
    viol = max(0.0, margin) if math.isfinite(rhs_bound) else 0.0
    rel = viol / max(abs(rhs_bound), 1e-300) if math.isfinite(rhs_bound) else 0.0
    return CheckRecord(check_id, kind="inequality", lhs=lhs, rhs=rhs_bound,
                       abs_err=margin, rel_err=rel, tolerance=tol_rel, passed=passed,
                       hypothesis_status=hypothesis_status, witness=witness, **kw)
