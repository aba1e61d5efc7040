"""Batch-run configuration: a single JSON document, validated with key paths."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .curvature import _admissible_N
from .domains import DomainSpec, DomainValidationError
from .potentials import Potential, parse_potential
from .presets import CHECK_IDS, SYMBOLIC_CHECKS
from .records import DEFAULT_TOLERANCES, decode_extended

__all__ = ["ConfigError", "RunConfig", "load_config", "check_mesh_budget"]

# desk-scale guards
MAX_REFINEMENTS = 6
MAX_QUAD_ORDER = 32
MAX_EIGEN_COUNT = 100
MAX_SAMPLES = 1000
MAX_POTENTIAL_DEGREE = 12  # total degree of a polynomial-table term; a table,
                           # unlike a preset, is derived by sympy at load time
MAX_TOP_SIMPLICES = 8_000_000  # estimated, summed over the deepest mesh ladder
# top simplices per measure / h^d on a level-0 mesh, at or above every
# mesher's measured ratio: 1.0 in 1D (up to rounding to whole elements); in
# 2D 4.0-6.0 for the disk, annulus, rectangle and torus and 13.7 for an
# L-shaped polygon
SIMPLEX_DENSITY = {1: 1.0, 2: 14.0}
# the top-level keys of a config; load_config refuses any other key with its path
TOP_KEYS = ("domain", "potential", "h_param", "degrees", "realizations", "N", "checks", "mesh",
            "quad_order", "tolerances", "seed", "h_list", "output", "eigen_count", "n_samples")


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


@dataclass
class RunConfig:
    domain: DomainSpec
    potential: Potential
    degrees: list
    realizations: list
    N_values: list
    checks: list
    target_h: float
    refinements: int
    quad_order: int
    tolerances: dict
    seed: int
    output: str | None
    h_list: list
    eigen_count: int
    n_samples: int
    inadmissible_N: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def echo(self) -> dict:
        return self.raw

    @property
    def duality_levels(self) -> int:
        """Levels of the duality ladder, the deepest mesh ladder of a run:
        1e-6 agreement needs one Richardson stage beyond the h^2 and h^4
        terms, so at least 4."""
        return max(4, self.refinements + 1)


def _known_keys(obj: dict, prefix: str, keys):
    """Refuse the first key of obj outside keys, at the path prefix + key."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}", f"unknown key; expected one of {', '.join(keys)}")


def _typed(val, path: str, kind: type, what: str):
    """val, which must be an instance of kind."""
    if not isinstance(val, kind):
        raise ConfigError(path, f"must be {what}, got {val!r}")
    return val


def _integer(val, path: str, lo: int, hi: int | None = None) -> int:
    """val, which must be an integer (not a boolean) in [lo, hi]."""
    if isinstance(val, bool) or not isinstance(val, int) or val < lo or (
            hi is not None and val > hi):
        span = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(path, f"must be an integer {span}, got {val!r}")
    return val


def _count(raw: dict, key: str, default: int, cap: int) -> int:
    """A positive integer count up to cap: zero samples would make a check
    vacuous."""
    return _integer(raw.get(key, default), key, 1, cap)


def _finite(val, path: str, what: str = "a finite number") -> float:
    """val as a float; it must be a finite JSON number, not a boolean."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"must be {what}, got {val!r}")
    try:
        x = float(val)
    except OverflowError:          # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"must be {what}, got {val!r}")
    return x


def _positive(val, path: str) -> float:
    """val, which must be a finite positive number: an infinite tolerance
    would pass every identity."""
    what = "a finite positive number"
    x = _finite(val, path, what)
    if x <= 0:
        raise ConfigError(path, f"must be {what}, got {val!r}")
    return x


def _distinct(raw: dict, key: str, default: list, parse) -> list:
    """A list of distinct entries parse(path, entry)."""
    entries = _typed(raw.get(key, default), key, list, "a list")
    values = []
    for i, val in enumerate(entries):
        val = parse(f"{key}[{i}]", val)
        if val in values:
            raise ConfigError(f"{key}[{i}]", f"repeats {val!r}")
        values.append(val)
    return values


def _axis(raw: dict, key: str, default: list, parse) -> list:
    """A case axis: a non-empty list of distinct entries parse(path, entry)."""
    values = _distinct(raw, key, default, parse)
    if not values:
        raise ConfigError(key, "must not be empty")
    return values


def _extended(path: str, val) -> float:
    """A number or "inf"/"+inf"/"-inf"; NaN is no extended real."""
    if isinstance(val, bool):
        raise ConfigError(path, f"cannot parse {val!r}")
    try:
        N = decode_extended(val)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"cannot parse {val!r}")
    if N is None or math.isnan(N):
        raise ConfigError(path, f"{val!r} is not an extended real")
    return N


def _domain(cfg) -> DomainSpec:
    """The domain object: a polygon takes vertices ([x, y] pairs), every
    other kind parameters; all coordinates are finite numbers."""
    if not isinstance(cfg, dict):
        raise ConfigError("domain", f"must be an object, got {cfg!r}")
    kind = cfg.get("kind")
    _known_keys(cfg, "domain.", ("kind", "vertices" if kind == "polygon" else "parameters"))
    try:
        if kind == "polygon":
            verts = _typed(cfg.get("vertices", []), "domain.vertices", list, "a list")
            for i, v in enumerate(verts):
                if not isinstance(v, list) or len(v) != 2:
                    raise ConfigError(f"domain.vertices[{i}]",
                                      f"must be an [x, y] pair, got {v!r}")
            return DomainSpec.polygon([[_finite(c, f"domain.vertices[{i}][{j}]")
                                        for j, c in enumerate(v)] for i, v in enumerate(verts)])
        params = _typed(cfg.get("parameters", []), "domain.parameters", list, "a list")
        return DomainSpec(kind, tuple(_finite(v, f"domain.parameters[{i}]")
                                      for i, v in enumerate(params)))
    except DomainValidationError as e:
        raise ConfigError(f"domain.{e.field_name}", str(e))


def _potential(val, n: int, h_param: float) -> Potential:
    """A preset name or {"terms": [[exponents..., coefficient], ...]} with n
    non-negative integer exponents of total degree at most
    MAX_POTENTIAL_DEGREE and a finite coefficient per row."""
    if isinstance(val, dict):
        _known_keys(val, "potential.", ("terms",))
        terms = _typed(val.get("terms"), "potential.terms", list, "a list of rows")
        for i, row in enumerate(terms):
            path = f"potential.terms[{i}]"
            if not isinstance(row, list) or len(row) != n + 1:
                raise ConfigError(path, f"must be {n} exponents and a coefficient, got {row!r}")
            degree = sum(_integer(e, f"{path}[{j}]", 0) for j, e in enumerate(row[:n]))
            if degree > MAX_POTENTIAL_DEGREE:
                raise ConfigError(path, f"total degree {degree} exceeds {MAX_POTENTIAL_DEGREE}")
            _finite(row[n], f"{path}[{n}]")
    elif not isinstance(val, str):
        raise ConfigError("potential", f"must be a preset name or an object, got {val!r}")
    try:
        return parse_potential(val, n, h_param)
    except ValueError as e:
        raise ConfigError("potential", str(e))


def load_config(source) -> RunConfig:
    """Parse and validate a config dict or a JSON file path.

    The realizations are settled against the domain here: a domain with
    boundary takes tangential and normal, a closed domain only none.  A
    closed domain also takes only a constant potential.  Every object
    refuses a key it does not know, at that key's path.  Only a check of
    presets.SYMBOLIC_CHECKS makes it import sympy.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    _known_keys(raw, "", TOP_KEYS)
    if "domain" not in raw:
        raise ConfigError("domain", "missing")
    domain = _domain(raw["domain"])
    n = domain.ambient_dim
    h_param = _positive(raw.get("h_param", 1.0), "h_param")
    potential = _potential(raw.get("potential", "zero"), n, h_param)
    if not domain.has_boundary and not potential.is_constant:
        # no nonconstant preset or polynomial is periodic: V would jump at the seam
        raise ConfigError("potential", f"the {domain.kind} domain has no boundary and "
                                       f"takes only a constant potential, got {potential.name}")

    degrees = _axis(raw, "degrees", [0], lambda path, p: _integer(p, path, 0, n))
    allowed = ("tangential", "normal") if domain.has_boundary else ("none",)

    def realization(path, b):
        if b not in allowed:
            raise ConfigError(path, f"the {domain.kind} domain takes "
                                    f"{' or '.join(allowed)}, got {b!r}")
        return b

    realizations = _axis(raw, "realizations", [allowed[-1]], realization)  # normal/none
    N_values = _axis(raw, "N", ["inf"], _extended)
    # flagged at parse time, reported as not_applicable
    inadmissible = [N for N in N_values if not _admissible_N(N, n, potential.is_constant)]

    def check_id(path, cid):
        if not isinstance(cid, str) or cid not in CHECK_IDS:
            raise ConfigError(path, f"unknown check id {cid!r}; see list-presets")
        return cid

    checks = _distinct(raw, "checks", [], check_id)   # empty: nothing to run
    if SYMBOLIC_CHECKS.intersection(checks):
        potential.grad_exprs   # sympy and V's symbolic form: set-up for the analytic checks
    mesh = _typed(raw.get("mesh", {}), "mesh", dict, "an object")
    _known_keys(mesh, "mesh.", ("target_h", "refinements"))
    target_h = _positive(mesh.get("target_h", 0.25), "mesh.target_h")
    refinements = _integer(mesh.get("refinements", 0), "mesh.refinements", 0,
                           MAX_REFINEMENTS)
    quad_order = _integer(raw.get("quad_order", 8), "quad_order", 2, MAX_QUAD_ORDER)
    tolerances = dict(DEFAULT_TOLERANCES)
    for k, v in _typed(raw.get("tolerances", {}), "tolerances", dict, "an object").items():
        if k not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{k}", "unknown tolerance key")
        tolerances[k] = _positive(v, f"tolerances.{k}")
    seed = _integer(raw.get("seed", 1234), "seed", 0)
    h_list = [_positive(h, f"h_list[{i}]") for i, h in
              enumerate(_typed(raw.get("h_list", [1.0, 0.5, 0.25]), "h_list", list, "a list"))]
    if any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ConfigError("h_list", "must be strictly descending")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", f"must be a file path or null, got {output!r}")
    return RunConfig(domain=domain, potential=potential, degrees=degrees,
                     realizations=realizations, N_values=N_values, checks=checks,
                     target_h=target_h, refinements=refinements, quad_order=quad_order,
                     tolerances=tolerances, seed=seed, output=output,
                     h_list=h_list, eigen_count=_count(raw, "eigen_count", 3, MAX_EIGEN_COUNT),
                     n_samples=_count(raw, "n_samples", 20, MAX_SAMPLES),
                     inadmissible_N=inadmissible, raw=raw)


def check_mesh_budget(cfg: RunConfig):
    """Raise ConfigError at mesh.target_h when the deepest mesh ladder of a
    run would exceed MAX_TOP_SIMPLICES; run_config and convergence_study call
    it before any mesh is built.

    The deepest ladder is the duality ladder, cfg.duality_levels levels from
    target_h, and each refinement multiplies the top simplices by 2^d.
    A level-0 mesh is estimated at SIMPLEX_DENSITY[d] * measure / h^d.
    """
    d = cfg.domain.ambient_dim
    try:
        size = SIMPLEX_DENSITY[d] * abs(cfg.domain.measure())
    except OverflowError:           # a domain extent beyond the float range
        size = math.inf
    for _ in range(d):
        size /= cfg.target_h        # overflows to inf, never raises
    size *= sum(2 ** (d * level) for level in range(cfg.duality_levels))
    if size > MAX_TOP_SIMPLICES:
        raise ConfigError("mesh.target_h",
                          f"the mesh ladder would hold about {size:.3g} top simplices, "
                          f"above the budget of {MAX_TOP_SIMPLICES}")
