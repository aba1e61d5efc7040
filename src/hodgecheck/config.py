"""Batch-run configuration: a single JSON document, validated with key paths."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .domains import DomainSpec, DomainValidationError
from .potentials import Potential, parse_potential
from .presets import CHECK_IDS, domain_from_config
from .records import decode_extended

__all__ = ["ConfigError", "RunConfig", "load_config"]

MAX_REFINEMENTS = 6  # desk-scale guard


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


DEFAULT_TOLERANCES = {
    "identity_rel": 1e-8,
    "inequality_rel": 1e-6,
    "inequality_abs": 1e-9,
    "variance_rel": 1e-7,
    "intertwining_rel": 1e-10,
    "hodge_rel": 1e-8,
    "duality_rel": 1e-6,
    "solver": 1e-11,
}


def _typed(raw: dict, key: str, default, kind: type, what: str):
    """raw[key] (or default), which must be an instance of kind."""
    val = raw.get(key, default)
    if not isinstance(val, kind):
        raise ConfigError(key, f"must be {what}, got {val!r}")
    return val


def _count(raw: dict, key: str, default: int) -> int:
    """A positive integer count: zero samples would make a check vacuous."""
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ConfigError(key, f"must be a positive integer, got {val!r}")
    return val


def load_config(source) -> RunConfig:
    """Parse and validate a config dict or a JSON file path."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    if "domain" not in raw:
        raise ConfigError("domain", "missing")
    try:
        domain = domain_from_config(raw["domain"])
    except (DomainValidationError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"domain.{getattr(e, 'field_name', '')}".rstrip("."), str(e))
    n = domain.ambient_dim
    h_param = float(raw.get("h_param", 1.0))
    if h_param <= 0:
        raise ConfigError("h_param", "must be positive")
    try:
        potential = parse_potential(raw.get("potential", "zero"), n, h_param)
    except (ValueError, KeyError) as e:
        raise ConfigError("potential", str(e))

    degrees = _typed(raw, "degrees", [0], list, "a list")
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 0 or p > n
           for p in degrees):
        raise ConfigError("degrees", f"must be integers in [0, {n}]")
    realizations = _typed(raw, "realizations", ["normal"], list, "a list")
    for b in realizations:
        if b not in ("tangential", "normal", "none"):
            raise ConfigError("realizations", f"unknown realization {b!r}")

    N_values, inadmissible = [], []
    for i, val in enumerate(_typed(raw, "N", ["inf"], list, "a list")):
        try:
            N = decode_extended(val)
        except (KeyError, ValueError):
            raise ConfigError(f"N[{i}]", f"cannot parse {val!r}")
        if N is None:
            raise ConfigError(f"N[{i}]", "null is not an extended real")
        if not (N == math.inf or N <= 0 or N >= n):
            inadmissible.append(N)  # flagged at parse time, skipped as not_applicable
        N_values.append(N)

    checks = _typed(raw, "checks", [], list, "a list")
    for i, cid in enumerate(checks):
        if cid not in CHECK_IDS:
            raise ConfigError(f"checks[{i}]", f"unknown check id {cid!r}; "
                                              f"see list-presets")
    mesh = _typed(raw, "mesh", {}, dict, "an object")
    target_h = float(mesh.get("target_h", 0.25))
    if target_h <= 0:
        raise ConfigError("mesh.target_h", "must be positive")
    refinements = int(mesh.get("refinements", 0))
    if not (0 <= refinements <= MAX_REFINEMENTS):
        raise ConfigError("mesh.refinements", f"must be in [0, {MAX_REFINEMENTS}]")
    quad_order = int(raw.get("quad_order", 8))
    if quad_order < 2:
        raise ConfigError("quad_order", "must be >= 2")
    tolerances = dict(DEFAULT_TOLERANCES)
    for k, v in _typed(raw, "tolerances", {}, dict, "an object").items():
        if k not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{k}", "unknown tolerance key")
        tolerances[k] = float(v)
    seed = int(raw.get("seed", 1234))
    h_list = [float(h) for h in _typed(raw, "h_list", [1.0, 0.5, 0.25], list, "a list")]
    if any(h <= 0 for h in h_list) or any(
            h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ConfigError("h_list", "must be positive and strictly descending")
    return RunConfig(domain=domain, potential=potential, degrees=degrees,
                     realizations=realizations, N_values=N_values, checks=checks,
                     target_h=target_h, refinements=refinements, quad_order=quad_order,
                     tolerances=tolerances, seed=seed, output=raw.get("output"),
                     h_list=h_list, eigen_count=_count(raw, "eigen_count", 3),
                     n_samples=_count(raw, "n_samples", 20),
                     inadmissible_N=inadmissible, raw=raw)
