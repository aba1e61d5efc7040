"""Config validation, batch runs, report schema, determinism, exit codes."""

import json
import math
import re
import time
from pathlib import Path

import pytest

from hodgecheck import checks as checks_mod
from hodgecheck import report as report_mod
from hodgecheck.cli import main
from hodgecheck.config import (MAX_EIGEN_COUNT, MAX_QUAD_ORDER, MAX_SAMPLES, SIMPLEX_DENSITY,
                               ConfigError, load_config)
from hodgecheck.curvature import bakry_emery_tensor
from hodgecheck.domains import DomainSpec
from hodgecheck.meshing import generate_mesh
from hodgecheck.potentials import Potential
from hodgecheck.presets import CHECK_IDS
from hodgecheck.records import (DEFAULT_TOLERANCES, CheckRecord, decode_extended,
                                encode_extended)
from hodgecheck.report import RUNNERS, convergence_study, run_config

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples_config").glob("*.json"))

BASE = {
    "domain": {"kind": "interval", "parameters": [0, 1]},
    "potential": "zero",
    "degrees": [0],
    "realizations": ["normal"],
    "checks": ["eigen_spectrum"],
    "mesh": {"target_h": 1 / 32, "refinements": 2},
    "seed": 11,
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_extended_real_coding():
    assert encode_extended(math.inf) == "inf"
    assert encode_extended(-math.inf) == "-inf"
    assert decode_extended("inf") == math.inf
    assert decode_extended("-INF") == -math.inf
    assert decode_extended(2.5) == 2.5


def test_config_validation_paths(tmp_path, capsys):
    with pytest.raises(ConfigError, match="domain"):
        load_config({"potential": "zero"})
    with pytest.raises(ConfigError, match="checks\\[0\\]"):
        load_config({**BASE, "checks": ["bogus"]})
    with pytest.raises(ConfigError, match="mesh.refinements"):
        load_config({**BASE, "mesh": {"target_h": 0.1, "refinements": 9}})
    with pytest.raises(ConfigError, match="N\\[0\\]"):
        load_config({**BASE, "N": ["sideways"]})
    with pytest.raises(ConfigError, match="potential"):
        load_config({**BASE, "potential": "cubic(2)"})
    with pytest.raises(ConfigError, match="realizations"):
        load_config({**BASE, "realizations": ["diagonal"]})
    for key in ("nope", "solver"):
        with pytest.raises(ConfigError, match=f"at tolerances.{key}: unknown tolerance key"):
            load_config({**BASE, "tolerances": {key: 1.0}})
    # counts must be positive integers: zero samples would pass vacuously
    for key in ("n_samples", "eigen_count"):
        for bad in (0, -3, True, 2.5):
            with pytest.raises(ConfigError, match=f"at {key}:"):
                load_config({**BASE, key: bad})
    with pytest.raises(ConfigError, match="degrees"):
        load_config({**BASE, "degrees": [True]})
    for key, bad in (("N", 5), ("realizations", "normal"), ("degrees", 0),
                     ("checks", "eigen_spectrum"), ("h_list", 0.5)):
        with pytest.raises(ConfigError, match=f"at {key}: must be a list"):
            load_config({**BASE, key: bad})
    for key in ("mesh", "tolerances"):
        with pytest.raises(ConfigError, match=f"at {key}: must be an object"):
            load_config({**BASE, key: "x"})
    # scalars are typed: no raw ValueError, no truncation, no bool as 1
    for path, cfg in (("quad_order", {"quad_order": "x"}),
                      ("quad_order", {"quad_order": 8.7}),
                      ("seed", {"seed": "abc"}),
                      ("seed", {"seed": -1}),
                      ("h_param", {"h_param": "x"}),
                      ("mesh.target_h", {"mesh": {"target_h": "x"}}),
                      ("mesh.refinements", {"mesh": {"refinements": True}}),
                      ("h_list\\[0\\]", {"h_list": ["x"]}),
                      ("tolerances.identity_rel", {"tolerances": {"identity_rel": "x"}}),
                      ("tolerances.identity_rel", {"tolerances": {"identity_rel": "inf"}}),
                      ("tolerances.identity_rel", {"tolerances": {"identity_rel": math.inf}}),
                      ("tolerances.identity_rel", {"tolerances": {"identity_rel": 0.0}}),
                      ("tolerances.identity_rel", {"tolerances": {"identity_rel": math.nan}})):
        with pytest.raises(ConfigError, match=f"at {path}:"):
            load_config({**BASE, **cfg})
    # case axes: no repeated entry, no empty list
    for path, cfg in (("degrees\\[1\\]", {"degrees": [0, 0]}),
                      ("realizations\\[1\\]", {"realizations": ["normal", "normal"]}),
                      ("N\\[1\\]", {"N": ["inf", "+inf"]}),
                      ("N\\[1\\]", {"N": [4, 4.0]}),
                      ("degrees", {"degrees": []}),
                      ("realizations", {"realizations": []}),
                      ("N", {"N": []})):
        with pytest.raises(ConfigError, match=f"at {path}:"):
            load_config({**BASE, **cfg})
    with pytest.raises(ConfigError, match="N\\[0\\]"):
        load_config({**BASE, "N": [[4]]})
    # malformed values exit 2 with their key path instead of a traceback, a
    # hang (a 1e9 exponent), a silent 1/x "polynomial" or non-finite data
    disk = {"kind": "disk", "parameters": [1.0, 0.0, 0.0]}
    for path, cfg in (("domain", {"domain": "disk"}),
                      ("domain.parameters", {"domain": {"kind": "disk", "parameters": 1.0}}),
                      ("domain.parameters[0]",
                       {"domain": {**disk, "parameters": [math.nan, 0, 0]}}),
                      ("domain.vertices[1]",
                       {"domain": {"kind": "polygon", "vertices": [[0, 0], [1], [0, 1]]}}),
                      ("potential.terms", {"potential": {"terms": 3}}),
                      ("potential.terms", {"potential": {}}),
                      ("potential.terms[0][0]", {"potential": {"terms": [[1e9, 1]]}}),
                      ("potential.terms[0]", {"potential": {"terms": [[10**9, 1]]}}),
                      ("potential.terms[0]", {"potential": {"terms": [[1, 2, 1]]}}),
                      ("potential.terms[0][0]", {"potential": {"terms": [[True, 1]]}}),
                      ("potential.terms[0][0]", {"potential": {"terms": [[-1, 1]]}}),
                      ("potential.terms[0][1]", {"potential": {"terms": [[1, math.nan]]}}),
                      ("potential.terms[0][1]", {"potential": {"terms": [[1, -math.inf]]}}),
                      ("potential", {"potential": "quadratic(nan)"}),
                      ("potential", {"potential": "linear(inf)"}),
                      ("potential", {"potential": 5}),
                      ("N[0]", {"N": [math.nan]}),
                      ("N[0]", {"N": ["nan"]}),
                      ("N[0]", {"N": [True]}),
                      ("N[0]", {"N": [10**400]}),
                      ("h_param", {"h_param": 10**400}),
                      ("output", {"output": 5}),
                      ("output", {"output": ["r.json"]}),
                      ("quad_order", {"quad_order": MAX_QUAD_ORDER + 1}),
                      ("eigen_count", {"eigen_count": MAX_EIGEN_COUNT + 1}),
                      ("n_samples", {"n_samples": MAX_SAMPLES + 1}),
                      # unknown keys are refused, never dropped: a misspelt
                      # quad_order would run at order 8, mesh.refinments at 0
                      ("quad_oder", {"quad_oder": 12}),
                      ("mesh.refinments", {"mesh": {"target_h": 0.1, "refinments": 4}}),
                      ("domain.radius", {"domain": {**disk, "radius": 2.0}}),
                      ("domain.parameters",
                       {"domain": {"kind": "polygon", "parameters": [1.0],
                                   "vertices": [[0, 0], [1, 0], [0, 1]]}}),
                      ("domain.vertices", {"domain": {**disk, "vertices": [[0, 0]]}}),
                      ("potential.name", {"potential": {"terms": [[2, 1.0]], "name": "V"}})):
        with pytest.raises(ConfigError, match=re.escape(f"at {path}:")):
            load_config({**BASE, **cfg})
        assert main(["run", _write(tmp_path, {**BASE, **cfg})]) == 2
        assert f"at {path}:" in capsys.readouterr().err
    assert load_config({**BASE, "output": None}).output is None


# a config that loaded before the caps, then sized a mesh of 1e18 elements
UNBOUNDED = {"domain": {"kind": "interval", "parameters": [0, 1e12]},
             "mesh": {"target_h": 1e-6}, "quad_order": 10**9, "n_samples": 10**12}


def test_work_is_bounded_before_it_starts(tmp_path, capsys, monkeypatch):
    """The caps refuse the unbounded config at load time; with its counts in
    range, the mesh budget refuses it at mesh.target_h before any mesh is
    built, in run and in converge alike."""
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(checks_mod, "generate_mesh", no_mesh)
    start = time.perf_counter()
    assert main(["run", _write(tmp_path, UNBOUNDED)]) == 2
    assert "at quad_order:" in capsys.readouterr().err
    in_range = {**UNBOUNDED, "quad_order": 8, "n_samples": 20, "checks": list(CHECK_IDS),
                "mesh": {"target_h": 1e-6, "refinements": 2}}
    for command in ("run", "converge"):
        assert main([command, _write(tmp_path, in_range)]) == 2
        assert "at mesh.target_h:" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("domain, h", [
    (DomainSpec.interval(0.0, 1.0), 0.1), (DomainSpec.circle(1.0), 0.1),
    (DomainSpec.disk(1.0), 0.3), (DomainSpec.disk(1.0), 0.05),
    (DomainSpec.annulus(0.5, 1.0), 0.1), (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 0.1),
    (DomainSpec.flat_torus(1.0, 1.0), 0.1),
    (DomainSpec.polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]), 0.1)],
    ids=lambda v: getattr(v, "kind", str(v)))
def test_simplex_density_bounds_level_zero_meshes(domain, h):
    """The mesh budget's estimate is no smaller than the level-0 mesh, up to
    the one element a 1D mesh gains by rounding up."""
    d = domain.ambient_dim
    estimate = SIMPLEX_DENSITY[d] * domain.measure() / h ** d
    assert generate_mesh(domain, h).num(d) <= estimate + 1


def test_checks_list_validated(tmp_path, capsys):
    """A repeated or non-string check id exits 2 with its key path; an
    absent or empty checks list runs nothing."""
    for checks, path, what in ((["eigen_spectrum", "eigen_spectrum"], "checks[1]", "repeats"),
                               ([["eigen_spectrum"]], "checks[0]", "unknown check id"),
                               ([{"id": "gamma2"}], "checks[0]", "unknown check id"),
                               ([3], "checks[0]", "unknown check id")):
        with pytest.raises(ConfigError, match=re.escape(f"at {path}: {what}")):
            load_config({**BASE, "checks": checks})
        assert main(["run", _write(tmp_path, {**BASE, "checks": checks})]) == 2
        assert f"at {path}: {what}" in capsys.readouterr().err
    assert load_config({**BASE, "checks": []}).checks == []
    cfg = dict(BASE)
    del cfg["checks"]
    assert load_config(cfg).checks == []


def test_realizations_settled_against_domain():
    torus = {**BASE, "domain": {"kind": "flat_torus", "parameters": [1.0, 1.0]}}
    with pytest.raises(ConfigError, match="at realizations\\[1\\]: the flat_torus"):
        load_config({**torus, "realizations": ["none", "normal"]})
    with pytest.raises(ConfigError, match="at realizations\\[1\\]: the interval"):
        load_config({**BASE, "realizations": ["tangential", "none"]})
    del torus["realizations"]
    assert load_config(torus).realizations == ["none"]
    assert load_config({k: v for k, v in BASE.items()
                        if k != "realizations"}).realizations == ["normal"]


def test_inadmissible_N_flagged_and_skipped():
    cfg = load_config({**BASE,
                       "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
                       "potential": "quadratic(1.0)",
                       "N": [1.0, "inf"], "checks": ["bl_scalar"]})
    assert cfg.inadmissible_N == [1.0]
    report = run_config(cfg)
    statuses = {(r.N, r.status) for r in report.records}
    assert (1.0, "not_applicable") in statuses
    assert (math.inf, "pass") in statuses


def test_empty_checks_reports_success(tmp_path):
    path = _write(tmp_path, {**BASE, "checks": []})
    assert main(["run", path, "--out", str(tmp_path / "r.json")]) == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["records"] == []
    assert rep["summary"] == {"fail": 0, "not_applicable": 0, "pass": 0}


def test_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert main(["run", path, "--out", str(tmp_path / "r.json")]) == 0
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, {**BASE, "mesh": {"target_h": -1}}, "bad.json")
    assert main(["run", bad]) == 2


def test_report_schema_and_summary(tmp_path):
    cfg = load_config({**BASE, "checks": ["eigen_spectrum", "variance_identity",
                                          "intertwining"]})
    report = run_config(cfg)
    counts = {"pass": 0, "fail": 0, "not_applicable": 0}
    for r in report.records:
        counts[r.status] += 1
    assert counts == report.summary
    d = report.records[0].to_json_dict()
    for key in ("check_id", "domain", "potential", "p", "b", "N", "h_param", "lhs",
                "rhs", "abs_err", "rel_err", "tolerance", "pass", "hypothesis_status",
                "witness", "quad_order", "mesh_h", "runtime_ms"):
        assert key in d
    assert d["runtime_ms"] == 0.0  # deterministic default


def test_byte_identical_reports(tmp_path):
    cfg_path = _write(tmp_path, {**BASE, "checks": ["eigen_spectrum",
                                                    "variance_identity"]})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["run", cfg_path, "--out", out1]) == 0
    assert main(["run", cfg_path, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_csv_columns(tmp_path):
    cfg_path = _write(tmp_path, BASE)
    csv_path = str(tmp_path / "rows.csv")
    main(["run", cfg_path, "--out", str(tmp_path / "r.json"), "--csv", csv_path])
    header = open(csv_path).readline().strip().split(",")
    assert header == ["check_id", "p", "b", "N", "h", "quad_order", "lhs", "rhs",
                      "rel_err", "hypothesis_status", "pass", "runtime_ms"]


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for needle in ("quadratic(alpha)", "decomposition_identity", "annulus"):
        assert needle in out


def test_converge_help_matches_run(capsys):
    """run and converge declare their arguments once: converge --help carries
    the same argument help as run --help, the --timings warning included."""
    helps = {}
    for command in ("run", "converge"):
        with pytest.raises(SystemExit) as e:
            main([command, "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        helps[command] = out[out.index("positional arguments:"):]   # past the usage line
    assert helps["run"] == helps["converge"]
    assert "breaks byte-identical reports" in helps["converge"]


@pytest.mark.parametrize("extra", [{"h_param": 0.5},
                                   {"potential": {"terms": [[0, 0.0]]}}],
                         ids=["zero-rescaled", "constant-table"])
def test_interval_oracle_for_any_constant_potential(extra):
    """A constant potential cancels from S and M, so the closed-form interval
    oracle grades it whatever the potential is called."""
    cfg = load_config({**BASE, **extra, "realizations": ["normal", "tangential"]})
    assert cfg.potential.name != "zero" and cfg.potential.is_constant
    records = run_config(cfg).records
    assert len(records) == 2
    for rec in records:
        assert rec.kind == "identity" and rec.passed and "oracle" in rec.extra


def test_convergence_study_orders():
    cfg = load_config({**BASE, "checks": ["eigen_spectrum"],
                       "mesh": {"target_h": 1 / 16, "refinements": 3}})
    report = convergence_study(cfg)
    table = [t for t in report.convergence if t["check_id"] == "eigen_spectrum"][0]
    assert table["order"] is not None and table["order"] >= 1.9
    # variance identity: residuals at the solver floor, mesh independent
    cfg2 = load_config({**BASE, "checks": ["variance_identity"], "n_samples": 5,
                        "mesh": {"target_h": 1 / 8, "refinements": 2}})
    rep2 = convergence_study(cfg2)
    tab2 = [t for t in rep2.convergence if t["check_id"] == "variance_identity"][0]
    assert max(tab2["rel_errs"]) <= 1e-10
    assert tab2["order"] is None and tab2["note"] == "errors at roundoff floor"
    with pytest.raises(ValueError):
        convergence_study(load_config({**BASE, "mesh": {"target_h": 0.1,
                                                        "refinements": 1}}))


def test_convergence_identity_vs_quad_order():
    cfg = load_config({
        "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
        "potential": "quadratic(1.0)",
        "degrees": [1], "realizations": ["tangential"],
        "checks": ["decomposition_identity"],
        "mesh": {"target_h": 0.3, "refinements": 2}, "seed": 3})
    rep = convergence_study(cfg)
    tab = [t for t in rep.convergence if t["check_id"] == "decomposition_identity"][0]
    errs = [max(e, 1e-15) for e in tab["rel_errs"]]
    assert errs[1] <= 2 * errs[0] and errs[2] <= 2 * errs[1]
    # orders below the configured one are ladder data, never graded records
    assert tab["levels"] == [4, 8, 12]
    graded = [r.quad_order for r in rep.records if r.check_id == "decomposition_identity"]
    assert graded and min(graded) >= cfg.quad_order == 8
    assert {8, 12} <= set(graded)


def test_record_status_logic():
    rec = CheckRecord("x", kind="inequality", hypothesis_status="violated", passed=False)
    assert rec.status == "not_applicable"
    rec = CheckRecord("x", kind="inequality", hypothesis_status="satisfied", passed=False)
    assert rec.status == "fail"
    rec = CheckRecord("x", kind="identity", passed=True, hypothesis_status="satisfied")
    assert rec.status == "pass"
    rec = CheckRecord("x", error="boom")
    assert rec.status == "fail"


def test_boundaryless_domain_run():
    """Flat torus through the CLI path: the none realization keeps every DOF."""
    cfg = load_config({
        "domain": {"kind": "flat_torus", "parameters": [1.0, 1.0]},
        "potential": "zero",
        "degrees": [0, 1],
        "realizations": ["none"],
        "checks": ["eigen_spectrum", "variance_identity", "intertwining",
                   "hodge_decomposition", "bl_scalar"],
        "mesh": {"target_h": 0.3},
        "n_samples": 5,
        "seed": 4,
    })
    report = run_config(cfg)
    assert report.summary["fail"] == 0
    by_id = {}
    for r in report.records:
        by_id.setdefault(r.check_id, []).append(r)
    assert by_id["variance_identity"][0].status == "pass"
    # V = 0 on the torus: curvature bound degenerates, never a false pass
    assert all(r.status == "not_applicable" for r in by_id["bl_scalar"])
    # two harmonic 1-form classes
    hodge1 = [r for r in by_id["hodge_decomposition"] if r.p == 1]
    assert hodge1 and hodge1[0].extra["kernel_dim"] == 2


@pytest.mark.parametrize("domain", [{"kind": "flat_torus", "parameters": [1.0, 1.0]},
                                    {"kind": "circle", "parameters": [1.0]}],
                         ids=["flat_torus", "circle"])
def test_closed_domain_refuses_nonconstant_potential(tmp_path, capsys, domain):
    """No nonconstant potential is periodic, so a closed domain takes only a
    constant one: run exits 2 at potential before any check runs."""
    n = 2 if domain["kind"] == "flat_torus" else 1
    for potential in ("quadratic(1.0)", {"terms": [[1] + [0] * (n - 1) + [2.0]]}):
        path = _write(tmp_path, {"domain": domain, "potential": potential,
                                 "checks": ["eigen_spectrum"]})
        assert main(["run", path]) == 2
        assert "at potential:" in capsys.readouterr().err
    constant = {"terms": [[0] * n + [2.0]]}
    assert load_config({"domain": domain, "potential": constant}).potential.is_constant


def test_closed_domain_cases_run_once():
    """A closed domain's one realization reaches every check exactly once."""
    cfg = load_config({
        "domain": {"kind": "flat_torus", "parameters": [1.0, 1.0]},
        "potential": "zero", "degrees": [0, 1],
        "checks": ["decomposition_identity", "hypothesis_check", "semiclassical_sweep"],
        "mesh": {"target_h": 0.35}, "h_list": [1.0, 0.5], "seed": 4})
    report = run_config(cfg)
    assert {r.b for r in report.records} == {"none"}
    by_id = {}
    for r in report.records:
        by_id.setdefault(r.check_id, []).append((r.p, r.h_param))
    assert by_id["decomposition_identity"] == [(0, 1.0), (1, 1.0)]
    assert by_id["hypothesis_check"] == [(1, 1.0)]
    assert by_id["semiclassical_sweep"] == [(0, 1.0), (0, 0.5), (1, 1.0), (1, 0.5)]


def test_runners_cover_check_ids():
    assert list(RUNNERS) == list(CHECK_IDS)


def test_raising_case_becomes_its_error_record():
    cfg = load_config({**BASE, "potential": "quadratic(1.0)", "degrees": [0, 1],
                       "realizations": ["normal", "tangential"], "N": ["inf", 2]})
    ran = []

    def case(cfg, b, p, N):
        ran.append((b, p, N))
        if (b, p, N) == ("normal", 1, 2.0):
            raise RuntimeError("boom")
        return CheckRecord("hypothesis_check", kind="identity", p=p, b=b, N=N,
                           passed=True, hypothesis_status="satisfied")

    runner = report_mod._runner("hypothesis_check", (report_mod.REALIZATIONS,
                                                     report_mod.BOUND_DEGREES,
                                                     report_mod.N_VALUES), case)
    recs = runner(cfg)
    # bound degrees max(p, 1) run once each: p = 0 and p = 1 share degree 1
    assert ran == [("normal", 1, math.inf), ("normal", 1, 2.0),
                   ("tangential", 1, math.inf), ("tangential", 1, 2.0)]
    assert [(r.b, r.p, r.N, r.status) for r in recs] == [
        ("normal", 1, math.inf, "pass"), ("normal", 1, 2.0, "fail"),
        ("tangential", 1, math.inf, "pass"), ("tangential", 1, 2.0, "pass")]
    assert recs[1].error == "RuntimeError: boom"
    assert recs[1].domain == "interval[0.0, 1.0]" and recs[1].potential == "quadratic(1)"


def test_error_record_carries_the_traceback(tmp_path):
    """An error record keeps the formatted traceback of the exception that
    made it, and the JSON report carries it as extra.traceback."""
    cfg = load_config(BASE)

    def case(cfg, p, b):
        raise RuntimeError("boom")

    [rec] = report_mod._runner("eigen_spectrum", (report_mod.DEGREES,
                                                  report_mod.REALIZATIONS), case)(cfg)
    assert rec.error == "RuntimeError: boom"
    tb = rec.extra["traceback"]
    assert tb.startswith("Traceback (most recent call last):\n")
    assert 'raise RuntimeError("boom")' in tb and tb.endswith("RuntimeError: boom\n")
    path = _write(tmp_path, {
        "domain": {"kind": "flat_torus", "parameters": [1.0, 1.0]}, "checks": ["gamma2"]})
    out = tmp_path / "report.json"
    assert main(["run", path, "--out", str(out)]) == 1
    [rec] = json.loads(out.read_text())["records"]
    assert rec["extra"]["traceback"].endswith("ValueError: no bubble for flat_torus\n")


def test_converge_captures_raising_case(tmp_path):
    """gamma2 has no bump on a closed domain: an error record, not a config error."""
    path = _write(tmp_path, {
        "domain": {"kind": "flat_torus", "parameters": [1.0, 1.0]},
        "checks": ["gamma2"], "mesh": {"target_h": 0.3, "refinements": 2}})
    out = tmp_path / "conv.json"
    assert main(["converge", path, "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert [r["error"] for r in rep["records"]] == \
        ["ValueError: no bubble for flat_torus"] * 2   # graded orders 8 and 12
    assert rep["convergence"][0]["order"] is None


def test_inadmissible_N_is_not_applicable_in_every_N_check():
    cfg = load_config({**BASE, "potential": "quadratic(1.0)", "degrees": [0, 1],
                       "N": [0.5, "inf"], "mesh": {"target_h": 0.125},
                       "checks": ["bl_scalar", "gap_lower_bound", "hypothesis_check"]})
    assert cfg.inadmissible_N == [0.5]
    report = run_config(cfg)
    flagged = {}
    for r in report.records:
        if r.N == 0.5:
            assert r.status == "not_applicable" and r.hypothesis_status == "violated"
            assert r.extra == {"note": "N flagged inadmissible at parse time"}
            flagged.setdefault(r.check_id, []).append(r.p)
    assert flagged == {"bl_scalar": [1], "gap_lower_bound": [0],
                       "hypothesis_check": [1]}
    assert report.summary["fail"] == 0


@pytest.mark.parametrize("domain", [{"kind": "interval", "parameters": [0, 1]},
                                    {"kind": "disk", "parameters": [1.0, 0.0, 0.0]}])
def test_N_band_rule_shared_by_config_and_tensor(domain):
    """load_config flags, and the run reports not_applicable, exactly the N
    that bakry_emery_tensor refuses under the run's potential: the open band
    (0, n), and N = n under a nonconstant V, but not under V = 0.  No case
    becomes an error record."""
    cfg = load_config({**BASE, "domain": domain, "potential": "quadratic(1.0)",
                       "N": ["-inf", -1, 0, 0.5, 1, 1.5, 2, 3, "inf"],
                       "checks": ["bl_scalar"], "quad_order": 4})
    n = cfg.domain.ambient_dim
    for N in cfg.N_values:
        for V in (cfg.potential, Potential.zero(n)):
            try:
                bakry_emery_tensor(V, N)
                refused = False
            except ValueError:
                refused = True
            assert refused == (0 < N < n or (N == n and not V.is_constant))
            assert refused == (N in load_config({**cfg.raw, "potential": V.name}).inadmissible_N)
    assert n in cfg.inadmissible_N
    for r in run_config(cfg).records:
        flagged = r.extra == {"note": "N flagged inadmissible at parse time"}
        assert flagged == (r.N in cfg.inadmissible_N)
        assert r.status == "not_applicable" or not flagged
        assert r.error is None


def test_timings_are_per_case(monkeypatch):
    cfg = load_config({**BASE, "realizations": ["tangential", "normal"]})

    def case(cfg, b):
        if b == "tangential":
            time.sleep(0.05)
        return CheckRecord("eigen_spectrum", b=b, passed=True)

    monkeypatch.setitem(RUNNERS, "eigen_spectrum", report_mod._runner(
        "eigen_spectrum", (report_mod.REALIZATIONS,), case))
    slow, fast = run_config(cfg, timings=True).records
    assert slow.runtime_ms >= 50.0 > fast.runtime_ms > 0.0
    assert all(r.runtime_ms == 0.0 for r in run_config(cfg).records)


def test_converge_timings(tmp_path):
    path = _write(tmp_path, {**BASE, "mesh": {"target_h": 1 / 8, "refinements": 2}})
    for flag, timed in (([], False), (["--timings"], True)):
        out = tmp_path / "conv.json"
        assert main(["converge", path, "--out", str(out), *flag]) == 0
        runtimes = [r["runtime_ms"] for r in json.loads(out.read_text())["records"]]
        assert len(runtimes) == 3
        assert all(t > 0 for t in runtimes) if timed else all(t == 0 for t in runtimes)


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Exit status and report of `run` on every shipped example config and
    of the README's `converge examples_config/interval_spectrum.json`."""
    tmp = tmp_path_factory.mktemp("shipped")
    commands = [("run", p) for p in EXAMPLES]
    commands.append(("converge", ROOT / "examples_config" / "interval_spectrum.json"))
    results = {}
    for cmd, path in commands:
        out, csv = tmp / f"{cmd}-{path.stem}.json", tmp / f"{cmd}-{path.stem}.csv"
        status = main([cmd, str(path), "--out", str(out), "--csv", str(csv)])
        results[cmd, path.stem] = status, json.loads(out.read_text())
    return results


def test_shipped_commands_exit_zero(shipped):
    assert len(shipped) == len(EXAMPLES) + 1 >= 3
    assert {key: status for key, (status, _) in shipped.items()} == \
        dict.fromkeys(shipped, 0)


def test_disk_suite_records_distinct(shipped):
    records = shipped["run", "disk_suite"][1]["records"]
    keys = [json.dumps(r, sort_keys=True) for r in records]
    assert len(set(keys)) == len(keys) == 48


def test_hypothesis_check_takes_N_at_degree_one_only():
    """N enters only the degree-1 bound: a higher bound degree gives one
    record with N null, never an inadmissible-N record; the same holds for
    the gap bound, whose bound degree is max(p, 1)."""
    disk = {"domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
            "potential": "quadratic(1.0)", "realizations": ["normal"],
            "checks": ["hypothesis_check"]}
    for extra in ({"N": ["inf", 4]},
                  {"N": ["inf", 4, 1], "checks": ["gap_lower_bound"],
                   "mesh": {"target_h": 0.45}}):
        recs = run_config(load_config({**disk, "degrees": [2], **extra})).records
        assert [(r.p, r.N) for r in recs] == [(2, None)]
        assert recs[0].to_json_dict()["N"] is None and recs[0].status == "pass"
    recs = run_config(load_config({**disk, "degrees": [1, 2], "N": ["inf", 1]})).records
    assert [(r.p, r.N, r.status) for r in recs] == [
        (1, math.inf, "pass"), (1, 1.0, "not_applicable"), (2, None, "pass")]


def test_gap_takes_N_at_degree_zero_only():
    """N scales the gap bound at p = 0 only, and the N = inf case is labelled
    inf like bl_scalar and hypothesis_check; p = 1 gives one record, N null."""
    recs = run_config(load_config({
        "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
        "potential": "quadratic(1.0)", "degrees": [0, 1], "realizations": ["normal"],
        "N": ["inf", 4], "checks": ["gap_lower_bound"],
        "mesh": {"target_h": 0.45}})).records
    assert [(r.p, r.N) for r in recs] == [(0, math.inf), (0, 4.0), (1, None)]
    assert [r.to_json_dict()["N"] for r in recs] == ["inf", 4.0, None]
    assert all(r.status == "pass" for r in recs)


def test_gap_records_carry_the_configured_inequality_tolerance():
    """Both gap checks write the run's inequality_rel as their tolerance, as
    bl_scalar does; without the key they write the default."""
    cfg = {"domain": {"kind": "interval", "parameters": [-2, 2]},
           "potential": "quadratic(1.0)", "degrees": [0], "realizations": ["normal"],
           "checks": ["gap_lower_bound", "semiclassical_sweep", "bl_scalar"],
           "h_list": [1.0, 0.5], "mesh": {"target_h": 1 / 16}}
    for tolerances, expected in (({"inequality_rel": 1e-3}, 1e-3),
                                 ({}, DEFAULT_TOLERANCES["inequality_rel"])):
        recs = run_config(load_config({**cfg, "tolerances": tolerances})).records
        assert {r.check_id for r in recs} == set(cfg["checks"])
        assert [r.tolerance for r in recs] == [expected] * len(recs)
        assert all(r.status == "pass" for r in recs)


def test_fit_order_ignores_roundoff_levels():
    fit = report_mod._fit_order
    hs = [0.4, 0.2, 0.1, 0.05]
    order, note = fit(hs, [4e-3, 1e-3, 2.5e-4, 6.25e-5])
    assert abs(order - 2.0) < 1e-12 and note == ""
    # gamma2 on the disk: one true error, two at the roundoff floor
    assert fit([1 / 4, 1 / 8, 1 / 12], [5.1e-6, 5.9e-15, 1.1e-15]) == \
        (None, "errors at roundoff floor")
    assert fit(hs, [4e-14, 2e-13, 0.0, 4e-13]) == (None, "errors at roundoff floor")
    # a level at the floor does not count toward the three levels
    order, note = fit(hs, [4e-3, 1e-3, 2.5e-4, 1e-12])
    assert abs(order - 2.0) < 1e-12 and note == ""
    assert fit(hs, [4e-3, math.nan, 2.5e-4, math.nan]) == \
        (None, "order omitted: fewer than 3 levels with finite error")


# one small run of every check id under h_param 0.5: a closed-form oracle
# on the interval, inequalities with their hypotheses on the disk
EVERY_CHECK = {
    "interval": {"domain": {"kind": "interval", "parameters": [0.0, 1.0]},
                 "potential": "zero", "N": ["inf", 0.5], "mesh": {"target_h": 0.125}},
    "disk": {"domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
             "potential": "quadratic(1.0)", "N": ["inf", 1.5], "mesh": {"target_h": 0.5}},
}
IDENTITY_CHECKS = {"decomposition_identity", "green_identity", "h1_identity", "gamma2",
                   "variance_identity", "intertwining", "hodge_decomposition",
                   "duality_spectrum"}


@pytest.fixture(scope="module", params=sorted(EVERY_CHECK))
def every_check_report(request):
    """(config, JSON report) of the run; the p = 1 green_identity cases
    raise, so the run has error records beside its not_applicable ones."""
    cfg = load_config({**EVERY_CHECK[request.param], "h_param": 0.5, "degrees": [0, 1],
                       "realizations": ["normal", "tangential"], "checks": list(CHECK_IDS),
                       "n_samples": 3, "eigen_count": 2, "h_list": [1.0, 0.5], "seed": 3})
    green = checks_mod.eval_green_identity

    def raising(form, *args, **kwargs):
        if form.degree == 1:
            raise RuntimeError("boom")
        return green(form, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks_mod, "eval_green_identity", raising)
        report = run_config(cfg)
    return request.param, cfg, json.loads(report.to_json())["records"]


def test_every_record_carries_h_param(every_check_report):
    """Error and not_applicable records included, every record reads the
    run's h_param; a semiclassical record reads the h of its sweep, and the
    f = 0 identity h1_identity names the zero potential, whose h_param is 1."""
    _, cfg, records = every_check_report
    statuses = {r["status"] for r in records}
    assert statuses == {"pass", "fail", "not_applicable"}
    assert {r["check_id"] for r in records if r["error"]} == {"green_identity"}
    for r in records:
        labels = r["potential"], r["h_param"]
        if r["error"] is None and r["check_id"] == "semiclassical_sweep":
            assert labels in {(cfg.potential.name, h) for h in cfg.h_list}
        elif r["error"] is None and r["check_id"] == "h1_identity":
            assert labels == ("zero", 1.0)
        else:
            assert labels == (cfg.potential.name, 0.5), r["check_id"]


def test_identity_verdicts_regrade(every_check_report):
    """Every identity record's verdict is rel_err <= tolerance."""
    domain, _, records = every_check_report
    identities = [r for r in records if r["kind"] == "identity"]
    expected = IDENTITY_CHECKS | ({"eigen_spectrum"} if domain == "interval" else set())
    assert {r["check_id"] for r in identities} == expected
    for r in identities:
        assert r["pass"] == (decode_extended(r["rel_err"]) <= r["tolerance"]), r["check_id"]
        assert r["hypothesis_status"] == "satisfied"
