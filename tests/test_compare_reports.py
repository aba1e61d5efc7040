"""tools/compare_reports.py on two synthetic reports."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _record(check_id, p, lhs, rhs, rel_err, status="pass"):
    return {"check_id": check_id, "kind": "identity", "domain": "disk(R=1)",
            "potential": "quadratic(1)", "p": p, "b": "normal", "N": None, "h_param": 1.0,
            "quad_order": 8, "mesh_h": 0.3, "lhs": lhs, "rhs": rhs, "rel_err": rel_err,
            "status": status}


PARENT = {"records": [
    _record("green_identity", 0, 2.5, 2.5, 1e-16),
    _record("green_identity", 0, 7.0, "inf", 0.0),   # a second record with equal labels
    _record("variance_identity", 1, 0.3, 0.3 + 1e-16, 3e-16),
]}


def _compare(tmp_path, change):
    paths = []
    for name, report in (("parent.json", PARENT), ("change.json", change)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(report))
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True)


def _edit(i, **fields):
    change = copy.deepcopy(PARENT)
    change["records"][i].update(fields)
    return change


@pytest.mark.parametrize("change, problem", [
    (PARENT, None),
    (_edit(0, lhs=2.5 * (1 + 5e-13)), None),
    (_edit(2, lhs=0.9, rhs=0.9, rel_err=2e-16), None),       # another worst sample
    (_edit(2, rel_err=9e-14), None),                          # below the 1e-13 floor
    (_edit(0, rhs=2.5 * (1 + 5e-12)), "rhs 2.5 ->"),
    (_edit(1, rhs=1e300), "rhs 'inf' ->"),
    (_edit(1, status="fail"), "status pass -> fail"),
    (_edit(2, rel_err=2e-13), "rel_err rises"),
    ({"records": PARENT["records"][:2]}, "disappears"),
    ({"records": PARENT["records"] + [_record("gamma2", 0, 1.0, 1.0, 0.0)]}, "appears"),
], ids=["same", "lhs-within", "worst-sample-moves", "worst-sample-floor", "rhs-moves",
        "non-numeric", "status", "worst-sample-rises", "disappears", "appears"])
def test_compare_reports_rule(tmp_path, change, problem):
    out = _compare(tmp_path, change)
    lines = out.stdout.splitlines()
    if problem is None:
        assert out.returncode == 0, out.stdout
        assert lines == ["3 -> 3 records, 0 problem(s)"]
    else:
        assert out.returncode == 1, out.stdout
        assert len(lines) == 2 and problem in lines[0], lines
        assert lines[1].endswith("1 problem(s)")


def test_compare_reports_checks_identity_terms(tmp_path):
    """A term of extra.terms that moves beyond REL_MOVE is a problem even
    when lhs and rhs hold; within it, it gets a "moved:" line only."""
    parent = copy.deepcopy(PARENT)
    parent["records"][0]["extra"] = {"terms": {"unweighted_form": 2.0, "lie": 0.5}}
    parent["records"][2]["extra"] = {"terms": {"unweighted_form": 0.3}}   # not a term record
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    paths[0].write_text(json.dumps(parent))

    def compare(lie, other=0.3):
        change = copy.deepcopy(parent)
        change["records"][0]["extra"]["terms"]["lie"] = lie
        change["records"][2]["extra"]["terms"]["unweighted_form"] = other
        paths[1].write_text(json.dumps(change))
        return subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                              capture_output=True, text=True)

    out = compare(0.5 * (1 + 5e-13), other=0.4)
    assert out.returncode == 0 and out.stdout.splitlines() == ["3 -> 3 records, 0 problem(s)"]
    assert out.stderr.splitlines() == [f"moved: green_identity p=0 b=normal N=None h_param=1.0 "
                                       f"quad_order=8 #0: terms.lie 0.5 -> {0.5 * (1 + 5e-13)!r}"]
    out = compare(0.5 * (1 + 5e-12))
    lines = out.stdout.splitlines()
    assert out.returncode == 1 and len(lines) == 2 and "terms.lie 0.5 ->" in lines[0], lines
    out = compare(None)
    assert out.returncode == 1 and "terms.lie 0.5 -> None" in out.stdout


def _spectral_parent():
    spectrum = _record("eigen_spectrum", 1, 3.8, 3.8, 0.0)
    spectrum["extra"] = {"spectral": {"eigenvalues": [0.0, 3.8, 3.8, 10.1]}}
    gap = _record("gap_lower_bound", 1, 1.0, 3.8, 0.0)
    gap["extra"] = {"eigenvalues": [3.9, 3.85, 3.8]}
    sweep = _record("semiclassical_sweep", 1, 1.0, 3.8, 0.0)
    sweep["extra"] = {"lambda1": 3.8}
    duality = _record("duality_spectrum", 0, 3.8, 3.8, 0.0)
    duality["extra"] = {"direct_levels": [[3.9, 3.9], [3.82, 3.82]],
                        "dual_levels": [[3.7, 3.7], [3.78, 3.78]],
                        "direct_extrapolated": [3.8, 3.8], "dual_extrapolated": [3.8, 3.8]}
    return {"records": [spectrum, gap, sweep, duality]}


@pytest.mark.parametrize("record, path, value, problem", [
    (0, ("spectral", "eigenvalues"), [0.0, 3.8, 3.8 * (1 + 5e-13), 10.1], None),
    (0, ("spectral", "eigenvalues"), [0.0, 3.8, 10.1, 10.1], "spectral.eigenvalues[2] 3.8 -> 10.1"),
    (0, ("spectral", "eigenvalues"), [0.0, 3.8, 3.8], "spectral.eigenvalues[3] 10.1 -> None"),
    (1, ("eigenvalues",), [3.9, 3.85 * (1 + 5e-12), 3.8], "eigenvalues[1] 3.85 ->"),
    (2, ("lambda1",), 3.8 * (1 + 5e-12), "lambda1 3.8 ->"),
    (3, ("dual_levels",), [[3.7, 3.7], [3.78, 3.79]], "dual_levels[1][1] 3.78 -> 3.79"),
    (3, ("direct_extrapolated",), [3.8], "direct_extrapolated[1] 3.8 -> None"),
], ids=["within", "dropped-double-copy", "shorter", "gap", "sweep", "levels", "extrapolated"])
def test_compare_reports_checks_every_eigenvalue(tmp_path, record, path, value, problem):
    """Each element of a spectral record's eigenvalue lists is held to
    REL_MOVE while lhs and rhs stay put: a dropped middle copy of a double
    eigenvalue, or a list of another length, is a problem; a move within
    the rule gets a "moved:" line only."""
    parent, change = _spectral_parent(), _spectral_parent()
    target = change["records"][record]["extra"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for f, report in zip(paths, (parent, change)):
        f.write_text(json.dumps(report))
    out = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                         capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if problem is None:
        assert out.returncode == 0 and lines == ["4 -> 4 records, 0 problem(s)"], lines
        assert out.stderr.splitlines() == [
            f"moved: eigen_spectrum p=1 b=normal N=None h_param=1.0 quad_order=8 #0: "
            f"spectral.eigenvalues[2] 3.8 -> {3.8 * (1 + 5e-13)!r}"]
    else:
        assert out.returncode == 1 and len(lines) == 2 and problem in lines[0], lines
        assert lines[1].endswith("1 problem(s)")


def test_compare_reports_unreadable(tmp_path):
    (tmp_path / "parent.json").write_text("{")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "parent.json"),
                          str(tmp_path / "missing.json")], capture_output=True, text=True)
    assert out.returncode == 2 and "cannot compare reports" in out.stderr


def test_compare_reports_lists_moved_records(tmp_path):
    """Records that moved within the rule get informational lines on stderr;
    the exit code and stdout stay those of the rule."""
    out = _compare(tmp_path, PARENT)
    assert out.returncode == 0 and out.stderr == ""
    change = _edit(0, lhs=2.5 * (1 + 5e-13))
    change["records"][2].update(lhs=0.9, rhs=0.9, rel_err=2e-16)
    out = _compare(tmp_path, change)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["3 -> 3 records, 0 problem(s)"]
    moved = out.stderr.splitlines()
    assert len(moved) == 2 and all(line.startswith("moved: ") for line in moved)
    assert "green_identity" in moved[0] and "lhs 2.5 -> " in moved[0] and "rhs" not in moved[0]
    assert "variance_identity" in moved[1] and "rel_err 3e-16 -> 2e-16" in moved[1]
