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
