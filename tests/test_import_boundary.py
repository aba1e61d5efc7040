"""sympy loads only for the analytic checks; each case runs in a fresh
interpreter, since an import cannot be undone in this one."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from hodgecheck.presets import CHECK_IDS, SYMBOLIC_CHECKS

ROOT = Path(__file__).resolve().parents[1]
# the disk_semiclassical workload of perfbench/run.py at seed 1234
DISK_SEMICLASSICAL = {
    "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
    "potential": "quadratic(1.0)", "degrees": [0, 1],
    "realizations": ["normal", "tangential"], "N": ["inf"],
    "checks": ["eigen_spectrum", "semiclassical_sweep", "intertwining"],
    "mesh": {"target_h": 0.05, "refinements": 0},
    "h_list": [1.0, 0.5, 0.25, 0.125], "eigen_count": 4, "seed": 1234,
}
SMALL_DISK = {
    "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
    "potential": "quadratic(1.0)", "degrees": [0, 1],
    "realizations": ["normal", "tangential"], "N": ["inf"],
    "mesh": {"target_h": 0.4, "refinements": 0}, "h_list": [1.0, 0.5],
    "eigen_count": 3, "n_samples": 3, "seed": 5,
}


def _child(body: str):
    """The JSON the code body prints last, run in a fresh interpreter
    with hodgecheck from src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    code = "import json, sys\n" + textwrap.dedent(body)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_numeric_runs_never_load_sympy():
    """Importing the package, converging interval_spectrum and running
    annulus_kernels, torus_kernels and the disk_semiclassical config load
    no sympy, and every run passes."""
    seen = _child(f"""
        import hodgecheck
        seen = {{"import": "sympy" in sys.modules}}
        from hodgecheck import convergence_study, load_config, run_config
        for name, entry in (("interval_spectrum", convergence_study),
                            ("annulus_kernels", run_config), ("torus_kernels", run_config),
                            ("disk_semiclassical", run_config)):
            raw = ({DISK_SEMICLASSICAL!r} if name == "disk_semiclassical"
                   else f"examples_config/{{name}}.json")
            report = entry(load_config(raw))
            seen[name] = ("sympy" in sys.modules, report.summary["fail"])
        print(json.dumps(seen))
    """)
    assert seen == {"import": False, "interval_spectrum": [False, 0],
                    "annulus_kernels": [False, 0], "torus_kernels": [False, 0],
                    "disk_semiclassical": [False, 0]}


def test_disk_suite_loads_sympy_in_set_up():
    assert _child("""
        from hodgecheck import load_config
        load_config("examples_config/disk_suite.json")
        print(json.dumps("sympy" in sys.modules))
    """) is True


def test_a_check_needs_sympy_iff_it_is_symbolic():
    """With sympy made unimportable, each check on a small disk runs
    cleanly if it is outside SYMBOLIC_CHECKS, and fails on the import in
    every case if it is inside; the two sets cover CHECK_IDS."""
    assert SYMBOLIC_CHECKS < CHECK_IDS.keys()
    errors = _child(f"""
        import dataclasses
        sys.modules["sympy"] = None          # import sympy now raises ImportError
        from hodgecheck import load_config, run_config
        cfg = load_config({SMALL_DISK!r})
        errors = {{}}
        for cid in {sorted(CHECK_IDS)!r}:
            records = run_config(dataclasses.replace(cfg, checks=[cid])).records
            errors[cid] = sorted({{r.error is not None and "sympy" in r.error
                                  for r in records}})
        print(json.dumps(errors))
    """)
    assert errors == {cid: [cid in SYMBOLIC_CHECKS] for cid in CHECK_IDS}
