"""Self-test of the benchmark harness on a tiny generated config.

    python3 perfbench/selftest.py        (from the checkout root; ~15 s)

Runs the harness once untraced and once traced on a one-dimensional
config whose intertwining tolerance is set below roundoff, so at least one
record fails on purpose.  Asserts that every metric BENCHMARK.json names is
emitted with its unit (and no other), that every per-child timing is
printed with its unit, that the failing records are counted in
failed_frac, and that traced and untraced reports hash alike.
"""

import contextlib
import io
import json
import os
import sys

import run

TINY = {
    "mode": "run",
    "config": lambda seed: {
        "domain": {"kind": "interval", "parameters": [0.0, 1.0]},
        "potential": "zero", "degrees": [0], "realizations": ["normal", "tangential"],
        "checks": ["eigen_spectrum", "intertwining"], "mesh": {"target_h": 0.25},
        "eigen_count": 2, "tolerances": {"intertwining_rel": 1e-30}, "seed": seed},
}


def harness(trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = run.main(["--workload", "selftest", "--seed", "7", "--seconds", "0",
                           "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    return status, lines, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    run.WORKLOADS = {"selftest": TINY}

    status, lines, res = harness(0)
    assert status == 0 and res["correct"], lines
    expected = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected, res["metrics"]
    text = "\n".join(lines)
    printed = {**expected, **run.CHILD_TIMINGS, "setup_wall_s": "s", "failed_frac": "ratio"}
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines), f"{name} [{unit}] not printed:\n{text}"
    assert all(isinstance(v["value"], float) and v["value"] > 0
               for v in res["metrics"].values()), res["metrics"]

    # the intertwining records fail the 1e-30 tolerance, eigen_spectrum passes
    records = res["attempted"]
    assert 0 < res["failed"] < records, res
    frac = res["failed"] / records
    assert any(line.split()[:4] == ["failed_frac", f"{frac:.4g}", "ratio",
                                    f"({res['failed']}"] for line in lines), text

    status, lines, traced = harness(1)
    assert status == 0 and traced["correct"], lines
    expected = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected, \
        set(traced["metrics"]) ^ set(expected)
    assert traced["metrics"]["report.records"]["value"] == records
    assert traced["metrics"]["checks.intertwining.s"]["value"] > 0
    digests = {line.split()[-1] for line in lines + text.splitlines()
               if line.split()[:1] == ["digest"]}
    assert len(digests) == 1, digests
    print("selftest passed")


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "hodgecheck", "__init__.py")):
        sys.exit("run from the root of a hodgecheck checkout")
    main()
