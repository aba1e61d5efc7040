"""hodgecheck benchmark: time to verdict, set-up, memory and failed share.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hodgecheck`` must exist).
NAME is one of WORKLOADS or ``all``.  Every measured call runs in a fresh
child process, as a CLI user would pay it, with BLAS/OpenMP pinned to one
thread.  Children are started while the next is expected to end within S
seconds (at least one).

--trace 0 reports the end-to-end metrics (set-up time, suite time as a
ratio to a reference computation timed in the same child, peak memory);
--trace 1 alternates untraced and traced children and reports the
per-layer metrics of the traced ones.
Every report is hashed; differing digests within a run (including traced
vs untraced) make the run incorrect and the exit status 1.

The last line of standard output is one JSON object with the keys
correct, attempted (records verified), failed (fail or error records) and
metrics.  Details, including every child's samples and digests, go to
perfbench/out/.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import layer_metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS = 5          # set-up samples per run; set-up-only children fill up
RUN_LIMIT_S = 170.0     # a run never outlasts this, children included

# Per-child timings, printed as median and sample count.  The host's speed
# drifts by tens of percent within minutes, so the metrics a run reports in
# its JSON line (END_TO_END) divide the suite times by reference_s, a fixed
# computation timed in the same child just before and after the suite, and
# give set-up time at reference speed: wall set-up * REF_S / reference_s.
REF_S = 0.75
CHILD_TIMINGS = {"suite_s": "s", "suite_cpu_s": "s", "reference_s": "s",
                 "suite_over_ref": "ratio", "suite_cpu_over_ref": "ratio",
                 "peak_rss_mb": "MB"}
END_TO_END = {"setup_s": "s", "suite_over_ref": "ratio", "suite_cpu_over_ref": "ratio",
              "peak_rss_mb": "MB"}


def _shipped(path, seed) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    cfg["seed"] = seed
    return cfg


# Why each workload exists, and what it should and should not move: NOTES.md.
WORKLOADS = {
    "disk_suite": {
        "mode": "run",
        "config": lambda seed: _shipped("examples_config/disk_suite.json", seed),
    },
    "interval_converge": {
        "mode": "converge",
        "config": lambda seed: _shipped("examples_config/interval_spectrum.json", seed),
    },
    "disk_semiclassical": {
        "mode": "run",
        "config": lambda seed: {
            "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
            "potential": "quadratic(1.0)", "degrees": [0, 1],
            "realizations": ["normal", "tangential"], "N": ["inf"],
            "checks": ["eigen_spectrum", "semiclassical_sweep", "intertwining"],
            "mesh": {"target_h": 0.05, "refinements": 0},
            "h_list": [1.0, 0.5, 0.25, 0.125], "eigen_count": 4, "seed": seed},
    },
}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class ChildError(RuntimeError):
    pass


def spawn(config_path, mode, trace, out_path, deadline) -> dict:
    """Run one child; return its measurements with setup_wall_s filled in."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), config_path, mode,
           "1" if trace else "0", out_path]
    launched = _now()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise ChildError(f"child ({mode}, trace={trace}) passed the run's time limit")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildError(f"child ({mode}, trace={trace}) exited {proc.returncode}: {tail}")
    with open(out_path) as f:
        out = json.load(f)
    out["setup_wall_s"] = out.pop("ready") - launched
    out["traced"] = trace
    if mode != "setup":
        out["suite_over_ref"] = out["suite_s"] / out["reference_s"]
        out["suite_cpu_over_ref"] = out["suite_cpu_s"] / out["reference_s"]
    return out


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check_report(path, digest) -> tuple[list, dict]:
    """Problems found in one report file, and its status counts."""
    with open(path) as f:
        text = f.read()
    problems = []
    if hashlib.sha256(text.encode()).hexdigest() != digest:
        problems.append(f"{path}: digest does not match the child's")
    report = json.loads(text)
    records = report["records"]
    counts = {"pass": 0, "fail": 0, "not_applicable": 0}
    for i, r in enumerate(records):
        if r["status"] not in counts:
            problems.append(f"record {i}: unknown status {r['status']!r}")
            continue
        counts[r["status"]] += 1
        if r["error"] is None and r["kind"] == "identity":
            # an identity verdict is rel_err <= tolerance; re-grade it
            rel = r["rel_err"]
            holds = isinstance(rel, float) and rel <= r["tolerance"]
            if holds != (r["status"] == "pass"):
                problems.append(f"record {i} ({r['check_id']}): status {r['status']} "
                                f"but rel_err {rel} vs tolerance {r['tolerance']}")
    if counts != report["summary"]:
        problems.append(f"summary {report['summary']} != record statuses {counts}")
    if not records:
        problems.append("report has no records")
    return problems, counts


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def describe(values, unit) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    text = f"median {statistics.median(xs):.4g} {unit}"
    if n >= 11:
        rank = n - 10                      # 1-based; ten samples lie above it
        text += f", p{math.floor(100 * rank / n)} {xs[rank - 1]:.4g} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return f"{text} (n={n})"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def measure(name, spec, seed, seconds, trace, outdir) -> dict:
    """Run one workload for ``seconds``; return metrics and the evidence."""
    start = _now()
    deadline = start + RUN_LIMIT_S
    config_path = os.path.join(outdir, f"{name}-seed{seed}.config.json")
    with open(config_path, "w") as f:
        json.dump(spec["config"](seed), f, indent=1)
    base = os.path.join(outdir, f"{name}-seed{seed}-trace{int(trace)}")
    problems = []
    children, setups, durations = [], [], []
    order = [False, True] if trace else [False]
    setups_wanted = 0 if trace else MIN_SETUPS
    try:
        # unmeasured: byte-compiles the package and warms the file cache
        spawn(config_path, "setup", False, base + ".warm.json", deadline)
        while True:
            # start another child only if it and the set-up-only children
            # still owed are expected to end within the run's seconds
            owed = max(0, setups_wanted - len(setups) - 1) * max(setups, default=0.0)
            expected = max(durations[-len(order):], default=0.0) + owed
            if len(children) >= len(order) and _now() - start + expected > seconds:
                break
            traced = order[len(children) % len(order)]
            launched = _now()
            out = spawn(config_path, spec["mode"], traced,
                        f"{base}.{len(children)}.json", deadline)
            durations.append(_now() - launched)
            children.append(out)
            if not traced:
                setups.append(out["setup_wall_s"])
        while len(setups) < setups_wanted:
            setups.append(spawn(config_path, "setup", False, base + ".setup.json",
                                deadline)["setup_wall_s"])
    except ChildError as e:
        problems.append(str(e))

    counts = {"pass": 0, "fail": 0, "not_applicable": 0}
    for i, c in enumerate(children):
        found, c["statuses"] = check_report(f"{base}.{i}.json.report.json", c["digest"])
        problems += found
        for k in counts:
            counts[k] += c["statuses"][k]
    digests = sorted({c["digest"] for c in children})
    if len(digests) > 1:
        problems.append(f"report digests differ between children: {digests}")

    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    metrics = {}
    if plain and not trace:
        reference_s = statistics.median(c["reference_s"] for c in plain)
        metrics["setup_s"] = statistics.median(setups) * REF_S / reference_s
        for key in [k for k in END_TO_END if k != "setup_s"]:
            metrics[key] = statistics.median(c[key] for c in plain)
    if plain and traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(c["layers"][key] for c in traced)
        untraced_s = statistics.median(c["suite_s"] for c in plain)
        metrics["trace.overhead_frac"] = (
            statistics.median(c["suite_s"] for c in traced) - untraced_s) / untraced_s
    attempted = sum(counts.values())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "correct": not problems and bool(children), "problems": problems,
        "attempted": attempted, "failed": counts["fail"], "counts": counts,
        "records_per_child": attempted // len(children) if children else 0,
        "digest": digests[0] if len(digests) == 1 else None,
        "metrics": metrics, "setup_samples": setups,
        "children": [{k: v for k, v in c.items() if k != "spans"} for c in children],
        "spans_first_traced": traced[0]["spans"] if traced else None,
    }


def print_summary(res, units):
    plain = [c for c in res["children"] if not c["traced"]]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"children {len(res['children'])}  "
          f"threads {' '.join(f'{v}=1' for v in THREAD_VARS)}")
    if plain and not res["trace"]:
        print(f"  {'setup_wall_s':<18} {describe(res['setup_samples'], 's')}")
        print(f"  {'setup_s':<18} {res['metrics']['setup_s']:.4g} s at reference speed "
              f"(median setup_wall_s * {REF_S} s / median reference_s)")
        for key, unit in CHILD_TIMINGS.items():
            print(f"  {key:<18} {describe([c[key] for c in plain], unit)}")
    attempted, failed = res["attempted"], res["failed"]
    frac = failed / attempted if attempted else math.nan
    print(f"  {'failed_frac':<18} {frac:.4g} ratio ({failed} fail or error of "
          f"{attempted} records; {res['records_per_child']} records per child)")
    for key in sorted(res["metrics"]):
        if key not in END_TO_END:
            print(f"  {key:<44} {res['metrics'][key]:.6g} {units[key]}")
    print(f"  digest sha256:{res['digest']}")
    for p in res["problems"]:
        print(f"  INCORRECT: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "hodgecheck", "__init__.py")):
        print("error: run from the root of a hodgecheck checkout (src/hodgecheck "
              "not found)", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    units = dict(END_TO_END)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                      outdir)
        checks = [k[len("checks."):-len(".s")] for k in res["metrics"]
                  if k.startswith("checks.")]
        units.update(layer_metric_units(checks))
        res["environment"] = {
            "commit": git_commit(), "nproc": os.cpu_count(),
            "threads": {v: "1" for v in THREAD_VARS},
            **(res["children"][0]["environment"] if res["children"] else {})}
        with open(os.path.join(outdir, f"{name}-seed{args.seed}-trace{args.trace}"
                                        ".result.json"), "w") as f:
            json.dump(res, f, indent=1)
        print_summary(res, units)
        results.append(res)
    print(f"environment {json.dumps(results[0]['environment'], sort_keys=True)}")

    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
