"""One measured hodgecheck call in a fresh process.

    python3 perfbench/child.py CONFIG {run,converge,setup} TRACE OUT

Imports hodgecheck from ``src`` of the current directory, loads CONFIG and
records the monotonic clock (the parent subtracts its launch time to get
setup_wall_s).  Unless the mode is ``setup`` it then times one
``run_config`` or ``convergence_study`` call between two runs of
``reference_work`` (their summed time is reference_s, the machine-speed
yardstick), writes the report to OUT + ".report.json" and the measurements
to OUT.  TRACE=1 installs the tracer before loading the
config; the parent pins BLAS/OpenMP threads in the environment before this
process starts, so numpy loads with that setting.
"""

import hashlib
import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(config_path, mode, trace, out_path):
    import hodgecheck

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(hodgecheck.__file__).startswith(src + os.sep):
        raise SystemExit(f"hodgecheck imported from {hodgecheck.__file__}, not {src}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = hodgecheck.load_config(config_path)
    out = {"ready": _now()}
    if mode != "setup":
        entry = hodgecheck.run_config if mode == "run" else hodgecheck.convergence_study
        ref_before = reference_work()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        report = entry(cfg)
        out["suite_s"] = time.perf_counter() - wall0
        out["suite_cpu_s"] = time.process_time() - cpu0
        out["reference_s"] = ref_before + reference_work()
        wall0 = time.perf_counter()
        text = report.to_json()
        to_json_s = time.perf_counter() - wall0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["digest"] = hashlib.sha256(text.encode()).hexdigest()
        with open(out_path + ".report.json", "w") as f:
            f.write(text)
        if tracer is not None:
            from hodgecheck.report import RUNNERS

            layers = tracer.metrics(list(RUNNERS))
            layers["report.records"] = len(report.records)
            layers["report.to_json.s"] = to_json_s
            out["layers"] = layers
            out["spans"] = tracer.spans
        out["environment"] = _environment()
    with open(out_path, "w") as f:
        json.dump(out, f)


def reference_work() -> float:
    """Seconds for a fixed mix of interpreter, small- and large-array numpy,
    dense LAPACK and sparse LU work (about 0.3 s on a 2 GHz core).

    It allocates a few MB only, below what any workload's suite adds to the
    imported process, so it leaves peak_rss_mb unchanged."""
    import numpy as np
    import scipy.linalg as la
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((160, 160))
    dense = dense + dense.T
    n = 60
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    laplacian = (sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T)).tocsc()
    small = np.linspace(0.0, 1.0, 500)
    large = np.linspace(0.0, 1.0, 1 << 18)        # 2 MB, beyond the L2 cache
    buf = np.empty_like(large)
    for _ in range(6):
        table = {}
        for i in range(30_000):
            table[(i % 97, i % 13)] = table.get((i % 89, i % 7), 0) + i
        la.eigh(dense)
        for _ in range(300):
            np.sin(small) * np.exp(-small) @ small
        for _ in range(20):
            np.multiply(large, large, out=buf)
            buf += 1.0
            np.sqrt(buf, out=buf)
            buf *= large
            float(buf.sum())
        spla.splu(laplacian).solve(np.ones(n * n))
    return time.perf_counter() - start


def _environment() -> dict:
    import numpy as np
    import scipy
    import sympy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "configuration": blas.get("openblas configuration")}}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4])
