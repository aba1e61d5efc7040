"""Per-layer tracing of hodgecheck from outside the package.

``Tracer.install()`` replaces the public functions and methods of each
hodgecheck module with wrappers that record spans (name, start, end,
parent) or plain counts.  Every module attribute that refers to a wrapped
function is rebound, so ``from .meshing import refine`` in another module
is traced too.  The package itself is not modified on disk.

Hot per-iteration calls (``mass_solve``, ``stiff_matvec`` and the
``mass_factor`` cache lookups) are only counted; a ``mass_factor`` call
that misses the chain's factor cache runs ``splu`` and is spanned.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SOLVERS = ("dense-eigh", "eigsh-shift-invert", "eigsh-mixed")

# (module, attribute path, span name, metrics reported for it); "s" is the
# span's total duration, "self_s" excludes time covered by child spans.
SPANS = [
    ("meshing", "generate_mesh", "meshing.generate_mesh", ("calls", "self_s")),
    ("meshing", "refine", "meshing.refine", ("calls", "self_s")),
    ("meshing", "incidence_matrix", "meshing.incidence_matrix", ("calls", "self_s")),
    ("meshing", "boundary_geometry", "meshing.boundary_geometry", ("calls", "self_s")),
    ("whitney", "assemble_mass", "whitney.assemble_mass", ("calls", "self_s")),
    ("whitney", "interpolate", "whitney.interpolate", ("calls", "self_s")),
    ("operators", "OperatorChain.operator", "operators.operator", ("calls", "self_s")),
    ("operators", "AssembledOperator.stiffness_dense", "operators.stiffness_dense",
     ("calls", "self_s")),
    ("spectral", "lowest_eigenpairs", "spectral.lowest_eigenpairs", ("calls", "self_s")),
    ("spectral", "kernel_projector", "spectral.kernel_projector", ("calls", "s")),
    ("spectral", "solve_on_range", "spectral.solve_on_range", ("calls", "self_s")),
    ("spectral", "hodge_decompose", "spectral.hodge_decompose", ("calls", "s")),
    ("spectral", "check_intertwining", "spectral.check_intertwining", ("calls", "s")),
    ("analytic_forms", "AnalyticForm.__init__", "analytic_forms.AnalyticForm",
     ("calls", "self_s")),
    ("potentials", "Potential.__init__", "potentials.Potential", ("calls", "self_s")),
    ("domains", "domain_quadrature", "domains.domain_quadrature", ("calls", "self_s")),
    ("domains", "boundary_quadrature", "domains.boundary_quadrature", ("calls", "self_s")),
    ("curvature", "EndomorphismField.evaluate", "curvature.EndomorphismField.evaluate",
     ("calls", "self_s")),
    ("config", "load_config", "config.load_config", ("s",)),
]

# Metric names (without checks.*, which depend on report.RUNNERS) and units.
COUNTS = ("meshing.triangles", "whitney.assemble_mass.dofs",
          "operators.mass_factor.calls", "operators.mass_factor.distinct",
          "operators.mass_solve.calls", "operators.stiff_matvec.calls",
          "spectral.solve_on_range.matvecs")


def layer_metric_units(check_ids) -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for _, _, name, fields in SPANS:
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["operators.mass_factor.self_s"] = "s"
    for solver in SOLVERS:
        units[f"spectral.{solver}.calls"] = "count"
        units[f"spectral.{solver}.s"] = "s"
        units[f"spectral.{solver}.max_dim"] = "count"
    for cid in check_ids:
        units[f"checks.{cid}.s"] = "s"
    units["report.records"] = "count"
    units["report.to_json.s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.solver = {s: {"calls": 0, "s": 0.0, "max_dim": 0} for s in SOLVERS}
        self._open = []          # indices into self.spans
        self._open_names = Counter()

    # -- recording -----------------------------------------------------------
    def _enter(self, name) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        self._open_names[name] += 1
        return self._open[-1]

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()
        self._open_names[self.spans[idx][0]] -= 1

    def spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, out, self.spans[idx])
            return out
        return wrapper

    # -- installation --------------------------------------------------------
    def install(self):
        import hodgecheck.operators as operators
        import hodgecheck.report as report

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "hodgecheck" or name.startswith("hodgecheck.")}
        after = {"meshing.generate_mesh": self._after_mesh,
                 "meshing.refine": self._after_mesh,
                 "whitney.assemble_mass": self._after_mass,
                 "spectral.lowest_eigenpairs": self._after_eigs}
        for modname, attr, name, _ in SPANS:
            owner = mods[f"hodgecheck.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.spanned(name, getattr(cls, meth), after.get(name)))
            else:
                orig = getattr(owner, attr)
                wrapped = self.spanned(name, orig, after.get(name))
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        self._install_counters(operators)
        for cid, fn in list(report.RUNNERS.items()):
            report.RUNNERS[cid] = self.spanned(f"checks.{cid}", fn)

    def _install_counters(self, operators):
        chain_cls, op_cls = operators.OperatorChain, operators.AssembledOperator
        counts = self.counts
        factor, solve, matvec = chain_cls.mass_factor, chain_cls.mass_solve, op_cls.stiff_matvec
        factorize = self.spanned("operators.mass_factor", factor)

        @functools.wraps(factor)
        def mass_factor(chain, p):
            counts["operators.mass_factor.calls"] += 1
            if p in chain._factor:
                return factor(chain, p)
            counts["operators.mass_factor.distinct"] += 1
            return factorize(chain, p)

        @functools.wraps(solve)
        def mass_solve(chain, p, b):
            counts["operators.mass_solve.calls"] += 1
            return solve(chain, p, b)

        @functools.wraps(matvec)
        def stiff_matvec(op, x):
            counts["operators.stiff_matvec.calls"] += 1
            if self._open_names["spectral.solve_on_range"]:
                counts["spectral.solve_on_range.matvecs"] += 1
            return matvec(op, x)

        chain_cls.mass_factor, chain_cls.mass_solve = mass_factor, mass_solve
        op_cls.stiff_matvec = stiff_matvec

    # -- per-call extras -----------------------------------------------------
    def _after_mesh(self, args, cplx, span):
        if cplx.dim == 2:
            self.counts["meshing.triangles"] += cplx.num(2)

    def _after_mass(self, args, M, span):
        self.counts["whitney.assemble_mass.dofs"] += M.shape[0]

    def _after_eigs(self, args, res, span):
        stats = self.solver[res.solver]
        stats["calls"] += 1
        stats["s"] += span[2] - span[1]
        stats["max_dim"] = max(stats["max_dim"], int(args[0].dim))

    # -- summary -------------------------------------------------------------
    def totals(self) -> dict:
        """Calls, total and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - covered
        return out

    def metrics(self, check_ids) -> dict:
        """Per-layer values named as in layer_metric_units (overhead excluded)."""
        totals = self.totals()
        never = {"calls": 0, "s": 0.0, "self_s": 0.0}
        values = {}
        for _, _, name, fields in SPANS:
            for f in fields:
                values[f"{name}.{f}"] = totals.get(name, never)[f]
        for key in COUNTS:
            values[key] = self.counts[key]
        values["operators.mass_factor.self_s"] = totals.get(
            "operators.mass_factor", never)["self_s"]
        for solver, stats in self.solver.items():
            for f, v in stats.items():
                values[f"spectral.{solver}.{f}"] = v
        for cid in check_ids:
            values[f"checks.{cid}.s"] = totals.get(f"checks.{cid}", never)["s"]
        return values
