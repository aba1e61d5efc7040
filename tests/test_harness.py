"""The benchmark tracer and the package namespace name only what exists.

perfbench/tracer.py wraps hodgecheck functions and methods by name, so a
renamed or deleted target would otherwise surface only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import hodgecheck
from hodgecheck import DomainSpec, OperatorChain, Potential, generate_mesh

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# methods Tracer._install_counters patches besides the SPANS
COUNTED = [("operators", "OperatorChain.mass_factor"),
           ("operators", "OperatorChain.mass_solve"),
           ("operators", "AssembledOperator.stiff_matvec")]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, attr):
    obj = importlib.import_module(f"hodgecheck.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve():
    spans = _load_tracer().SPANS
    assert spans
    for modname, attr, *_ in spans + COUNTED:
        assert callable(_resolve(modname, attr)), (modname, attr)
    # the tracer also spans every check runner and reads each chain's factor cache
    assert _resolve("report", "RUNNERS")
    cplx = generate_mesh(DomainSpec.interval(0, 1), 0.5)
    assert isinstance(OperatorChain(cplx, Potential.zero(1))._factor, dict)


def test_package_all_resolves():
    for name in hodgecheck.__all__:
        assert hasattr(hodgecheck, name), name
