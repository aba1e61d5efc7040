"""Config fuzzing: one key path of a valid config set to an arbitrary JSON value.

``load_config`` must either return or raise ``ConfigError`` naming a path
next to the mutated one: the path itself, something inside it, or its
enclosing object or list (an entry that now repeats another, a polygon kind
without vertices).  Any other exception, and any load slower than the
deadline, fails; a load that never returns is cut by an alarm, since
hypothesis judges the deadline only on examples that finish.
"""

import copy
import re
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecheck.config import ConfigError, load_config

DISK = {
    "domain": {"kind": "disk", "parameters": [1.0, 0.0, 0.0]},
    "potential": "quadratic(1.0)",
    "h_param": 1.0,
    "degrees": [0, 1],
    "realizations": ["normal", "tangential"],
    "N": ["inf", 4],
    "checks": ["eigen_spectrum", "gamma2"],
    "mesh": {"target_h": 0.3, "refinements": 1},
    "quad_order": 8,
    "tolerances": {"identity_rel": 1e-8},
    "seed": 3,
    "output": "report.json",
    "h_list": [1.0, 0.5],
    "eigen_count": 3,
    "n_samples": 5,
}
POLYGON = {
    "domain": {"kind": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
    "potential": {"terms": [[2, 0, 1.0], [1, 1, 0.5]]},
    "degrees": [0],
    "realizations": ["tangential"],
    "N": [-1],
}
BASES = {"disk": DISK, "polygon": POLYGON}


def _paths(node, prefix="", keys=()):
    """(path, key chain, value) of every value in a config, containers included."""
    if isinstance(node, dict):
        items = [(f"{prefix}.{k}" if prefix else k, k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{prefix}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return
    for path, key, val in items:
        yield path, keys + (key,), val
        yield from _paths(val, path, keys + (key,))


def _mutated(base, keys, value):
    cfg = copy.deepcopy(base)
    node = cfg
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = copy.deepcopy(value)
    return cfg


def _near(a, b):
    """a and b name the same value, or one lies inside the other."""
    return a == b or any(a.startswith(b + sep) or b.startswith(a + sep) for sep in ".[")


def _anchor(path):
    """The enclosing object or list of a nested path; a top-level key itself."""
    parent = re.sub(r"(\.[^.\[\]]+|\[\d+\])$", "", path)
    return parent if parent != path and parent else path


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"load_config still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=8)


@pytest.mark.parametrize("name", sorted(BASES))
@settings(derandomize=True, max_examples=150, deadline=2000, database=None)
@given(data=st.data())
def test_load_config_survives_one_mutation(name, data):
    base = BASES[name]
    paths = list(_paths(base))
    path, keys, _ = data.draw(st.sampled_from(paths), label="path")
    # values already in the config reach past the type checks into the
    # repeat, range and cross-key ones
    value = data.draw(JSON | st.sampled_from([v for *_, v in paths]), label="value")
    try:
        with _time_limit(5):
            load_config(_mutated(base, keys, value))
    except ConfigError as e:
        assert _near(e.path, _anchor(path)), (path, e.path, str(e))
