"""Run-scoped cache: each mesh, spectrum, mass, potential derivation,
lambdified expression and gamma2 polynomial set once per run.

``run_config`` and ``convergence_study`` open a scope; inside it ``cached``
keeps the value computed for a key until the scope closes, when the store
is dropped.  Outside a scope ``cached`` just computes, so a direct call
behaves as if there were no cache.

Keys are content, never names: a mesh is keyed by (domain, mesh_h, level),
a spectrum by its chain's content: the identity of its complex, potential
key (Potential.key) and n, realization and quadrature order, with the degree
and seed; a full weighted mass by the identity of its complex, degree,
potential key, n and quadrature order.  A complex is held in the
value keyed by its id, so the id is not reused while the scope is open.  A
table potential's derivatives, a symbolic gradient and a lambdified
function are keyed by (expr, n), the gamma2 polynomials by (bump expr, V expr, n, centre).  The
number of eigenpairs is no part of a spectrum's key: its value is a dict
holding the run's one spectrum of that problem, which
spectral.lowest_eigenpairs serves to requests for no more pairs and
replaces for more, whichever check asks; so a p = 1 spectrum, built on
the p = 0 and p = 2 spectra of its chain, reads the p = 0 spectrum a sweep
rung already solved.  Only meshes,
spectra, interior curvature minima, functions, full masses (read-only,
before a realization restricts them), potential derivations, gradients and
gamma2 square-free decompositions are cached: no chain, operator, factorization
or dense pencil is held beyond the check that built it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["scope", "cached"]

_store: ContextVar[dict | None] = ContextVar("hodgecheck_run_cache", default=None)


@contextmanager
def scope():
    """A fresh store for the duration of the block, dropped when it exits."""
    token = _store.set({})
    try:
        yield
    finally:
        _store.reset(token)


def cached(key, compute):
    """The value stored under key in the open scope, computed on first use;
    compute() itself outside a scope."""
    store = _store.get()
    if store is None:
        return compute()
    if key not in store:
        store[key] = compute()
    return store[key]
