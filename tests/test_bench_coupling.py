"""What the benchmark harness under ``perfbench/`` takes from the package.

The span tracer wraps functions by module and attribute name, its counters
index the tuple that ``update_b_admm`` returns, and the worker counts warnings
by their text. Renaming any of them breaks only the benchmark, so these
checks keep them in the fast suite. The tracer module is imported as it is,
and no workload runs.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpbasis import solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracer")


def current(tracing):
    return [tracing.lookup(tracing.resolve(path), attr) for path, attr, _ in tracing.WRAPPED]


def test_every_wrapped_name_resolves_and_is_restored(tracing):
    before = current(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = current(tracing)
    finally:
        tracer.uninstall()
    assert all(callable(f) for f in before)
    assert [w.__wrapped__ for w in wrapped] == before
    assert all(w is not f for w, f in zip(wrapped, before))
    assert all(a is b for a, b in zip(current(tracing), before))


def test_lasso_counter_reads_the_admm_result(tracing):
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 3))
    cfg = solver.SolverConfig(rank=3, lambda_coef=0.1, coef_penalty="lasso")
    rhs, b_old = rng.standard_normal((4, 3)), np.zeros((4, 3))
    result = solver.update_b_admm(w.T @ w, rhs, b_old, cfg, cfg.proximal_mu)
    counts = tracing.COUNTERS["solver.update_b_admm"]((), result)
    assert counts == {"admm_iters": result[4], "admm_converged": 1, "admm_calls": 1}
    assert isinstance(counts["admm_iters"], int)


def test_worker_warning_patterns_match_the_solver_warnings(monkeypatch):
    kinds = load("worker").WARNING_KINDS
    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, 2, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # rank 5 exceeds the compressed dimension 2 x 2
        overparam = solver.SolverConfig(rank=5, lambda_coef=1.0, max_outer_iters=1)
        solver.fit(g, [np.eye(2)] * 2, overparam)
        monkeypatch.setattr(solver, "_LASSO_MAX_STEPS", 1)
        w = rng.standard_normal((8, 3))
        cfg = solver.SolverConfig(rank=3, lambda_coef=0.1, coef_penalty="lasso")
        rhs, b_old = rng.standard_normal((4, 3)), np.zeros((4, 3))
        solver.update_b_admm(w.T @ w, rhs, b_old, cfg, cfg.proximal_mu)
    texts = [str(w.message) for w in caught]
    for kind, pattern in kinds.items():
        assert any(pattern in t for t in texts), kind
