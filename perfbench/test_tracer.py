"""Self-test of the span tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_tracer.py``
or ``python3 perfbench/test_tracer.py``. It checks that wrapping leaves every
workload's outputs bit-identical, that removing the wrappers restores the
original functions, and that span self times plus the op's unattributed
time add up to the op span.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REP = 7


def arrays(name: str, out) -> list[np.ndarray]:
    """Every numeric output of one op, flattened to a list of arrays."""
    if name == "product3d":
        est, mise = out
        return [est, np.array(mise)]
    if name == "gp2d":
        model, resid, test_mise, fp = out
        return [*model.coefs, model.subject_coefs, resid, np.array(test_mise), fp.s, fp.nu]
    return [np.array([r.criterion for r in out.records]), np.array([r.chosen for r in out.records])]


def current_functions() -> list:
    return [tracing.lookup(tracing.resolve(path), attr) for path, attr, _ in tracing.WRAPPED]


def traced_op(wl, tracer):
    inp = wl.inputs(REP)
    lo = len(tracer.spans)
    op_idx = tracer.begin("op")
    out = wl.op(inp)
    tracer.end(op_idx)
    return out, tracing.summarize(tracer, op_idx, len(tracer.spans), lo)


def test_wrapping_is_transparent_and_accounted():
    originals = current_functions()
    for name, wl in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the lasso ADMM cap
            plain = arrays(name, wl.op(wl.inputs(REP)))
            tracer.install()
            try:
                out, summary = traced_op(wl, tracer)
            finally:
                tracer.uninstall()
        for a, b in zip(plain, arrays(name, out)):
            assert np.array_equal(a, b), f"{name}: traced output differs"
        assert summary["calls"]["pipeline.fit_mpb"] >= 1
        assert summary["calls"]["solver.fit"] >= 1
        gap = tracing.accounting_gap(summary)
        assert abs(gap) <= 1e-9 * summary["op_s"], f"{name}: accounting gap {gap:.3e} s"
        assert min(summary["self"].values()) >= -1e-12
        assert summary["self"]["op"] >= 0.0  # unattributed time
    assert all(x is y for x, y in zip(originals, current_functions()))


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    lo = len(tracer.spans)
    op = tracer.begin("op")
    outer = tracer.begin("solver.fit")
    inner = tracer.begin("tensors.mttkrp")
    tracer.end(inner)
    tracer.end(outer)
    tracer.end(op)
    spans = tracer.spans
    summary = tracing.summarize(tracer, op, len(spans), lo)
    d = {n: e - s for n, s, e, _ in spans}
    assert summary["self"]["solver.fit"] == d["solver.fit"] - d["tensors.mttkrp"]
    assert summary["self"]["tensors.mttkrp"] == d["tensors.mttkrp"]
    assert summary["under"] == {"op>solver.fit": 1, "solver.fit>tensors.mttkrp": 1}
    assert abs(tracing.accounting_gap(summary)) <= 1e-12


if __name__ == "__main__":
    test_self_time_subtracts_children()
    test_wrapping_is_transparent_and_accounted()
    print("tracer self-test passed")
