"""Span tracer for the per-layer run.

The tracer replaces functions of the ``mpbasis`` modules, from outside the
package, with wrappers that record one span per call: name, start, end and
the index of the enclosing span. Spans and counts stay in memory; the worker
writes them out when the run ends. Only the traced worker process installs
the wrappers, so nothing here runs in the process that gives the end-to-end
numbers.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

#: (owner path, attribute, span name). Each name is wrapped where its caller
#: looks it up: modules that did ``from .tensors import mttkrp`` hold their own
#: reference, so those references are wrapped one by one.
WRAPPED = [
    ("mpbasis.solver", "mttkrp", "tensors.mttkrp"),
    ("mpbasis.solver", "gram_of_khatri_rao", "tensors.gram_of_khatri_rao"),
    ("mpbasis.solver", "cp_to_tensor", "tensors.cp_to_tensor"),
    ("mpbasis.model", "mttkrp", "tensors.mttkrp"),
    ("mpbasis.model", "gram_of_khatri_rao", "tensors.gram_of_khatri_rao"),
    ("mpbasis.basis.BSplineBasis", "evaluate", "basis.evaluate"),
    ("mpbasis.basis.FourierBasis", "evaluate", "basis.evaluate"),
    ("mpbasis.basis", "penalty_matrix", "basis.penalty_matrix"),
    ("mpbasis.basis", "gram_matrix", "basis.gram_matrix"),
    ("mpbasis.basis", "cross_matrix", "basis.cross_matrix"),
    ("mpbasis.reduction", "factorize", "reduction.factorize"),
    ("mpbasis.reduction", "penalty_transform", "reduction.penalty_transform"),
    ("mpbasis.reduction", "compress", "reduction.compress"),
    ("mpbasis.reduction", "back_transform", "reduction.back_transform"),
    ("mpbasis.solver", "fit", "solver.fit"),
    ("mpbasis.solver", "update_factor", "solver.update_factor"),
    ("mpbasis.solver", "sylvester_solve", "solver.sylvester_solve"),
    ("mpbasis.solver", "update_b_ridge", "solver.update_b_ridge"),
    ("mpbasis.solver", "update_b_admm", "solver.update_b_admm"),
    ("mpbasis.solver", "objective", "solver.objective"),
    ("mpbasis.model.MPBModel", "project", "model.project"),
    ("mpbasis.model.MPBModel", "evaluate_subjects", "model.evaluate_subjects"),
    ("mpbasis.model.MPBModel", "gram_zeta", "model.gram_zeta"),
    ("mpbasis.model.MPBModel", "laplacian_penalty_zeta", "model.laplacian_penalty_zeta"),
    ("mpbasis.fpca", "run_fpca", "fpca.run_fpca"),
    ("mpbasis.fpca", "solve_fpca", "fpca.solve_fpca"),
    ("mpbasis.selection", "cv_lambda_grid", "selection.cv_lambda_grid"),
    ("mpbasis.selection", "fit_mpb", "pipeline.fit_mpb"),
    ("mpbasis.pipeline", "fit_mpb", "pipeline.fit_mpb"),
    ("mpbasis.sim", "generate_product_sample", "sim.generate"),
    ("mpbasis.sim", "generate_gp2d_sample", "sim.generate"),
]


def _count_fit(args, result):
    return {"sweeps": result.iters, "converged": int(result.converged), "fits": 1}


def _count_admm(args, result):
    # update_b_admm returns (b, z, a_star, converged, n_iters)
    return {"admm_iters": result[4], "admm_converged": int(result[3]), "admm_calls": 1}


def _count_compress(args, result):
    # computed from array sizes: the grid tensor read plus the tensor written
    return {"compress_bytes": np.asarray(args[0]).nbytes + result.nbytes}


COUNTERS = {
    "solver.fit": _count_fit,
    "solver.update_b_admm": _count_admm,
    "reduction.compress": _count_compress,
}


def resolve(path: str):
    """The module or class a dotted path names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def lookup(owner, attr: str):
    """The function stored under ``attr``: a class's own function, not a bound
    method, so that setting it back restores the class exactly."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus per-span counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, owner, attr: str, name: str) -> None:
        func = lookup(owner, attr)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.counts.append((idx, key, value))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, func))

    def install(self) -> None:
        for path, attr, name in WRAPPED:
            self.wrap(resolve(path), attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, func = self._patches.pop()
            setattr(owner, attr, func)


def summarize(tracer: Tracer, op_idx: int, hi: int, lo: int) -> dict:
    """Per-layer totals of one iteration.

    ``lo`` is the first span of the iteration (its input generation), ``op_idx``
    the root span of the timed op and ``hi`` one past the op's last span.
    Returns, for the spans inside the op: summed seconds, call counts and self
    seconds (a span minus its child spans) per span name, calls per
    ``"parent>child"`` name pair and summed counts; plus the op duration and
    the input-generation seconds before the op.
    """
    spans = tracer.spans
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    under: dict[str, int] = {}
    child = [0.0] * (hi - op_idx)
    for i in range(hi - 1, op_idx - 1, -1):
        name, start, end, parent = spans[i]
        d = end - start
        dur[name] = dur.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + d - child[i - op_idx]
        if parent >= op_idx:
            child[parent - op_idx] += d
            key = spans[parent][0] + ">" + name
            under[key] = under.get(key, 0) + 1
    counts: dict[str, float] = {}
    for idx, key, value in tracer.counts:
        if op_idx <= idx < hi:
            counts[key] = counts.get(key, 0) + value
    sim_s = sum(e - s for n, s, e, _ in spans[lo:op_idx] if n == "sim.generate")
    op = spans[op_idx]
    return {
        "dur": dur,
        "calls": calls,
        "self": self_s,
        "under": under,
        "counts": counts,
        "op_s": op[2] - op[1],
        "sim_s": sim_s,
    }


def accounting_gap(summary: dict) -> float:
    """Self times of every span in the op, the op's own unattributed self time
    included, minus the op span: zero up to rounding when the tree is sound."""
    return sum(summary["self"].values()) - summary["op_s"]


#: Span names reported as summed seconds per op, under ``<name>_s``.
TIMED = [
    "tensors.mttkrp",
    "tensors.gram_of_khatri_rao",
    "tensors.cp_to_tensor",
    "basis.evaluate",
    "basis.penalty_matrix",
    "basis.gram_matrix",
    "basis.cross_matrix",
    "reduction.factorize",
    "reduction.penalty_transform",
    "reduction.compress",
    "reduction.back_transform",
    "solver.fit",
    "solver.update_factor",
    "solver.sylvester_solve",
    "solver.update_b_ridge",
    "solver.update_b_admm",
    "solver.objective",
    "model.project",
    "model.evaluate_subjects",
    "model.gram_zeta",
    "model.laplacian_penalty_zeta",
    "fpca.run_fpca",
    "fpca.solve_fpca",
    "selection.cv_lambda_grid",
    "pipeline.fit_mpb",
]


def per_layer(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics, each averaged over the traced ops.

    Ratios and per-call or per-sweep figures are formed from totals over all
    ops; they read 0 where the layer never ran (ADMM on the ridge workloads).
    """
    n = len(summaries)

    def total(kind: str, key: str) -> float:
        return float(sum(s[kind].get(key, 0) for s in summaries))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{name}_s": total("dur", name) / n for name in TIMED}
    fits = total("counts", "fits")
    sweeps = total("counts", "sweeps")
    admm_calls = total("counts", "admm_calls")
    out.update(
        {
            "tensors.mttkrp_calls": total("calls", "tensors.mttkrp") / n,
            "basis.evaluate_calls": total("calls", "basis.evaluate") / n,
            "reduction.compress_bytes": total("counts", "compress_bytes") / n,
            "solver.self_s": total("self", "solver.fit") / n,
            "solver.sweeps": ratio(sweeps, fits),
            "solver.s_per_sweep": ratio(total("dur", "solver.fit"), sweeps),
            "solver.converged_ratio": ratio(total("counts", "converged"), fits),
            "solver.admm_iters_per_call": ratio(total("counts", "admm_iters"), admm_calls),
            "solver.admm_converged_ratio": ratio(total("counts", "admm_converged"), admm_calls),
            "solver.admm_cap_warnings": total("warnings", "admm_cap") / n,
            "solver.overparam_warnings": total("warnings", "overparam") / n,
            "selection.cells": total("under", "selection.cv_lambda_grid>pipeline.fit_mpb") / n,
            "selection.self_s": total("self", "selection.cv_lambda_grid") / n,
            "pipeline.self_s": total("self", "pipeline.fit_mpb") / n,
            "sim.generate_s": sum(s["sim_s"] for s in summaries) / n,
        }
    )
    return out
