"""One benchmark process. ``run.py`` starts it; it is not meant to be run by hand.

Modes:

* ``setup``: import, generate inputs, run one untimed warm-up op, generate
  the first op's inputs, then report the seconds since ``--t0`` and exit;
* ``measure``: the same set-up, then timed ops in a closed loop for
  ``--seconds``; reports per-op times (raw, and at quiet-host speed, see
  :class:`Calibration`), quality values, failures and peak RSS;
* ``traced``: as ``measure``, with the span tracer's wrappers installed
  before the warm-up; reports per-op span summaries instead of peak RSS and
  writes the spans under ``.bench_out/``.

``run.py`` sets the BLAS thread variables in this process's environment, so
they are in place before the import of numpy loads OpenBLAS. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve, eigh

ROOT = Path(__file__).resolve().parent.parent
WARNING_KINDS = {
    "admm_cap": "coefficient ADMM hit",
    "overparam": "exceeds the compressed dimension",
}


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py's --t0 is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Calibration:
    """A fixed numpy/scipy kernel whose time tracks the host's current speed.

    On a shared host the speed of a CPU swings by half within seconds as other
    tenants' load comes and goes, which moves raw op times far more than any
    change worth measuring. Each op is therefore timed between two runs of
    this kernel, and its time is divided by their mean; multiplied by
    ``REF_S``, the kernel's time on a quiet host, that gives the op's seconds
    at quiet-host speed. The kernel mixes what the ops do: small factor
    solves and contractions with Python-level overhead, plus one stream over
    8 MB. It uses no ``mpbasis`` code, so no change to the package moves it.
    """

    #: Kernel seconds on a quiet host: 2-vCPU Xeon KVM guest, one BLAS thread.
    REF_S = 0.018

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 20))
        self.chol = cho_factor(a @ a.T + 20 * np.eye(20))
        self.rhs = rng.standard_normal((20, 40))
        self.tensor = rng.standard_normal((15, 15, 15, 5))
        self.factors = [rng.standard_normal((n, 25)) for n in (15, 15, 5)]
        m = rng.standard_normal((25, 25))
        self.sym = m @ m.T
        self.stream = rng.standard_normal(1_000_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            for _ in range(10):
                z = cho_solve(self.chol, self.rhs)
                t = np.sign(z) * np.maximum(np.abs(z) - 0.1, 0.0)
                float(np.linalg.norm(t - z))
            np.einsum("abcn,bz,cz,nz->az", self.tensor, *self.factors, optimize=True)
            eigh(self.sym)
        float(np.sum(self.stream * self.stream))
        return time.perf_counter() - start


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mpbasis

    if Path(mpbasis.__file__).resolve().parent != (src / "mpbasis").resolve():
        raise SystemExit(f"mpbasis was imported from {mpbasis.__file__}, not from {src}")
    return mpbasis


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class FitLog:
    """Keeps (compressed tensor, final state) of every ``solver.fit`` call.

    Installed in every mode, so its constant per-fit cost (one list append)
    is the same in the timed and the traced runs.
    """

    def __init__(self, solver) -> None:
        self.fits: list = []
        fit = solver.fit

        def logged(g_hat, *args, **kwargs):
            state = fit(g_hat, *args, **kwargs)
            self.fits.append((g_hat, state))
            return state

        solver.fit = logged

    def objective_rel(self) -> float:
        return float(
            np.mean([st.objective_trace[-1] / np.sum(np.asarray(g) ** 2) for g, st in self.fits])
        )


def run_op(wl, inp, fitlog, tracer):
    """One op: returns (seconds, output or None, error text or None, warning counts)."""
    fitlog.fits.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        idx = tracer.begin("op") if tracer else None
        start = time.perf_counter()
        try:
            out, err = wl.op(inp), None
        except Exception:  # a failed op is counted and the loop goes on
            out, err = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(idx)
    counts = {k: 0 for k in WARNING_KINDS}
    counts["other"] = 0
    for w in caught:
        kind = next((k for k, pat in WARNING_KINDS.items() if pat in str(w.message)), "other")
        counts[kind] += 1
    return seconds, out, err, counts


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "traced"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    mpbasis = import_package()
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    fitlog = FitLog(mpbasis.solver)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()

    base = args.seed * 100_000
    _, _, err, _ = run_op(wl, wl.inputs(base), fitlog, tracer)
    if err:
        print(f"warm-up op failed:\n{err}", file=sys.stderr)
    lo = 0
    if tracer:
        tracer.clear()
    inp = wl.inputs(base + 1)
    setup_s = now() - args.t0
    calib = Calibration()
    calib()  # the first call runs cold and is discarded
    speed = Calibration.REF_S / calib()
    result = {"mode": args.mode, "setup_s": setup_s, "setup_norm_s": setup_s * speed}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    op_s, op_norm_s, failed, values, summaries = [], [], 0, {}, []
    run_warnings = {}
    loop_start = time.perf_counter()
    i = 1
    while True:
        op_idx = len(tracer.spans) if tracer else 0
        before = calib()
        seconds, out, err, counts = run_op(wl, inp, fitlog, tracer)
        after = calib()
        hi = len(tracer.spans) if tracer else 0
        op_s.append(seconds)
        op_norm_s.append(seconds * Calibration.REF_S / (0.5 * (before + after)))
        problems = [err] if err else []
        if not err:
            try:
                checked = wl.check(inp, out, fitlog.fits)
                checked.values["objective_rel"] = fitlog.objective_rel()
                for k, v in checked.values.items():
                    values.setdefault(k, []).append(v)
                problems += checked.problems
            except Exception:  # a check that cannot run fails the op
                problems.append(traceback.format_exc(limit=3))
        if problems:
            failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        for k, v in counts.items():
            run_warnings[k] = run_warnings.get(k, 0) + v
        if tracer:
            summary = tracing.summarize(tracer, op_idx, hi, lo)
            summary["warnings"] = counts
            summaries.append(summary)
        if time.perf_counter() - loop_start >= args.seconds:
            break
        i += 1
        lo = len(tracer.spans) if tracer else 0
        inp = wl.inputs(base + i)

    result.update(
        op_s=op_s,
        op_norm_s=op_norm_s,
        failed=failed,
        values=values,
        warnings=run_warnings,
        run_problems=wl.run_problems(values) if values else ["no op succeeded"],
        env=environment(),
    )
    if tracer:
        tracer.uninstall()
        gaps = [abs(tracing.accounting_gap(s)) / s["op_s"] for s in summaries]
        result["layers"] = tracing.per_layer(summaries)
        result["max_accounting_gap"] = max(gaps)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
