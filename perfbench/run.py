"""mpbasis benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload product3d --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it starts two set-up-only worker processes and one
measuring worker, one after the other, and reports the end-to-end metrics.
With ``--trace 1`` it starts an untraced measuring worker and a traced one,
each for half of ``--seconds``, and reports the per-layer metrics. Every
worker runs with the BLAS thread count pinned to ``BLAS_THREADS``. A readable
report goes to standard output; its last line is the JSON result. The
benchmark exits non-zero, without a result, when a worker fails or when the
checkout holds no ``src/mpbasis``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("product3d", "gp2d", "cv_lasso")
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-up samples per end-to-end run: this many set-up-only workers plus the
#: measuring worker's own set-up.
SETUP_ONLY_WORKERS = 2
#: Whole-run budget; a worker still running at this point is killed.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "mise": "1",
    "cv_error": "1",
    "objective_rel": "1",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "solver.s_per_sweep":
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, **{v: str(BLAS_THREADS) for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran past the {BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "mpbasis" / "__init__.py").is_file():
        print(f"no mpbasis package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            runs = [
                spawn(args, "measure", args.seconds / 2, deadline),
                spawn(args, "traced", args.seconds / 2, deadline),
            ]
        else:
            setups = [spawn(args, "setup", 0, deadline) for _ in range(SETUP_ONLY_WORKERS)]
            runs = [spawn(args, "measure", args.seconds, deadline)]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    measured = runs[0]
    attempted = sum(len(r["op_s"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["run_problems"]]
    if args.trace and runs[1]["max_accounting_gap"] > 1e-9:
        problems.append("span self times do not add up to the op span")
    env = measured["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"ops {attempted}  failed {failed}  fail_ratio {failed / attempted:.4g}")
    for p in problems:
        print(f"run check failed: {p}")
    if failed == attempted:
        print("benchmark failed: no op succeeded", file=sys.stderr)
        return 1

    if args.trace:
        traced = runs[1]
        values = dict(traced["layers"])
        untraced_s = statistics.median(measured["op_norm_s"])
        traced_s = statistics.median(traced["op_norm_s"])
        values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        print(f"op_s_p50 untraced {untraced_s:.4f} s ({len(measured['op_s'])} ops), "
              f"traced {traced_s:.4f} s ({len(traced['op_s'])} ops); traced op raw wall "
              f"time {statistics.fmean(traced['op_s']):.4f} s on average, the base of the "
              f"per-layer seconds; max accounting gap {traced['max_accounting_gap']:.1e}")
        units = {name: layer_unit(name) for name in values}
    else:
        raw_setup = statistics.median(r["setup_s"] for r in setups + runs)
        raw_op = statistics.median(measured["op_s"])
        print(f"raw wall time: setup {raw_setup:.4f} s, op median {raw_op:.4f} s "
              f"({len(measured['op_s'])} ops)")
        values = {
            "setup_s": statistics.median(r["setup_norm_s"] for r in setups + runs),
            "op_s_p50": statistics.median(measured["op_norm_s"]),
            **{k: statistics.fmean(v) for k, v in measured["values"].items()},
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"warnings per run {measured['warnings']}")
    for name, value in values.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
