#!/usr/bin/env python3
"""Hash a benchmark workload's outputs, so that two checkouts can be compared.

Runs one workload of ``perfbench/workloads.py`` as the benchmark does: a
warm-up op on input ``seed * 100000``, then ops ``1..N`` on inputs ``seed *
100000 + i``. It prints one line per ``solver.fit`` call (op, fit, sweeps and
a digest of its factors and objective trace) and, last, one SHA-256 over every
op's output and every fit's factors and objective trace, in call order.
Nothing is timed, and nothing is written.

    python3 .github/output-hash.py --workload product3d --ops 40
    python3 .github/output-hash.py --workload cv_lasso --ops 6 --root ../parent

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are imported
(default: the one holding this script), so the same script hashes a parent
commit that lacks it. Equal last lines mean bit-identical outputs; a
``diff`` of two runs names every fit that changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np


def feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``: arrays by dtype, shape and bytes,
    containers, dataclasses and plain objects by their items."""
    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif obj is None or isinstance(obj, (str, int, float, bool)):
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            feed(h, v)
    elif dataclasses.is_dataclass(obj):
        feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif hasattr(obj, "__dict__"):
        feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from mpbasis import solver
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    fits = []
    fit = solver.fit

    def logged(*a, **kw):
        state = fit(*a, **kw)
        fits.append(state)
        return state

    solver.fit = logged  # the workloads reach it through pipeline.fit_mpb
    wl.op(wl.inputs(args.seed * 100_000))  # the warm-up op, not hashed
    total = hashlib.sha256()
    for i in range(1, args.ops + 1):
        fits.clear()
        feed(total, wl.op(wl.inputs(args.seed * 100_000 + i)))
        for j, state in enumerate(fits):
            one = hashlib.sha256()
            feed(one, [state.factors(), state.objective_trace])
            print(f"op {i} fit {j} sweeps {state.iters} {one.hexdigest()[:16]}")
            total.update(one.digest())
    print(f"{args.workload} ops {args.ops} seed {args.seed} sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
