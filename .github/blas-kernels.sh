#!/usr/bin/env bash
# Runs the acceptance suite and the BLAS thread test under each OpenBLAS kernel
# in {SkylakeX, Haswell, SandyBridge, Nehalem, Prescott}, chosen by
# OPENBLAS_CORETYPE, at 1 and at 2 BLAS threads. For each setting it prints the
# kernel names that numpy's and scipy's OpenBLAS report having loaded (a core
# type the CPU cannot run shows up as the kernel that loaded instead, not as a
# skip), and criterion 3's smallest ridge Cholesky diagonal ratio per
# replication, the quantity `solver.CHOL_DIAG_RATIO_TOL` (1e-7) guards, with
# its margin (the ratio over that threshold; the fit's relative proximal shift
# keeps it near 1e3, where an unshifted ridge block read 0.96-1.4) and the
# first 12 hex digits of the SHA-256 of that replication's fitted factors
# ("-" when the fit raised), so two trees that should give bit-identical
# iterates can be compared setting by setting. It ends with one line per
# setting and exits non-zero if any setting fails.
#
# Usage, from anywhere: bash .github/blas-kernels.sh
# The settings act only on the environment of the processes it starts.
set -uo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

probe() {
  python - <<'PY'
import ctypes
import hashlib
import re

import numpy as np
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

from mpbasis import sim, solver
from mpbasis.errors import NumericalError
from mpbasis.pipeline import fit_mpb

names = []
paths = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line})
for path in paths:
    lib, name = ctypes.CDLL(path), "unknown"
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                   "openblas_get_corename64_", "openblas_get_corename"):
        if hasattr(lib, symbol):
            getter = getattr(lib, symbol)
            getter.restype = ctypes.c_char_p
            name = getter().decode()
            break
    owner = "numpy" if "numpy" in path else "scipy" if "scipy" in path else path
    names.append(f"{owner} {name}")
print("kernels:", ", ".join(names) or "no OpenBLAS loaded")

# criterion 3's fits, recording every ridge Cholesky factor's diagonal ratio
cfg = sim.Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=50, seed=314)
cholesky, ratios = solver._cholesky, []


def recording(a, what):
    try:
        chol = cholesky(a, what)
    except NumericalError as exc:
        found = re.search(r"ratio (\S+) is at or below", str(exc))
        ratios.append(float(found.group(1)) if found else 0.0)
        raise
    if what == solver._RIDGE_SINGULAR:
        diag = np.diag(chol)
        ratios.append(diag.min() / diag.max())
    return chol


solver._cholesky = recording
line = []
for r in range(3):
    ratios.clear()
    sample = sim.generate_gp2d_sample(cfg, replication=r)
    fit_cfg = solver.SolverConfig(
        rank=60, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=200,
        outer_tol=1e-10, seed=r,
    )
    try:
        _, state, _ = fit_mpb(sample.train, sample.grids, sample.bases, [2, 2], fit_cfg)
        factors = b"".join(np.ascontiguousarray(f).tobytes() for f in state.factors())
        note = f" factors {hashlib.sha256(factors).hexdigest()[:12]}"
    except NumericalError:
        note = " (raised) factors -"
    ratio = min(ratios)
    line.append(f"rep {r} {ratio:.3e} (margin {ratio / solver.CHOL_DIAG_RATIO_TOL:.0f}){note}")
print("criterion 3 smallest ridge Cholesky ratio, its margin and factor hash:", ", ".join(line))
PY
}

failed=0
summary=()
for core in SkylakeX Haswell SandyBridge Nehalem Prescott; do
  for threads in 1 2; do
    export OPENBLAS_CORETYPE="$core" OPENBLAS_NUM_THREADS="$threads" OMP_NUM_THREADS="$threads"
    echo "=== OPENBLAS_CORETYPE=$core, $threads BLAS thread(s)"
    info=$(probe 2>&1)
    echo "$info"
    if python -m pytest -q -p no:cacheprovider tests/test_acceptance.py tests/test_blas_threads.py; then
      status=pass
    else
      status=FAIL
      failed=1
    fi
    kernels=$(sed -n 's/^kernels: //p' <<<"$info")
    summary+=("$core, $threads thread(s): $status [${kernels:-probe failed}]")
  done
done
echo "=== summary"
printf '%s\n' "${summary[@]}"
exit "$failed"
