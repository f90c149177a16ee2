"""Results do not depend on the BLAS thread count.

One product-design fit and one gp2d fit plus test-set projection, at the
benchmark's criterion-1 and criterion-2 scales, run in two fresh processes
with ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` at 1 and 2 (BLAS reads the
count once, when numpy loads it). Threaded BLAS may sum in another order, so
the outputs agree to tolerances stated here, not bit for bit; the product
fit, which stops at the noise level, stops at the same sweep. Measured on an
x86-64 host with OpenBLAS 0.3.31: 4.5e-15 on the product estimate after 5
sweeps (7.3e-14 when that fit ran to its 400-sweep cap), 8.8e-8 on the gp2d
residuals and 3.5e-7 on its subject coefficients, each relative to the largest
entry. The gp2d fit's extrapolated sweeps amplify the rounding: without them
the gp2d figures read 2.2e-8 and 5.0e-8.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
from mpbasis import SolverConfig, fit_mpb, sim
from mpbasis.basis import FourierBasis

p = sim.generate_product_sample(sim.ProductSimConfig(seed=20_240_501), replication=0)
cfg = SolverConfig(rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=400)
model, state, _ = fit_mpb(p.noisy, p.grids, [FourierBasis((0.0, 1.0), 15)] * 3, [2, 2, 2], cfg)
est, sweeps = model.evaluate_subjects(p.grids), state.iters

s = sim.generate_gp2d_sample(sim.Gp2dSimConfig(seed=42), replication=0)
cfg = SolverConfig(rank=30, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=300,
                   outer_tol=1e-10)
model, _, _ = fit_mpb(s.train, s.grids, s.bases, [2, 2], cfg)
coefs, resid = model.project(s.test, s.grids)
np.savez(sys.argv[1], est=est, resid=resid, coefs=coefs, sweeps=sweeps)
"""

#: Largest difference between the two runs, relative to the largest entry.
TOLERANCES = {"est": 1e-10, "resid": 1e-6, "coefs": 1e-6}


def test_fits_do_not_depend_on_the_blas_thread_count(tmp_path):
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.npz"
        proc = subprocess.Popen([sys.executable, "-c", SCRIPT, str(out)], env=env)
        runs[threads] = (proc, out)
    for proc, _ in runs.values():
        assert proc.wait(timeout=300) == 0
    one, two = (np.load(out) for _, out in runs.values())
    assert one["sweeps"] == two["sweeps"] < 400
    for key, tol in TOLERANCES.items():
        scale = np.abs(one[key]).max()
        assert np.abs(one[key] - two[key]).max() <= tol * scale, key
