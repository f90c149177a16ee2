"""The three benchmark workloads: inputs, the timed op and its output checks.

Every call into ``mpbasis`` goes through a module attribute (``pipeline.fit_mpb``,
``fpca.run_fpca``, ...) so that the traced worker's wrappers see it. Inputs
come from ``mpbasis.sim``; each op gets a fresh replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpbasis import fpca, pipeline, selection, sim
from mpbasis.basis import FourierBasis
from mpbasis.solver import SolverConfig

#: Largest objective increase between sweeps, relative to the first
#: objective, that still counts as nonincreasing (rounding only).
MONOTONE_SLACK = 1e-10
#: Largest entry of |s'Js - I| accepted for the FPCA eigenvectors.
ORTHONORMAL_TOL = 1e-8


@dataclass
class Checked:
    """Quality values of one op plus every output check it failed."""

    values: dict
    problems: list


def objective_problems(fits) -> list[str]:
    out = []
    for k, (_, state) in enumerate(fits):
        trace = state.objective_trace
        worst = float(np.max(np.diff(trace), initial=-np.inf))
        if worst > MONOTONE_SLACK * trace[0]:
            out.append(f"fit {k}: objective rose by {worst:.3e} in one sweep")
    return out


class Product3d:
    """Criterion-1 fit: 3-d product design, 30^3 grid, 5 subjects, K=25."""

    name = "product3d"
    sim_cfg = sim.ProductSimConfig(
        n_dims=3, marginal_rank=11, true_rank=10, coef_sd=0.3, noise_var=0.5,
        grid_size=30, n_subjects=5, seed=20_240_501,
    )
    bases = [FourierBasis((0.0, 1.0), 15) for _ in range(3)]
    solver_cfg = SolverConfig(
        rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=400,
        outer_tol=1e-8, seed=0,
    )

    def inputs(self, rep: int):
        return sim.generate_product_sample(self.sim_cfg, replication=rep)

    def op(self, sample):
        model, _, _ = pipeline.fit_mpb(
            sample.noisy, sample.grids, self.bases, [2, 2, 2], self.solver_cfg
        )
        est = model.evaluate_subjects(sample.grids)
        return est, sim.mise(sample.truth, est, sample.grids) / self.sim_cfg.n_subjects

    def check(self, sample, out, fits) -> Checked:
        est, mise_per_subject = out
        # no subject is held out here: the criterion is taken in sample
        cv_error = float(np.mean((sample.noisy - est) ** 2))
        return Checked({"mise": mise_per_subject, "cv_error": cv_error}, objective_problems(fits))

    def run_problems(self, values: dict) -> list[str]:
        mean = float(np.mean(values["mise"]))
        return [] if mean <= 0.01 else [f"mean MISE/N {mean:.5f} > 0.01 (criterion 1)"]


class Gp2d:
    """Criterion-2 fit plus projection of the test set and FPCA."""

    name = "gp2d"
    sim_cfg = sim.Gp2dSimConfig(
        ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=50, seed=42
    )

    def inputs(self, rep: int):
        return rep, sim.generate_gp2d_sample(self.sim_cfg, replication=rep)

    def op(self, inp):
        rep, s = inp
        cfg = SolverConfig(
            rank=30, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=300,
            outer_tol=1e-10, seed=rep,
        )
        model, _, _ = pipeline.fit_mpb(s.train, s.grids, s.bases, [2, 2], cfg)
        coefs, resid = model.project(s.test, s.grids)
        xis = model.marginal_values(s.grids)
        est = np.einsum("ik,jk,nk->ijn", xis[0], xis[1], coefs, optimize=True)
        test_mise = sim.mise(s.test, est, s.grids)
        return model, resid, test_mise, fpca.run_fpca(model)

    def check(self, inp, out, fits) -> Checked:
        _, s = inp
        model, resid, test_mise, fp = out
        problems = []
        if not test_mise <= 0.06:
            problems.append(f"test MISE {test_mise:.3e} > 0.06 (criterion 2)")
        gram = fp.s.T @ model.gram_zeta() @ fp.s
        dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        if not dev <= ORTHONORMAL_TOL:
            problems.append(f"FPCA eigenvectors: max |s'Js - I| = {dev:.2e}")
        if np.any(fp.nu < 0) or np.any(np.diff(fp.nu) > 0):
            problems.append("FPCA eigenvalues are negative or increasing")
        n_entries = s.test.size // s.test.shape[-1]
        cv_error = float(np.mean(resid**2)) / n_entries
        return Checked({"mise": test_mise, "cv_error": cv_error}, problems)

    def run_problems(self, values: dict) -> list[str]:
        return []


class CvLasso:
    """Lasso CV sweep: 3 coefficient weights x 3 folds on a 100^2 GP design."""

    name = "cv_lasso"
    sim_cfg = sim.Gp2dSimConfig(
        ranks=(10, 8), grid_size=(100, 100), n_train=60, n_test=0, seed=7
    )
    grid = [(1e-6, 1e-4), (1e-6, 1e-3), (1e-6, 1e-2)]
    folds = 3
    #: Sweep cap per fit, lowered from 40 so that a run holds enough ops (about
    #: 2 s each instead of 13 s) for steady medians and means.
    sweeps = 5

    def inputs(self, rep: int):
        return rep, sim.generate_gp2d_sample(self.sim_cfg, replication=rep)

    def op(self, inp):
        rep, s = inp
        cfg = SolverConfig(
            rank=20, lambda_marginal=1e-6, lambda_coef=1e-4, coef_penalty="lasso",
            max_outer_iters=self.sweeps, outer_tol=1e-8, seed=rep,
        )
        return selection.cv_lambda_grid(
            s.train, s.grids, s.bases, [2, 2], cfg, self.grid, self.folds, seed=rep
        )

    def check(self, inp, report, fits) -> Checked:
        crit = [r.criterion for r in report.records]
        problems = []
        if not all(math.isfinite(c) for c in crit):
            problems.append(f"non-finite CV criterion in {crit}")
        # argmin of the criterion, ties going to the larger weights
        keyed = [((r.criterion, tuple(-v for v in r.params.values())), i)
                 for i, r in enumerate(report.records)]
        want = min(keyed)[1]
        picked = [i for i, r in enumerate(report.records) if r.chosen]
        if picked != [want]:
            problems.append(f"chosen records {picked}, expected [{want}]")
        # the fields are noise-free, so the held-out residual per grid entry is
        # the held-out error against the truth; mise averages it over all cells
        return Checked(
            {"mise": float(np.mean(crit)), "cv_error": crit[want]}, problems
        )

    def run_problems(self, values: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Product3d(), Gp2d(), CvLasso())}
