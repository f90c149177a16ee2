"""The noise estimate of a prepared problem and the fit that stops at it.

``PreparedProblem.noise_var`` is the energy outside the span of the
compression per out-of-span coordinate, taken from the data energy that
``prepare`` records; ``fit_mpb`` stops a ridge fit after the first sweep whose
residual reaches ``noise_var * residual_dof`` (the discrepancy principle), and
otherwise runs exactly as the plain solver.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from mpbasis import sim, solver
from mpbasis.basis import BSplineBasis, FourierBasis
from mpbasis.pipeline import fit_mpb
from mpbasis.reduction import NOISE_FLOOR, out_of_span_sq, prepare
from mpbasis.solver import SolverConfig, residual_dof

#: The ``product3d`` benchmark workload's design and fit: criterion 1.
PRODUCT = sim.ProductSimConfig(
    n_dims=3, marginal_rank=11, true_rank=10, coef_sd=0.3, noise_var=0.5,
    grid_size=30, n_subjects=5, seed=20_240_501,
)
PRODUCT_BASES = [FourierBasis((0.0, 1.0), 15) for _ in range(3)]
PRODUCT_FIT = SolverConfig(
    rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=400, outer_tol=1e-8, seed=0
)


def product_problem(rep):
    sample = sim.generate_product_sample(PRODUCT, replication=rep)
    return sample.noisy, prepare(sample.noisy, sample.grids, PRODUCT_BASES, [2, 2, 2])


def small_problem(rng, n_subj=6):
    bases = [BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 1.0), 5)]
    grids = [np.linspace(0.0, 1.0, 14), np.linspace(0.0, 1.0, 11)]
    return bases, grids, rng.standard_normal((14, 11, n_subj))


@pytest.mark.parametrize("rep", [100001, 100002, 100003])
def test_noise_var_is_the_out_of_span_energy_per_coordinate(rep):
    y, prepared = product_problem(rep)
    direct = float(out_of_span_sq(y, prepared.facs, prepared.g_hat).sum())
    n_out = 30**3 - 15**3
    assert prepared.noise_var * PRODUCT.n_subjects * n_out == pytest.approx(direct, rel=1e-10)
    assert prepared.noise_var == pytest.approx(PRODUCT.noise_var, rel=0.05)


def test_noise_var_is_none_on_noise_free_data():
    # gp2d fields lie in the span of their own bases: the out-of-span energy
    # is rounding, far below the floor
    s = sim.generate_gp2d_sample(sim.Gp2dSimConfig(seed=42), replication=0)
    prepared = prepare(s.train, s.grids, s.bases, [2, 2])
    outside = float(prepared.y_sq.sum() - np.sum(prepared.g_hat**2))
    assert outside <= NOISE_FLOOR * float(prepared.y_sq.sum())
    assert prepared.noise_var is None


def test_noise_var_is_none_when_the_bases_span_the_grid():
    # 7 periodic points per mode and Fourier rank 7: prod n = prod m
    rng = np.random.default_rng(40)
    grids = [np.arange(7) / 7.0] * 2
    bases = [FourierBasis((0.0, 1.0), 7)] * 2
    assert prepare(rng.standard_normal((7, 7, 4)), grids, bases, [2, 2]).noise_var is None


def test_slices_and_centering_carry_the_data_energy():
    bases, grids, y = small_problem(np.random.default_rng(41))
    y = y + 3.0
    full = prepare(y, grids, bases, [2, 2])
    assert np.allclose(full.y_sq, np.sum(y**2, axis=(0, 1)), rtol=1e-14, atol=0)
    pick = np.array([True, False, True, True, False, True])
    part = full.subjects(pick)
    assert np.array_equal(part.y_sq, full.y_sq[pick])
    mean = y[..., pick].mean(axis=-1)
    got = part.centered(y[..., pick])
    ref = prepare(y[..., pick] - mean[..., None], grids, bases, [2, 2])
    assert got.y_sq.sum() == pytest.approx(ref.y_sq.sum(), rel=1e-12)
    assert np.allclose(got.g_hat, ref.g_hat, rtol=0, atol=1e-12 * np.abs(ref.g_hat).max())
    # the mean takes one of the 4 subjects' worth of freedom, which a
    # reduction of already-centered data cannot know
    assert ref.mean is None and np.array_equal(got.mean, mean) and got.noise_dof == 3 * (154 - 30)
    assert got.noise_var == pytest.approx(ref.noise_var * 4 / 3, rel=1e-10)
    # a second centering would replace the first mean, which the model then lost
    with pytest.raises(ValueError, match="the problem is already centered"):
        got.centered(y[..., pick])


def test_centered_refuses_anything_but_the_data_of_its_subjects():
    # the mean is taken from the data: a mean passed in its place, or the
    # whole tensor for a slice of its subjects, is refused by its shape
    bases, grids, y = small_problem(np.random.default_rng(41))
    full = prepare(y + 3.0, grids, bases, [2, 2])
    part = full.subjects(np.array([True, False, True, True, False, True]))
    for problem, data, n in [(full, y.mean(axis=-1), 6), (part, y, 4)]:
        expected = f"data tensor has shape {data.shape}, expected (14, 11, {n})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            problem.centered(data)


@pytest.mark.parametrize("rep", [0, 1, 2])
def test_centered_noise_var_agrees_with_the_raw_one(rep):
    # centering takes the subject mean, one subject's worth of freedom: over
    # N subjects the centered estimate read 4/5 of the raw one
    y, prepared = product_problem(rep)
    centered = prepared.centered(y)
    assert centered.noise_var == pytest.approx(prepared.noise_var, rel=0.01)
    assert prepared.noise_var == pytest.approx(PRODUCT.noise_var, rel=0.01)


def test_centered_fit_stops_at_the_noise_level_of_n_minus_1_subjects():
    y, prepared = product_problem(100001)
    centered = prepared.centered(y)
    *ms, n = centered.g_hat.shape
    target = centered.noise_var * residual_dof((*ms, n - 1), PRODUCT_FIT.rank)
    _, state, report = fit_mpb(y, prepared.grids, PRODUCT_BASES, [2, 2, 2], PRODUCT_FIT, center=True)
    assert report.noise_var == centered.noise_var
    assert state.stop_reason == "noise level" and state.residual_sq <= target
    cfg = replace(PRODUCT_FIT, max_outer_iters=state.iters - 1)
    plain = solver.fit(centered.g_hat, centered.t_mats, cfg)
    assert plain.residual_sq > target


def test_a_lasso_fit_at_zero_weight_is_the_ridge_fit():
    # at lambda_coef = 0 the lasso block does not run: the solver runs the
    # ridge arithmetic, so the fit gets the ridge fit's noise target too;
    # without it this fit ran to the 400-sweep cap at 1.5 times the MISE
    sample = sim.generate_product_sample(PRODUCT, replication=0)
    ridge_cfg = replace(PRODUCT_FIT, lambda_coef=0.0)
    lasso_cfg = replace(ridge_cfg, coef_penalty="lasso")
    assert not lasso_cfg.lasso_block and replace(lasso_cfg, lambda_coef=1e-8).lasso_block
    (ridge, ridge_state, _), (lasso, lasso_state, _) = (
        fit_mpb(sample.noisy, sample.grids, PRODUCT_BASES, [2, 2, 2], cfg)
        for cfg in (ridge_cfg, lasso_cfg)
    )
    assert lasso_state.stop_reason == ridge_state.stop_reason == "noise level"
    for a, b in zip(lasso.coefs + [lasso.subject_coefs], ridge.coefs + [ridge.subject_coefs]):
        assert np.array_equal(a, b)
    assert np.array_equal(lasso_state.objective_trace, ridge_state.objective_trace)


def test_residual_dof_counts_entries_less_free_parameters():
    # criterion 1: 5 * 15^3 - 25 * (5 + 45 - 3)
    assert residual_dof((15, 15, 15, 5), 25) == 15_700
    assert residual_dof((6, 5, 6), 12) == 0


def test_fit_stops_at_the_first_sweep_at_the_noise_level():
    y, prepared = product_problem(100001)
    grids = prepared.grids
    _, state, report = fit_mpb(y, grids, PRODUCT_BASES, [2, 2, 2], PRODUCT_FIT)
    target = prepared.noise_var * residual_dof(prepared.g_hat.shape, PRODUCT_FIT.rank)
    s = state.iters
    assert state.stop_reason == report.stop_reason == "noise level"
    assert state.converged and report.converged and 1 < s < PRODUCT_FIT.max_outer_iters
    assert report.noise_var == prepared.noise_var
    assert state.residual_sq <= target
    # the same fit without the target, capped at s - 1 and at s sweeps
    for cap, above in ((s - 1, True), (s, False)):
        cfg = replace(PRODUCT_FIT, max_outer_iters=cap)
        plain = solver.fit(prepared.g_hat, prepared.t_mats, cfg)
        assert plain.stop_reason == "sweep cap" and not plain.converged
        assert (plain.residual_sq > target) is above
    assert plain.residual_sq == state.residual_sq
    assert np.array_equal(plain.b, state.b)


def _gp2d():
    s = sim.generate_gp2d_sample(sim.Gp2dSimConfig(seed=42), replication=0)
    cfg = SolverConfig(
        rank=30, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=30,
        outer_tol=1e-10, seed=0,
    )
    return s.train, s.grids, s.bases, cfg


def _small(rank, penalty="ridge"):
    bases, grids, y = small_problem(np.random.default_rng(42))
    cfg = SolverConfig(rank=rank, lambda_coef=1e-3, coef_penalty=penalty, max_outer_iters=40)
    return y, grids, bases, cfg


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _small(2, "lasso"), id="lasso"),
        pytest.param(_gp2d, id="gp2d"),
        # 6 subjects, 6 x 5 compressed grid: 180 entries, 15 parameters per component
        pytest.param(lambda: _small(12), id="no-dof"),
    ],
)
def test_fit_mpb_without_the_rule_is_the_plain_solver(case):
    y, grids, bases, cfg = case()
    prepared = prepare(y, grids, bases, [2, 2])
    _, state, report = fit_mpb(y, grids, bases, [2, 2], cfg)
    plain = solver.fit(prepared.g_hat, prepared.t_mats, cfg)
    assert state.stop_reason == report.stop_reason == plain.stop_reason != "noise level"
    assert state.iters == plain.iters
    assert np.array_equal(state.objective_trace, plain.objective_trace)
    assert np.array_equal(state.b, plain.b)
    assert all(np.array_equal(c, p) for c, p in zip(state.c_tilde, plain.c_tilde))


def test_small_problems_with_noise_do_stop_at_the_noise_level():
    # the same small problem at rank 2 has residual degrees of freedom and a
    # noise estimate, so the rule is on there: the cases above are off for
    # their stated reason only
    y, grids, bases, cfg = _small(2)
    prepared = prepare(y, grids, bases, [2, 2])
    assert prepared.noise_var is not None and residual_dof(prepared.g_hat.shape, 2) > 0
    assert residual_dof(prepared.g_hat.shape, 12) <= 0
    _, state, _ = fit_mpb(y, grids, bases, [2, 2], cfg)
    assert state.stop_reason == "noise level"
