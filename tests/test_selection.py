"""Hyperparameter selection criteria and the cross-validation harness."""

import tracemalloc

import numpy as np
import pytest

from mpbasis import reduction, solver
from mpbasis import tensors as T
from mpbasis.basis import BSplineBasis, FourierBasis
from mpbasis.model import MPBModel
from mpbasis.pipeline import fit_mpb
from mpbasis.reduction import compress, decompress, factorize, prepare
from mpbasis.selection import (
    SelectionRecord,
    SelectionReport,
    _fold_assignment,
    cv_lambda_grid,
    marginal_rank_criterion,
    select_marginal_rank,
    sweep_global_rank,
)
from mpbasis.sim import ProductSimConfig, generate_product_sample
from mpbasis.solver import SolverConfig


def test_marginal_criterion_full_rank_is_one():
    rng = np.random.default_rng(0)
    n = 12
    grids = [np.linspace(0, 1, n)]
    bases = [BSplineBasis((0.0, 1.0), n)]  # square invertible evaluation
    y = rng.standard_normal((n, 4))
    assert marginal_rank_criterion(y, bases, grids) == pytest.approx(1.0, abs=1e-12)


def test_marginal_criterion_in_span_data():
    rng = np.random.default_rng(1)
    grids = [np.linspace(0, 1, 20), np.linspace(0, 1, 18)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 5)]
    model = MPBModel(
        bases=bases,
        coefs=[rng.standard_normal((6, 2)), rng.standard_normal((5, 2))],
        subject_coefs=rng.standard_normal((3, 2)),
    )
    y = model.evaluate_subjects(grids)
    assert marginal_rank_criterion(y, bases, grids) == pytest.approx(1.0, abs=1e-10)


def test_marginal_criterion_matches_projection_oracle():
    rng = np.random.default_rng(2)
    grids = [np.linspace(0, 1, 15), np.linspace(0, 1, 14)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 7)]
    y = rng.standard_normal((15, 14, 5))
    got = marginal_rank_criterion(y, bases, grids)
    facs = [factorize(b.evaluate(g)) for b, g in zip(bases, grids)]
    proj = decompress(compress(y, facs), facs)
    ref = np.sum(proj**2) / np.sum(y**2)
    assert got == pytest.approx(ref, rel=1e-10)


def test_marginal_criterion_makes_no_grid_sized_temporary():
    # an 80 x 70 grid and 40 subjects (1.8 MB); squaring y for its energy
    # would allocate as much again
    rng = np.random.default_rng(5)
    y = rng.standard_normal((80, 70, 40))
    grids = [np.linspace(0, 1, 80), np.linspace(0, 1, 70)]
    bases = [BSplineBasis((0.0, 1.0), 8), BSplineBasis((0.0, 1.0), 7)]
    tracemalloc.start()
    try:
        got = marginal_rank_criterion(y, bases, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * y.nbytes
    facs = [factorize(b.evaluate(g)) for b, g in zip(bases, grids)]
    assert got == pytest.approx(np.sum(compress(y, facs) ** 2) / np.sum(y**2), rel=1e-12)


def test_marginal_criterion_checks_one_grid_per_basis():
    grids = [np.linspace(0, 1, 15), np.linspace(0, 1, 14), np.linspace(0, 1, 13)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 7)]
    y = np.random.default_rng(2).standard_normal((15, 14, 5))
    with pytest.raises(ValueError, match="one grid and one penalty order per dimension"):
        marginal_rank_criterion(y, bases, grids)


def test_marginal_criterion_zero_norm_raises():
    with pytest.raises(ValueError, match="zero norm"):
        marginal_rank_criterion(
            np.zeros((10, 2)), [BSplineBasis((0.0, 1.0), 5)], [np.linspace(0, 1, 10)]
        )


def test_marginal_criterion_nondecreasing_along_nested_refinement():
    # dyadic interior-knot refinement gives nested spline spaces
    rng = np.random.default_rng(3)
    n = 65
    grids = [np.linspace(0, 1, n)]
    y = rng.standard_normal((n, 6))
    ranks = [4 + j for j in (0, 1, 3, 7, 15)]  # interior knots 0,1,3,7,15
    values = []
    for m in ranks:
        values.append(
            marginal_rank_criterion(y, [BSplineBasis((0.0, 1.0), m)], grids)
        )
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_select_marginal_rank_stops_at_containing_rank():
    rng = np.random.default_rng(4)
    grids = [np.linspace(0, 1, 40), np.linspace(0, 1, 40)]
    gen = [BSplineBasis((0.0, 1.0), 7), BSplineBasis((0.0, 1.0), 7)]
    model = MPBModel(
        bases=gen,
        coefs=[rng.standard_normal((7, 3)) for _ in range(2)],
        subject_coefs=rng.standard_normal((4, 3)),
    )
    y = model.evaluate_subjects(grids)
    candidates = [
        [BSplineBasis((0.0, 1.0), 4 + j) for _ in range(2)] for j in (0, 1, 3, 7, 15)
    ]
    report = select_marginal_rank(y, grids, candidates, threshold=1.0 - 1e-9)
    assert report.kind == "marginal_variance"
    # rank 7 is the generating space, the first candidate containing the data
    assert report.chosen.params == {"rank_0": 7, "rank_1": 7}
    assert len(report.records) == 5
    below = [r.criterion for r in report.records[:2]]
    assert max(below) < 1.0 - 1e-9


def small_problem(rng):
    bases = [BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 1.0), 5)]
    grids = [np.linspace(0.0, 1.0, 14), np.linspace(0.0, 1.0, 11)]
    return bases, grids, rng.standard_normal((14, 11, 6))


def record_fits(monkeypatch, calls=()):
    """Wrap ``solver.fit``: returns the list of ``(len(calls) at its start,
    returned state)`` of every fit."""
    fits, fit = [], solver.fit

    def recording_fit(*args, **kwargs):
        start = len(calls)
        state = fit(*args, **kwargs)
        fits.append((start, state))
        return state

    monkeypatch.setattr(solver, "fit", recording_fit)
    return fits


def refuse_fits(*args, **kwargs):
    raise AssertionError("solver.fit was called")


def test_global_rank_criterion_cases(monkeypatch):
    # the fit keeps |g - X|^2 of the decomposition X it returns, on a cold and
    # a warm start, and the fit report and the rank sweep read it
    bases, grids, y = small_problem(np.random.default_rng(5))
    prepared = prepare(y, grids, bases, [2, 2])
    g = prepared.g_hat

    def direct_sq(state):
        return np.sum((g - T.cp_to_tensor(state.factors())) ** 2)

    fits = record_fits(monkeypatch)
    for penalty in ("ridge", "lasso"):
        cfg = SolverConfig(rank=2, lambda_coef=1e-3, coef_penalty=penalty, max_outer_iters=15)
        cold = solver.fit(g, prepared.t_mats, cfg)
        warm = solver.fit(g, prepared.t_mats, cfg, initial_state=cold)
        for state in (cold, warm):
            assert state.residual_sq == pytest.approx(direct_sq(state), rel=1e-12)
        _, state, report = fit_mpb(prepared, grids, bases, [2, 2], cfg)
        assert report.residual_ratio == pytest.approx(direct_sq(state) / np.sum(g**2), rel=1e-12)
        del fits[:]
        with pytest.warns(RuntimeWarning, match="no rank reached"):
            sweep = sweep_global_rank(g, prepared.t_mats, cfg, [1, 2, 3], threshold=0.0)
        assert len(fits) == 3  # the ranks after the first start warm
        for record, (_, state) in zip(sweep.records, fits):
            assert record.criterion == pytest.approx(direct_sq(state) / np.sum(g**2), rel=1e-12)


def test_residual_is_formed_once_per_objective(monkeypatch):
    # one residual per sweep plus the starting objective; none after a fit
    bases, grids, y = small_problem(np.random.default_rng(8))
    prepared = prepare(y, grids, bases, [2, 2])
    cfg = SolverConfig(rank=2, lambda_coef=1e-6, max_outer_iters=7)
    calls, residual_sq = [], solver.residual_sq
    monkeypatch.setattr(solver, "residual_sq", lambda *a: calls.append(1) or residual_sq(*a))
    _, state, _ = fit_mpb(prepared, grids, bases, [2, 2], cfg)
    assert len(calls) == state.iters + 1
    del calls[:]
    fits = record_fits(monkeypatch, calls)
    sweep_global_rank(prepared.g_hat, prepared.t_mats, cfg, [1, 2, 3], threshold=1.0)
    starts = [start for start, _ in fits] + [len(calls)]
    assert np.diff(starts).tolist() == [state.iters + 1 for _, state in fits]


def test_zero_data_is_refused_before_fitting(monkeypatch):
    bases, grids, y = small_problem(np.random.default_rng(9))
    prepared = prepare(np.zeros_like(y), grids, bases, [2, 2])
    monkeypatch.setattr(solver, "fit", refuse_fits)
    cfg = SolverConfig(rank=2)
    with pytest.raises(ValueError, match="zero norm"):
        fit_mpb(prepared, grids, bases, [2, 2], cfg)
    with pytest.raises(ValueError, match="zero norm"):
        sweep_global_rank(prepared.g_hat, prepared.t_mats, cfg, [1, 2])


def test_sweep_global_rank_refuses_an_empty_grid(monkeypatch):
    monkeypatch.setattr(solver, "fit", refuse_fits)
    g = np.random.default_rng(10).standard_normal((4, 3, 5))
    with pytest.raises(ValueError, match="rank grid is empty"):
        sweep_global_rank(g, [np.eye(4), np.eye(3)], SolverConfig(rank=1), [])


def test_sweep_global_rank_monotone_with_warm_start():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((6, 5, 8))
    t_mats = [np.zeros((6, 6)), np.zeros((5, 5))]
    cfg = SolverConfig(rank=1, seed=0, max_outer_iters=60, lambda_coef=1e-10)
    # threshold 0 unreachable: the largest rank is chosen with a warning
    with pytest.warns(RuntimeWarning, match="no rank reached"):
        report = sweep_global_rank(g, t_mats, cfg, k_grid=[1, 2, 4, 6], threshold=0.0)
    values = [r.criterion for r in report.records]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
    assert report.kind == "normalized_residual"
    assert report.chosen.params["rank"] == 6


def test_sweep_global_rank_completes_where_a_zero_padded_warm_start_failed():
    # the product3d benchmark tensor of replication 100000 with its solver
    # settings and 50 sweeps: warm starts padded with zero coefficient columns
    # made the first factor Gram of the K=25 fit singular on the new
    # components, and the Sylvester guard raised NumericalError
    sim_cfg = ProductSimConfig(
        n_dims=3, marginal_rank=11, true_rank=10, coef_sd=0.3, noise_var=0.5,
        grid_size=30, n_subjects=5, seed=20_240_501,
    )
    sample = generate_product_sample(sim_cfg, replication=100_000)
    bases = [FourierBasis((0.0, 1.0), 15) for _ in range(3)]
    prepared = prepare(sample.noisy, sample.grids, bases, [2, 2, 2])
    cfg = SolverConfig(
        rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=50, outer_tol=1e-8,
        seed=0,
    )
    with pytest.warns(RuntimeWarning, match="no rank reached"):
        report = sweep_global_rank(prepared.g_hat, prepared.t_mats, cfg, [5, 10, 25])
    values = [r.criterion for r in report.records]
    assert values[0] >= values[1] >= values[2] > 0


def test_fold_assignment_round_robin_after_shuffle():
    labels = _fold_assignment(10, 3, seed=42)
    counts = np.bincount(labels, minlength=3)
    assert sorted(counts.tolist()) == [3, 3, 4]
    assert np.array_equal(labels, _fold_assignment(10, 3, seed=42))
    assert not np.array_equal(labels, _fold_assignment(10, 3, seed=43))


def cv_setup(rng, n_subj):
    grids = [np.linspace(0, 1, 20), np.linspace(0, 1, 18)]
    bases = [FourierBasis((0.0, 1.0), 5), FourierBasis((0.0, 1.0), 5)]
    model = MPBModel(
        bases=bases,
        coefs=[rng.standard_normal((5, 2)) for _ in range(2)],
        subject_coefs=rng.standard_normal((n_subj, 2)),
    )
    return grids, bases, model.evaluate_subjects(grids)


def test_cv_single_grid_point_is_chosen():
    rng = np.random.default_rng(7)
    grids, bases, y = cv_setup(rng, 6)
    cfg = SolverConfig(rank=2, seed=1, max_outer_iters=40)
    report = cv_lambda_grid(y, grids, bases, [2, 2], cfg, [(1e-8, 1e-8)], n_folds=2)
    assert len(report.records) == 1
    assert report.chosen.params == {"lambda_marginal": 1e-8, "lambda_coef": 1e-8}


def test_cv_noiseless_in_span_prefers_weakest_smoothing():
    rng = np.random.default_rng(8)
    grids, bases, y = cv_setup(rng, 8)
    cfg = SolverConfig(rank=2, seed=2, max_outer_iters=150)
    grid = [(1e-12, 1e-12), (10.0, 10.0)]
    report = cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid, n_folds=2)
    assert report.chosen.params["lambda_marginal"] == 1e-12
    errs = {r.params["lambda_marginal"]: r.criterion for r in report.records}
    assert errs[1e-12] < errs[10.0]


def test_cv_errors_average_across_folds():
    rng = np.random.default_rng(9)
    grids, bases, y = cv_setup(rng, 4)
    cfg = SolverConfig(rank=2, seed=3, max_outer_iters=60)
    labels = _fold_assignment(4, 2, seed=0)
    report = cv_lambda_grid(y, grids, bases, [2, 2], cfg, [(1e-10, 1e-10)], n_folds=2, seed=0)
    # recompute the two fold errors by hand
    from dataclasses import replace
    from mpbasis.pipeline import fit_mpb

    fold_errors = []
    n_entries = 20 * 18
    for fold in range(2):
        train = y[..., labels != fold]
        held = y[..., labels == fold]
        c = replace(cfg, lambda_marginal=1e-10, lambda_coef=1e-10)
        model, _, _ = fit_mpb(train, grids, bases, [2, 2], c)
        _, resid = model.project(held, grids)
        fold_errors.append(float(np.mean(resid**2)) / n_entries)
    assert report.records[0].criterion == pytest.approx(np.mean(fold_errors), rel=1e-12)


def test_cv_winner_invariant_to_fold_relabeling():
    # permuting the fold labels keeps the partition, hence every criterion
    rng = np.random.default_rng(12)
    grids, bases, y = cv_setup(rng, 6)
    y = y + 0.05 * rng.standard_normal(y.shape)
    cfg = SolverConfig(rank=2, seed=4, max_outer_iters=60)
    grid = [(1e-10, 1e-10), (1e-2, 1e-2)]
    labels = _fold_assignment(6, 3, seed=1)
    r1 = cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid, n_folds=3, fold_labels=labels)
    relabel = (labels + 1) % 3
    r2 = cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid, n_folds=3, fold_labels=relabel)
    assert r1.chosen.params == r2.chosen.params
    for a, b in zip(r1.records, r2.records):
        assert a.criterion == pytest.approx(b.criterion, rel=1e-12)


def test_cv_winner_invariant_to_grid_order():
    rng = np.random.default_rng(10)
    grids, bases, y = cv_setup(rng, 6)
    y = y + 0.05 * rng.standard_normal(y.shape)
    cfg = SolverConfig(rank=2, seed=4, max_outer_iters=60)
    grid = [(1e-10, 1e-10), (1e-3, 1e-3), (1.0, 1.0)]
    r1 = cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid, n_folds=3, seed=5)
    r2 = cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid[::-1], n_folds=3, seed=5)
    assert r1.chosen.params == r2.chosen.params


def test_cv_centered_criteria_invariant_to_an_offset():
    # centering removes each training fold's mean, so a constant offset of
    # the data changes no criterion; without centering it does
    rng = np.random.default_rng(13)
    grids, bases, y = cv_setup(rng, 6)
    y = y + 0.05 * rng.standard_normal(y.shape)
    cfg = SolverConfig(rank=2, seed=4, max_outer_iters=60)
    grid = [(1e-10, 1e-10), (1e-3, 1e-3)]

    def crit(data, center):
        report = cv_lambda_grid(data, grids, bases, [2, 2], cfg, grid, n_folds=3, seed=5, center=center)
        return np.array([r.criterion for r in report.records])

    ref = crit(y, True)
    assert np.max(np.abs(crit(y + 3.0, True) - ref) / ref) <= 1e-9
    assert np.min(np.abs(crit(y + 3.0, False) - ref) / ref) > 1e-3


def test_cv_validates_folds():
    rng = np.random.default_rng(11)
    grids, bases, y = cv_setup(rng, 4)
    cfg = SolverConfig(rank=1, seed=0)
    with pytest.raises(ValueError, match="n_folds"):
        cv_lambda_grid(y, grids, bases, [2, 2], cfg, [(0, 0)], n_folds=5)
    with pytest.raises(ValueError, match="empty"):
        cv_lambda_grid(y, grids, bases, [2, 2], cfg, [], n_folds=2)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"n_folds": 5}, "n_folds"),
        ({"n_folds": 1}, "n_folds"),
        ({"n_folds": 2, "fold_labels": [0, 0, 0, 0]}, "fold_labels"),
        ({"n_folds": 2, "lambda_grid": []}, "empty"),
    ],
    ids=["too_many_folds", "one_fold", "fold_labels", "empty_grid"],
)
def test_cv_checks_folds_before_reducing(monkeypatch, kwargs, match):
    def forbidden(*args, **kw):
        raise AssertionError("the sample was reduced before the fold settings were checked")

    monkeypatch.setattr(reduction, "prepare", forbidden)
    grids, bases, y = cv_setup(np.random.default_rng(12), 4)
    kwargs = {"lambda_grid": [(0, 0)], **kwargs}
    with pytest.raises(ValueError, match=match):
        cv_lambda_grid(y, grids, bases, [2, 2], SolverConfig(rank=1, seed=0), **kwargs)


def test_report_csv_round_trip(tmp_path):
    report = SelectionReport(
        kind="cv_error",
        records=[
            SelectionRecord(params={"a": 1.0, "b": 2.0}, criterion=0.5),
            SelectionRecord(params={"a": 2.0, "b": 1.0}, criterion=0.25, chosen=True),
        ],
    )
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,criterion,chosen"
    assert len(lines) == 3
    assert lines[2].endswith(",1")
    assert report.chosen.criterion == 0.25


def test_cv_reduces_once_and_projects_in_compressed_coordinates(monkeypatch):
    # one compression per sweep, one fit per cell, and no grid-sized
    # projection: neither MPBModel.project nor an MTTKRP runs
    from mpbasis import model as model_mod
    from mpbasis import selection, tensors

    calls = {"compress": 0, "fit_mpb": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("grid-sized projection during cross validation")

    monkeypatch.setattr(reduction, "compress", counted("compress", reduction.compress))
    monkeypatch.setattr(selection, "fit_mpb", counted("fit_mpb", selection.fit_mpb))
    monkeypatch.setattr(model_mod.MPBModel, "project", forbidden)
    for owner in (tensors, solver, model_mod):
        monkeypatch.setattr(owner, "mttkrp", forbidden)
    rng = np.random.default_rng(14)
    grids, bases, y = cv_setup(rng, 6)
    cfg = SolverConfig(rank=2, seed=4, max_outer_iters=10, coef_penalty="lasso")
    grid = [(1e-10, 1e-4), (1e-3, 1e-3)]
    for center in (False, True):
        calls.update(compress=0, fit_mpb=0)
        cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid, n_folds=3, seed=5, center=center)
        assert calls == {"compress": 1, "fit_mpb": 6}


def grid_reference_criteria(y, grids, bases, cfg, lam_grid, labels, center):
    """Per-cell CV criteria the direct way: fit each training slice of the
    grid tensor, then least squares of the held-out subjects on the
    evaluated basis by numpy's lstsq."""
    from dataclasses import replace

    from mpbasis.pipeline import fit_mpb

    n_folds = labels.max() + 1
    n_grid = int(np.prod(y.shape[:-1]))
    out = []
    for lam_f, lam_c in lam_grid:
        c = replace(cfg, lambda_marginal=lam_f, lambda_coef=lam_c)
        errors = []
        for fold in range(n_folds):
            train, held = y[..., labels != fold], y[..., labels == fold]
            model, _, _ = fit_mpb(train, grids, bases, [2, 2], c, center=center)
            if center:
                held = held - train.mean(axis=-1)[..., None]
            z = T.khatri_rao(model.marginal_values(grids))  # C-order grid rows
            held = held.reshape(n_grid, -1)
            coefs = np.linalg.lstsq(z, held, rcond=None)[0]
            resid = held - z @ coefs
            errors.append(np.mean(np.sum(resid**2, axis=0)) / n_grid)
        out.append(np.mean(errors))
    return np.array(out)


@pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
@pytest.mark.parametrize("penalty", ["ridge", "lasso"])
def test_cv_criteria_match_grid_reference(monkeypatch, penalty, center):
    monkeypatch.setattr(reduction, "SLAB_ENTRIES", 3 * 18 * 2)  # slabs of 2 or 3 grid rows
    rng = np.random.default_rng(15)
    grids, bases, y = cv_setup(rng, 7)
    y = y + 0.05 * rng.standard_normal(y.shape) + 3.0
    cfg = SolverConfig(rank=2, seed=4, max_outer_iters=40, coef_penalty=penalty)
    lam_grid = [(1e-10, 1e-6), (1e-3, 1e-2)]
    labels = _fold_assignment(7, 3, seed=2)
    report = cv_lambda_grid(
        y, grids, bases, [2, 2], cfg, lam_grid, n_folds=3, fold_labels=labels, center=center
    )
    got = np.array([r.criterion for r in report.records])
    ref = grid_reference_criteria(y, grids, bases, cfg, lam_grid, labels, center)
    assert np.max(np.abs(got - ref) / ref) <= 1e-10
