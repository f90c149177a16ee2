"""Hyperparameter selection criteria and the cross-validation harness."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mpbasis import reduction, solver
from mpbasis import tensors as T
from mpbasis.basis import BSplineBasis, FourierBasis
from mpbasis.model import MPBModel
from mpbasis.pipeline import fit_mpb
from mpbasis.reduction import NOISE_FLOOR, compress, factorize, prepare
from mpbasis.selection import (
    NOISE_TOL_SDS,
    SelectionRecord,
    SelectionReport,
    _fold_assignment,
    cv_lambda_grid,
    select_marginal_rank,
    sweep_global_rank,
)
from mpbasis.sim import (
    Gp2dSimConfig, ProductSimConfig, generate_gp2d_sample, generate_product_sample,
)
from mpbasis.sim import mise as sim_mise
from mpbasis.solver import SolverConfig, residual_dof


def decompress(g, facs):
    """Reference: compressed coordinates mapped back to the grid, ``U_d`` per mode."""
    for d, f in enumerate(facs):
        g = T.mode_multiply(g, f.u, d)
    return g


#: Criterion 1's simulation design: Fourier marginals of true rank 11, K = 10.
PRODUCT = ProductSimConfig(
    n_dims=3, marginal_rank=11, true_rank=10, coef_sd=0.3, noise_var=0.5,
    grid_size=30, n_subjects=5, seed=20_240_501,
)
#: Criterion 1's solver settings, which the ``product3d`` workload fits with.
PRODUCT_FIT = SolverConfig(
    rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=400, outer_tol=1e-8, seed=0
)
#: The global ranks tried on criterion 1's design.
PRODUCT_K = [4, 6, 8, 9, 10, 11, 12, 15, 20, 25]


def fourier_candidates(ranks):
    return [[FourierBasis((0.0, 1.0), m) for _ in range(3)] for m in ranks]


def test_select_marginal_rank_refuses_a_candidate_that_spans_the_grid():
    rng = np.random.default_rng(0)
    n = 12
    grids = [np.linspace(0, 1, n)]
    y = rng.standard_normal((n, 4))
    candidates = [[BSplineBasis((0.0, 1.0), 5)], [BSplineBasis((0.0, 1.0), n)]]
    with pytest.raises(ValueError, match=r"candidate ranks \[12\] leave the noise estimate no freedom"):
        select_marginal_rank(y, grids, candidates)


@pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
def test_marginal_criterion_is_the_noise_estimate_of_the_projection(center):
    # the out-of-span energy by the decompress oracle, over N (N - 1 when
    # centered) subjects times prod n_d - prod m_d coordinates
    rng = np.random.default_rng(2)
    grids = [np.linspace(0, 1, 15), np.linspace(0, 1, 14)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 7)]
    y = rng.standard_normal((15, 14, 5)) + 3.0
    got = select_marginal_rank(y, grids, [bases], center=center).records[0].criterion
    if center:
        y = y - y.mean(axis=-1, keepdims=True)
    facs = [factorize(b.evaluate(g)) for b, g in zip(bases, grids)]
    out = np.sum((y - decompress(compress(y, facs), facs)) ** 2)
    assert got == pytest.approx(out / ((5 - center) * (15 * 14 - 6 * 7)), rel=1e-10)


def test_marginal_criterion_makes_no_grid_sized_temporary():
    # an 80 x 70 grid and 40 subjects (1.8 MB), centered: subtracting the
    # mean from a copy of y, or squaring y for its energy, would allocate as
    # much again
    rng = np.random.default_rng(5)
    y = rng.standard_normal((80, 70, 40))
    grids = [np.linspace(0, 1, 80), np.linspace(0, 1, 70)]
    bases = [BSplineBasis((0.0, 1.0), 8), BSplineBasis((0.0, 1.0), 7)]
    tracemalloc.start()
    try:
        got = select_marginal_rank(y, grids, [bases], center=True).records[0].criterion
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * y.nbytes
    ref = prepare(y - y.mean(axis=-1, keepdims=True), grids, bases).noise_var
    assert got == pytest.approx(ref * 40 / 39, rel=1e-10)


def test_marginal_criterion_reduces_through_prepare_and_centered(monkeypatch):
    # one reduction path: prepare without penalty orders, then centered by
    # the data, once per candidate, with no factorization of its own
    bases, grids, y = small_problem(np.random.default_rng(3))
    candidates = [bases, [BSplineBasis((0.0, 1.0), 7), FourierBasis((0.0, 1.0), 7)]]
    calls, prep = [], reduction.prepare
    data, centered = [], reduction.PreparedProblem.centered

    def recording_prepare(*args, **kwargs):
        calls.append((args, kwargs))
        return prep(*args, **kwargs)

    def recording_centered(self, y):
        data.append(y)
        return centered(self, y)

    monkeypatch.setattr(reduction, "prepare", recording_prepare)
    monkeypatch.setattr(reduction.PreparedProblem, "centered", recording_centered)
    report = select_marginal_rank(y, grids, candidates, center=True)
    assert [len(a) for a, _ in calls] == [3, 3] and not any(kw for _, kw in calls)
    assert len(data) == 2 and all(d is y for d in data)
    for record, cand in zip(report.records, candidates):
        assert record.criterion == centered(prep(y, grids, cand), y).noise_var


def test_marginal_criterion_zero_norm_raises():
    with pytest.raises(ValueError, match="zero norm"):
        select_marginal_rank(
            np.zeros((10, 2)), [np.linspace(0, 1, 10)], [[BSplineBasis((0.0, 1.0), 5)]]
        )


def test_marginal_criterion_energy_nonincreasing_along_nested_refinement():
    # dyadic interior-knot refinement gives nested spline spaces, so the
    # energy outside the span, criterion times its degrees of freedom, falls
    rng = np.random.default_rng(3)
    n = 65
    grids = [np.linspace(0, 1, n)]
    y = rng.standard_normal((n, 6))
    ranks = [4 + j for j in (0, 1, 3, 7, 15)]  # interior knots 0,1,3,7,15
    report = select_marginal_rank(y, grids, [[BSplineBasis((0.0, 1.0), m)] for m in ranks])
    energy = [r.criterion * 6 * (n - m) for r, m in zip(report.records, ranks)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energy, energy[1:]))


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
    report = select_marginal_rank(y, grids, candidates)
    assert report.kind == "noise_var"
    # rank 7 is the generating space, the first candidate containing the
    # data: its out-of-span energy is rounding, and its criterion reads 0
    assert report.chosen.params == {"rank_0": 7, "rank_1": 7}
    assert report.chosen.criterion == 0.0
    assert len(report.records) == 5
    assert min(r.criterion for r in report.records[:2]) > 0.0


def test_select_marginal_rank_takes_the_smallest_candidate_on_white_noise():
    # no signal: every candidate's criterion estimates the same variance
    rng = np.random.default_rng(6)
    grids = [np.linspace(0, 1, 30)] * 2
    y = rng.standard_normal((30, 30, 3))
    candidates = [[BSplineBasis((0.0, 1.0), r)] * 2 for r in (4, 8, 6)]
    report = select_marginal_rank(y, grids, candidates)
    assert [r.chosen for r in report.records] == [True, False, False]
    assert all(r.criterion == pytest.approx(1.0, rel=0.1) for r in report.records)


def test_select_marginal_rank_finds_the_true_fourier_rank_of_criterion_1():
    # replications 0-9, Fourier candidates 5-21: the criterion drops to the
    # noise variance 0.5 at the true rank 11 and stays there
    ranks = list(range(5, 22, 2))
    picked = []
    for rep in range(10):
        sample = generate_product_sample(PRODUCT, replication=rep)
        report = select_marginal_rank(sample.noisy, sample.grids, fourier_candidates(ranks))
        crit = [r.criterion for r in report.records]
        i = next(i for i, r in enumerate(report.records) if r.chosen)
        dof = [5 * (30**3 - m**3) for m in ranks]
        tol = [1 + NOISE_TOL_SDS * np.sqrt(2 / d) for d in dof]
        assert crit[i] <= tol[i] * min(crit)
        assert all(c > t * min(crit) for c, t in zip(crit[:i], tol[:i]))
        picked.append(report.chosen.params["rank_0"])
    assert sum(m == 11 for m in picked) >= 9, picked


def test_select_marginal_rank_finds_the_gp2d_spline_ranks():
    # noise-free fields in the span of (10, 8) cubic splines: that candidate
    # alone reads at rounding level; the others are not nested in it
    cfg = Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=0, seed=42)
    pairs = [(6, 5), (8, 6), (10, 8), (12, 10), (16, 14)]
    candidates = [[BSplineBasis((0.0, 1.0), a), BSplineBasis((0.0, 1.0), b)] for a, b in pairs]
    for rep in range(5):
        s = generate_gp2d_sample(cfg, replication=rep)
        report = select_marginal_rank(s.train, s.grids, candidates)
        assert report.chosen.params == {"rank_0": 10, "rank_1": 8}
        if rep <= 2:
            assert [r.criterion == 0.0 for r in report.records] == [p == (10, 8) for p in pairs]


def test_select_marginal_rank_centered_choice_ignores_an_offset():
    sample = generate_product_sample(PRODUCT, replication=0)
    candidates = fourier_candidates([7, 9, 11, 13])
    ref = select_marginal_rank(sample.noisy, sample.grids, candidates, center=True)
    got = select_marginal_rank(sample.noisy + 3.0, sample.grids, candidates, center=True)
    assert got.chosen.params == ref.chosen.params == {"rank_0": 11, "rank_1": 11, "rank_2": 11}
    for g, r in zip(got.records, ref.records):
        assert g.criterion == pytest.approx(r.criterion, rel=1e-9)


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


def signal_problem(rng):
    """The small problem's geometry with a rank-2 signal in the span of its
    bases, noise of sd 0.1 and an offset of 3: the offset takes one more
    component unless the fit is centered."""
    bases, grids, _ = small_problem(rng)
    coefs = [rng.standard_normal((b.rank, 2)) for b in bases]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=rng.standard_normal((6, 2)))
    noise = 0.1 * rng.standard_normal((14, 11, 6))
    return bases, grids, model.evaluate_subjects(grids) + noise + 3.0


def refuse_fits(*args, **kwargs):
    raise AssertionError("solver.fit was called")


def refuse_prepare(*args, **kwargs):
    raise AssertionError("the data was reduced before the settings were checked")


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
        # white noise: both paths meet the ridge fit's noise level at once
        sweep = sweep_global_rank(y, grids, bases, [2, 2], cfg, [1, 2, 3])
        assert sweep.chosen.params == {"rank": 1}
        assert len(fits) == 3  # the ranks after the first start warm
        for record, (_, state) in zip(sweep.records, fits):
            assert record.criterion == pytest.approx(direct_sq(state) / np.sum(g**2), rel=1e-12)


def test_residual_is_formed_once_per_objective(monkeypatch):
    # one residual per sweep plus the starting objective; none after a fit. The
    # sweep forms its residual inline, so each objective it records counts one
    bases, grids, y = small_problem(np.random.default_rng(8))
    prepared = prepare(y, grids, bases, [2, 2])
    cfg = SolverConfig(rank=2, lambda_coef=1e-6, max_outer_iters=7)
    calls = []
    for name in ("residual_sq", "_objective_value"):
        func = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, f=func: calls.append(1) or f(*a))
    _, state, _ = fit_mpb(prepared, grids, bases, [2, 2], cfg)
    assert len(calls) == state.iters + 1
    del calls[:]
    fits = record_fits(monkeypatch, calls)
    sweep_global_rank(y, grids, bases, [2, 2], cfg, [1, 2, 3])
    starts = [start for start, _ in fits] + [len(calls)]
    assert np.diff(starts).tolist() == [state.iters + 1 for _, state in fits]


def test_zero_data_is_refused_before_fitting(monkeypatch):
    bases, grids, y = small_problem(np.random.default_rng(9))
    monkeypatch.setattr(solver, "fit", refuse_fits)
    cfg = SolverConfig(rank=2)
    with pytest.raises(ValueError, match="zero norm"):
        fit_mpb(np.zeros_like(y), grids, bases, [2, 2], cfg)
    with pytest.raises(ValueError, match="zero norm"):
        sweep_global_rank(np.zeros_like(y), grids, bases, [2, 2], cfg, [1, 2])


def test_centering_refuses_a_single_subject():
    # the mean of one subject is that subject; each path used to fail with a
    # message naming another cause (zero norm, no noise freedom)
    bases, grids, y = small_problem(np.random.default_rng(11))
    one, cfg = y[..., :1], SolverConfig(rank=1)
    calls = [
        lambda: prepare(one, grids, bases, [2, 2]).centered(one),
        lambda: fit_mpb(one, grids, bases, [2, 2], cfg, center=True),
        lambda: sweep_global_rank(one, grids, bases, [2, 2], cfg, [1, 2], center=True),
        lambda: select_marginal_rank(one, grids, [bases], center=True),
        # 2 subjects in 2 folds: one training subject per fold
        lambda: cv_lambda_grid(y[..., :2], grids, bases, [2, 2], cfg, [(0, 0)], 2, center=True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="centering needs at least two subjects"):
            call()


def test_sweep_global_rank_refuses_an_empty_grid(monkeypatch):
    monkeypatch.setattr(reduction, "prepare", refuse_prepare)
    bases, grids, y = small_problem(np.random.default_rng(10))
    with pytest.raises(ValueError, match="k_grid must be strictly increasing integers >= 1"):
        sweep_global_rank(y, grids, bases, [2, 2], SolverConfig(rank=1), [])


@pytest.mark.parametrize(
    "k_grid, match",
    [
        ([1.7, 2.2], "k_grid must be an integer, got 1.7"),
        (["x"], "k_grid must be an integer"),
        ([True, 2], "k_grid must be an integer"),
        ([0, 1], "k_grid must be strictly increasing integers >= 1"),
        ([2, 1], "k_grid must be strictly increasing integers >= 1"),
        ([2, 2], "k_grid must be strictly increasing integers >= 1"),
    ],
)
def test_sweep_global_rank_refuses_a_bad_rank_grid_before_fitting(monkeypatch, k_grid, match):
    # a non-integral rank used to be truncated: [1.7, 2.2] fitted ranks 1 and 2
    monkeypatch.setattr(reduction, "prepare", refuse_prepare)
    monkeypatch.setattr(solver, "fit", refuse_fits)
    bases, grids, y = small_problem(np.random.default_rng(10))
    with pytest.raises(ValueError, match=match):
        sweep_global_rank(y, grids, bases, [2, 2], SolverConfig(rank=1), k_grid)


def test_sweep_global_rank_takes_integral_numbers():
    bases, grids, y = small_problem(np.random.default_rng(10))
    cfg = SolverConfig(rank=1, seed=0, max_outer_iters=5)
    whole = sweep_global_rank(y, grids, bases, [2, 2], cfg, [1.0, np.int64(2)])
    ref = sweep_global_rank(y, grids, bases, [2, 2], cfg, [1, 2])
    assert [r.params for r in whole.records] == [{"rank": 1}, {"rank": 2}]
    assert [type(r.params["rank"]) for r in whole.records] == [int, int]
    assert [r.criterion for r in whole.records] == [r.criterion for r in ref.records]


def test_sweep_global_rank_monotone_with_warm_start():
    bases, grids, y = small_problem(np.random.default_rng(6))
    cfg = SolverConfig(rank=1, seed=0, max_outer_iters=60, lambda_coef=1e-10)
    report = sweep_global_rank(y, grids, bases, [2, 2], cfg, k_grid=[1, 2, 4, 6])
    values = [r.criterion for r in report.records]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
    assert report.kind == "normalized_residual"


@pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
def test_sweep_global_rank_is_the_prepare_centered_warm_started_path(center):
    # the records and the choice are bit-identical to reducing by prepare,
    # centering by the data and fitting each rank warm-started, each fit
    # stopping at its rank's noise target; the rank is the first whose
    # residual is within sampling error of that target
    bases, grids, y = signal_problem(np.random.default_rng(16))
    cfg = SolverConfig(rank=1, seed=2, max_outer_iters=25, lambda_marginal=1e-6, lambda_coef=1e-6)
    k_grid = [1, 2, 3, 4]
    report = sweep_global_rank(y, grids, bases, [2, 2], cfg, k_grid, center=center)
    prepared = prepare(y, grids, bases, [2, 2])
    if center:
        prepared = prepared.centered(y)
    *ms, n = prepared.g_hat.shape
    g_norm_sq, state, ref, fits = float(np.sum(prepared.g_hat**2)), None, [], []
    for k in k_grid:
        cfg_k = replace(cfg, rank=k)
        target = prepared.noise_target(cfg_k)
        assert target == prepared.noise_var * residual_dof((*ms, n - center), k)
        state = solver.fit(
            prepared.g_hat, prepared.t_mats, cfg_k, initial_state=state, noise_target=target
        )
        ref.append(state.residual_sq / g_norm_sq)
        tol = 1 + NOISE_TOL_SDS * np.sqrt(2 / residual_dof((*ms, n - center), k))
        fits.append(state.residual_sq <= tol * target + NOISE_FLOOR * g_norm_sq)
    assert [r.criterion for r in report.records] == ref
    # the rank-2 signal, and without centering the offset as one more component
    assert report.chosen.params == {"rank": k_grid[fits.index(True)]} == {"rank": 3 - center}


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
    cfg = SolverConfig(
        rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=50, outer_tol=1e-8,
        seed=0,
    )
    report = sweep_global_rank(sample.noisy, sample.grids, bases, [2, 2, 2], cfg, [5, 10, 25])
    values = [r.criterion for r in report.records]
    assert values[0] >= values[1] >= values[2] > 0


def _mise_per_subject(sample, bases, k):
    cfg = replace(PRODUCT_FIT, rank=k)
    model, _, _ = fit_mpb(sample.noisy, sample.grids, bases, [2, 2, 2], cfg)
    est = model.evaluate_subjects(sample.grids)
    return float(sim_mise(sample.truth, est, sample.grids)) / PRODUCT.n_subjects


@pytest.mark.parametrize("m", [15, 11])
def test_sweep_global_rank_finds_the_true_rank_of_criterion_1(m):
    # replications 0-9 at criterion 1's Fourier rank 15 and at the true rank
    # 11: K = 10 on at least 9, and a chosen fit close to the K = 10 fit's
    # MISE and well below the K = 25 fit's
    bases = fourier_candidates([m])[0]
    picked = []
    for rep in range(10):
        sample = generate_product_sample(PRODUCT, replication=rep)
        report = sweep_global_rank(
            sample.noisy, sample.grids, bases, [2, 2, 2], PRODUCT_FIT, PRODUCT_K
        )
        k = report.chosen.params["rank"]
        picked.append(k)
        at_10 = _mise_per_subject(sample, bases, 10)
        chosen = at_10 if k == 10 else _mise_per_subject(sample, bases, k)
        assert chosen <= 1.5 * at_10 and chosen < 0.5 * _mise_per_subject(sample, bases, 25)
    assert sum(k == 10 for k in picked) >= 9, picked


def test_sweep_global_rank_takes_the_gp2d_rank_at_rounding_level():
    # noise-free fields: no noise estimate, so no fit stops early and the
    # rank is the first whose residual is at most NOISE_FLOOR |g_hat|^2;
    # K = 25 leaves 2e-8 to 4e-8 of it and K = 30, criterion 2's rank, 1e-9
    cfg = Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=0, seed=42)
    for rep in range(3):
        s = generate_gp2d_sample(cfg, replication=rep)
        fit_cfg = SolverConfig(
            rank=30, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=300,
            outer_tol=1e-10, seed=rep,
        )
        k_grid = [4, 8, 12, 16, 20, 25, 30]
        report = sweep_global_rank(s.train, s.grids, s.bases, [2, 2], fit_cfg, k_grid)
        assert report.chosen.params == {"rank": 30}
        assert report.records[-2].criterion > NOISE_FLOOR >= report.records[-1].criterion


def test_sweep_global_rank_centered_choice_ignores_an_offset():
    sample = generate_product_sample(PRODUCT, replication=0)
    bases = fourier_candidates([11])[0]
    k_grid = [8, 9, 10, 11]
    ref, got = (
        sweep_global_rank(y, sample.grids, bases, [2, 2, 2], PRODUCT_FIT, k_grid, center=True)
        for y in (sample.noisy, sample.noisy + 3.0)
    )
    assert got.chosen.params == ref.chosen.params == {"rank": 10}


def test_a_lasso_rank_path_passes_no_stop_target(monkeypatch):
    # as in fit_mpb, a lasso fit has no noise target to stop at; the choice
    # still compares each residual with the ridge fit's noise target, so the
    # path picks the rank of the signal and the offset, as the ridge path does
    bases, grids, y = signal_problem(np.random.default_rng(16))
    targets, fit = [], solver.fit

    def recording_fit(*args, **kwargs):
        targets.append(kwargs.get("noise_target", "absent"))
        return fit(*args, **kwargs)

    monkeypatch.setattr(solver, "fit", recording_fit)
    cfg = SolverConfig(rank=1, seed=0, max_outer_iters=30, lambda_coef=1e-3, coef_penalty="lasso")
    report = sweep_global_rank(y, grids, bases, [2, 2], cfg, [1, 2, 3, 4])
    assert targets == [None] * 4
    assert report.chosen.params == {"rank": 3}
    del targets[:]
    ridge_cfg = replace(cfg, coef_penalty="ridge")
    ridge = sweep_global_rank(y, grids, bases, [2, 2], ridge_cfg, [1, 2, 3, 4])
    prepared = prepare(y, grids, bases, [2, 2])
    assert targets == [prepared.noise_target(replace(ridge_cfg, rank=k)) for k in (1, 2, 3, 4)]
    assert ridge.chosen.params == {"rank": 3}  # the signal and the offset


def test_a_lasso_rank_path_at_zero_weight_is_the_ridge_path():
    # at lambda_coef = 0 the lasso block does not run, so each fit stops at
    # the ridge fit's noise target and the path picks the ridge path's K
    sample = generate_product_sample(PRODUCT, replication=0)
    bases = fourier_candidates([15])[0]
    ridge_cfg = replace(PRODUCT_FIT, lambda_coef=0.0)
    ridge, lasso = (
        sweep_global_rank(sample.noisy, sample.grids, bases, [2, 2, 2], cfg, PRODUCT_K)
        for cfg in (ridge_cfg, replace(ridge_cfg, coef_penalty="lasso"))
    )
    assert [r.criterion for r in lasso.records] == [r.criterion for r in ridge.records]
    assert lasso.chosen.params == ridge.chosen.params == {"rank": 10}


def test_a_lasso_rank_path_chooses_at_the_ridge_noise_level():
    # criterion 1's replication 0: the lasso fits have no stop target, and
    # used to reach no noise level at any K and take K = 25 with a warning
    sample = generate_product_sample(PRODUCT, replication=0)
    cfg = replace(PRODUCT_FIT, lambda_coef=1e-3, coef_penalty="lasso")
    bases = fourier_candidates([15])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = sweep_global_rank(sample.noisy, sample.grids, bases, [2, 2, 2], cfg, PRODUCT_K)
    assert report.chosen.params == {"rank": 10}


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
        ({"n_folds": 2, "lambda_grid": []}, "empty"),
        ({"n_folds": 2.5}, "n_folds must be an integer, got 2.5"),
        ({"n_folds": "2"}, "n_folds must be an integer"),
        ({"n_folds": 2, "lambda_grid": [(0, "x")]}, "lambda_coef must be finite and >= 0, got 'x'"),
        ({"n_folds": 2, "lambda_grid": [(0, 0), (-1.0, 0)]}, "lambda_marginal must be finite"),
        ({"n_folds": 2, "lambda_grid": [(0, 0), (0, np.nan)]}, "lambda_coef must be finite"),
        ({"n_folds": 2, "lambda_grid": [(0, 0, 0)]}, "lambda_grid must be a nonempty list"),
        ({"n_folds": 2, "lambda_grid": [1e-6, 1e-6]}, "lambda_grid must be a nonempty list"),
        ({"n_folds": 2, "lambda_grid": "x"}, "lambda_grid must be a nonempty list"),
        ({"n_folds": 2, "lambda_grid": [[[0.5], 0.0]]}, "lambda_grid must be a nonempty list"),
    ],
    ids=[
        "too_many_folds", "one_fold", "empty_grid", "fractional_folds", "string_folds",
        "string_weight", "negative_weight_in_a_later_cell", "nan_weight_in_a_later_cell",
        "triple", "flat_grid", "string_grid", "list_weight",
    ],
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
    spans, span_sq = [], reduction.out_of_span_sq
    monkeypatch.setattr(reduction, "out_of_span_sq", lambda *a: spans.append(a) or span_sq(*a))
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
        spans.clear()
        cv_lambda_grid(y, grids, bases, [2, 2], cfg, grid, n_folds=3, seed=5, center=center)
        assert calls == {"compress": 1, "fit_mpb": 6}
        # one pass over the sample serves uncentered folds; centered ones differ per fold
        assert len(spans) == (3 if center else 1)


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
    report = cv_lambda_grid(
        y, grids, bases, [2, 2], cfg, lam_grid, n_folds=3, seed=2, center=center
    )
    got = np.array([r.criterion for r in report.records])
    labels = _fold_assignment(7, 3, seed=2)  # the folds that seed 2 gives
    ref = grid_reference_criteria(y, grids, bases, cfg, lam_grid, labels, center)
    assert np.max(np.abs(got - ref) / ref) <= 1e-10
