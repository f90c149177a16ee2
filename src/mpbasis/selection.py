"""Data-driven hyperparameter selection: basis ranks, decomposition rank and
penalty weights.

Every criterion reduces the data as :func:`fit_mpb` does, by
:func:`reduction.prepare` and, with ``center``,
:meth:`reduction.PreparedProblem.centered`. Both ranks are read off the noise
level of that reduction: the marginal ranks from the noise variance outside
the span of each candidate's compression, with no solver run; the global rank
as the smallest whose fit reaches the ridge fit's noise target. Penalty weights
are chosen by subject-held-out cross validation over a 2-d grid of (marginal,
coefficient) weights.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import reduction, solver
from .jsonspec import as_int
from .pipeline import fit_mpb
from .solver import SolverConfig

__all__ = [
    "SelectionRecord",
    "SelectionReport",
    "select_marginal_rank",
    "sweep_global_rank",
    "cv_lambda_grid",
]

#: Sampling standard deviations, sqrt(2 / dof) relative, by which a noise
#: estimate may exceed the smallest over the candidates in
#: :func:`select_marginal_rank`, and a residual its noise target in :func:`sweep_global_rank`.
NOISE_TOL_SDS = 2.0


@dataclass
class SelectionRecord:
    params: dict
    criterion: float
    chosen: bool = False


@dataclass
class SelectionReport:
    kind: str  # one of "noise_var", "normalized_residual", "cv_error"
    records: list[SelectionRecord]

    @property
    def chosen(self) -> SelectionRecord:
        picked = [r for r in self.records if r.chosen]
        if len(picked) != 1:
            raise ValueError(f"expected exactly one chosen record, found {len(picked)}")
        return picked[0]

    def write_csv(self, path) -> None:
        keys = sorted({k for r in self.records for k in r.params})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*keys, "criterion", "chosen"])
            for r in self.records:
                writer.writerow(
                    [*(r.params.get(k, "") for k in keys), repr(r.criterion), int(r.chosen)]
                )


def select_marginal_rank(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    candidates: Sequence[Sequence],
    center: bool = False,
) -> SelectionReport:
    """Choose the smallest candidate basis system that holds the signal.

    ``candidates`` is a list of basis lists ordered from smallest to largest.
    Each is reduced as :func:`fit_mpb` reduces data, and its criterion is
    its noise estimate σ̂² (``PreparedProblem.noise_var``), or 0 where the
    energy outside its span is at rounding level (noise-free data). The
    first candidate at rounding level is chosen; otherwise the first whose
    σ̂² is at most ``1 + NOISE_TOL_SDS * sqrt(2 / noise_dof)`` times the
    smallest: once a candidate holds the signal, its σ̂² estimates the
    white-noise variance. A candidate that leaves no degrees of freedom
    (``prod m_d = prod n_d``) raises ``ValueError``.
    """
    if not candidates:
        raise ValueError("need at least one candidate basis system")
    records, tols = [], []
    for bases in candidates:
        prepared = reduction.prepare(y, grids, bases)
        prepared = prepared.centered(y) if center else prepared
        ranks, dof = [b.rank for b in bases], prepared.noise_dof
        if dof == 0:
            raise ValueError(f"candidate ranks {ranks} leave the noise estimate no freedom")
        tols.append(1.0 + NOISE_TOL_SDS * math.sqrt(2.0 / dof))
        params = {f"rank_{d}": r for d, r in enumerate(ranks)}
        records.append(SelectionRecord(params=params, criterion=prepared.noise_var or 0.0))
    least = min(r.criterion for r in records)
    next(r for r, tol in zip(records, tols) if r.criterion <= tol * least).chosen = True
    return SelectionReport(kind="noise_var", records=records)


def sweep_global_rank(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int],
    config: SolverConfig,
    k_grid: Sequence[int],
    center: bool = False,
) -> SelectionReport:
    """Choose the decomposition rank at the noise level of the data reduced
    as :func:`fit_mpb` reduces it.

    Each fit after the first is warm-started from the previous one:
    :func:`solver.fit` completes it to the larger rank with components that
    leave its tensor unchanged. Each fit stops at the noise level, as
    :func:`fit_mpb`'s does, at :meth:`reduction.PreparedProblem.noise_target`,
    which is None when the lasso block runs (``SolverConfig.lasso_block``).
    The chosen rank is the smallest whose residual ``SolverState.residual_sq``
    is at most ``(1 + NOISE_TOL_SDS * sqrt(2 / dof_K)) * target_K +
    NOISE_FLOOR * |g_hat|^2``, with ``target_K`` the ridge fit's noise target
    for every penalty and ``dof_K = target_K / noise_var``: the expected
    white-noise energy a rank-K fit leaves within sampling error, and on
    noise-free data (no target) rounding level. With no such rank the
    largest is chosen with a warning. The criterion recorded is the
    normalized residual, as ``FitReport.residual_ratio``. A ``k_grid`` that
    is not strictly increasing integers >= 1 raises ``ValueError``.
    """
    k_grid = [as_int(k, "k_grid") for k in k_grid]
    if not k_grid or k_grid[0] < 1 or sorted(set(k_grid)) != k_grid:
        raise ValueError(f"k_grid must be strictly increasing integers >= 1, got {k_grid!r}")
    prepared = reduction.prepare(y, grids, bases, penalty_orders)
    prepared = prepared.centered(y) if center else prepared
    g_hat, noise_var, g_norm_sq = prepared.g_hat, prepared.noise_var, prepared.g_hat_sq
    records, state, chosen = [], None, None
    for i, k in enumerate(k_grid):
        cfg = replace(config, rank=k)
        target = prepared.noise_target(replace(cfg, coef_penalty="ridge"))
        stop = prepared.noise_target(cfg)
        state = solver.fit(g_hat, prepared.t_mats, cfg, initial_state=state, noise_target=stop)
        records.append(SelectionRecord(params={"rank": k}, criterion=state.residual_sq / g_norm_sq))
        bound = reduction.NOISE_FLOOR * g_norm_sq
        if target is not None:  # noise_var * dof_K within NOISE_TOL_SDS * noise_var * sqrt(2 dof_K)
            bound += target + NOISE_TOL_SDS * math.sqrt(2.0 * noise_var * target)
        if chosen is None and state.residual_sq <= bound:
            chosen = i
    if chosen is None:
        chosen = len(records) - 1
        warnings.warn("no rank reached the noise level; choosing the largest", RuntimeWarning)
    records[chosen].chosen = True
    return SelectionReport(kind="normalized_residual", records=records)


def _fold_assignment(n_subjects: int, n_folds: int, seed: int) -> np.ndarray:
    """Deterministic round-robin fold labels after a seeded shuffle."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_subjects)
    labels = np.empty(n_subjects, dtype=int)
    labels[perm] = np.arange(n_subjects) % n_folds
    return labels


#: The (marginal, coefficient) weights :func:`cv_lambda_grid` tries by
#: default: every pair of 10^-10, 10^-8, ..., 10^-2.
DEFAULT_LAMBDA_GRID = tuple(
    (10.0**a, 10.0**b) for a in np.linspace(-10, -2, 5) for b in np.linspace(-10, -2, 5)
)


def _is_weight_pair(pair) -> bool:
    """Whether ``pair`` is a sequence of two entries neither of which is a
    sequence; :class:`SolverConfig` then checks each weight by name."""
    seqs = (list, tuple, np.ndarray)
    return isinstance(pair, seqs) and len(pair) == 2 and not any(isinstance(w, seqs) for w in pair)


def cv_lambda_grid(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int],
    config: SolverConfig,
    lambda_grid: Sequence[tuple[float, float]] = DEFAULT_LAMBDA_GRID,
    n_folds: int = 5,
    seed: int = 0,
    center: bool = False,
) -> SelectionReport:
    """Choose (marginal, coefficient) penalty weights by cross validation.

    Subjects are dealt round robin into folds after a shuffle drawn from
    ``seed``, so the seed alone fixes the folds. For each grid point and
    fold, the model is fitted on the training subjects and the held-out
    subjects are projected onto the fitted product basis; the criterion is
    the mean squared residual per tensor entry, averaged over held-out
    subjects and folds. Ties go to the larger weights. With ``center``, each
    training fold's mean is removed from it and from its held-out subjects.

    The sample is reduced once, by :func:`reduction.prepare`: compression is
    linear per subject, so each fold's training problem is a slice of the
    compressed tensor, fitted by :func:`fit_mpb` without a second reduction.
    Each subject's residual outside the span of the compression
    (:func:`reduction.out_of_span_sq`) is formed in one pass over the whole
    sample, or, with ``center``, per fold, after the fold takes its training
    problem's ``mean`` off its copy of the held-out data, as
    :meth:`MPBModel.project` does with its input. Every cell projects the
    held-out subjects in compressed coordinates by the QR least-squares
    solve of :func:`reduction.lstsq_compressed`.
    """
    y, grids = reduction.check_inputs(y, grids, bases, penalty_orders)
    n_subjects, n_folds = y.shape[-1], as_int(n_folds, "n_folds")
    if not 2 <= n_folds <= n_subjects:
        raise ValueError(f"n_folds must lie in [2, {n_subjects}]")
    if not lambda_grid or not all(map(_is_weight_pair, lambda_grid)):
        raise ValueError(f"lambda_grid must be a nonempty list of pairs, got {lambda_grid!r}")
    # SolverConfig checks each weight by name before any fit
    cells = [replace(config, lambda_marginal=f, lambda_coef=c) for f, c in lambda_grid]
    labels = _fold_assignment(n_subjects, n_folds, seed)
    prepared = reduction.prepare(y, grids, bases, penalty_orders)
    if not center:  # each subject's own: one pass over the sample serves every fold
        out_sq = reduction.out_of_span_sq(y, prepared.facs, prepared.g_hat)
    folds = []  # (training problem, held-out compressed tensor, out-of-span energies)
    for fold in range(n_folds):
        in_train = labels != fold
        train = prepared.subjects(in_train)
        held_g = prepared.g_hat[..., ~in_train]
        if center:
            held_y = y[..., ~in_train]  # a copy, which centering changes in place
            held_g -= train.g_hat.mean(axis=-1, keepdims=True)
            train = train.centered(y[..., in_train])
            held_y -= train.mean[..., None]
            held_sq = reduction.out_of_span_sq(held_y, prepared.facs, held_g)
        else:
            held_sq = out_sq[~in_train]
        folds.append((train, held_g, held_sq))
    n_entries = int(np.prod(y.shape[:-1]))
    records = []
    for cfg, (lam_f, lam_c) in zip(cells, lambda_grid):
        errors = []
        for train, held_g, held_sq in folds:
            _, state, _ = fit_mpb(train, grids, bases, penalty_orders, cfg)
            _, resid_sq = reduction.lstsq_compressed(
                held_g,
                state.c_tilde,
                held_sq,
                "fitted product basis is numerically dependent; "
                "held-out projection is not unique",
            )
            errors.append(float(np.mean(resid_sq)) / n_entries)
        err = float(np.mean(errors))
        records.append(
            SelectionRecord(params={"lambda_marginal": lam_f, "lambda_coef": lam_c}, criterion=err)
        )
    # the smallest criterion wins; ties go to the larger weights
    keys = [(r.criterion, -lam_f, -lam_c) for r, (lam_f, lam_c) in zip(records, lambda_grid)]
    records[keys.index(min(keys))].chosen = True
    return SelectionReport(kind="cv_error", records=records)
