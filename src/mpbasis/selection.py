"""Data-driven hyperparameter selection: basis ranks, decomposition rank and
penalty weights.

Three criteria are provided. The marginal-rank criterion measures the share
of data energy captured by the compression onto candidate basis systems and
can be evaluated without running the solver. The global-rank criterion is the
normalized residual of a fitted decomposition. Penalty weights are chosen by
subject-held-out cross validation over a 2-d grid of (marginal, coefficient)
weights.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import reduction, solver
from .pipeline import fit_mpb
from .solver import SolverConfig

__all__ = [
    "SelectionRecord",
    "SelectionReport",
    "marginal_rank_criterion",
    "select_marginal_rank",
    "sweep_global_rank",
    "cv_lambda_grid",
]


@dataclass
class SelectionRecord:
    params: dict
    criterion: float
    chosen: bool = False


@dataclass
class SelectionReport:
    kind: str  # one of "marginal_variance", "normalized_residual", "cv_error"
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


def marginal_rank_criterion(
    y: np.ndarray, bases: Sequence, grids: Sequence[np.ndarray]
) -> float:
    """Fraction of data energy captured by compression onto the given bases.

    Equals the squared norm of the compressed tensor over the squared norm of
    the data, a number in [0, 1] that grows toward 1 as the basis ranks
    approach the grid sizes.
    """
    y, grids = reduction.check_inputs(y, grids, bases)
    flat = y.ravel(order="K")  # a view unless y is a strided slice
    y_norm_sq = float(flat @ flat)
    if y_norm_sq == 0.0:
        raise ValueError("data tensor has zero norm")
    facs = [
        reduction.factorize(b.evaluate(g), dim=d) for d, (b, g) in enumerate(zip(bases, grids))
    ]
    g_hat = reduction.compress(y, facs)
    ratio = float(np.sum(g_hat**2)) / y_norm_sq
    return min(ratio, 1.0)


def select_marginal_rank(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    candidates: Sequence[Sequence],
    threshold: float = 0.90,
) -> SelectionReport:
    """Sweep candidate basis systems; choose the first one whose captured
    energy meets the threshold.

    ``candidates`` is a list of basis lists ordered from smallest to largest;
    if none reaches the threshold the candidate with the largest criterion is
    chosen and a warning is issued.
    """
    if not candidates:
        raise ValueError("need at least one candidate basis system")
    records = []
    for bases in candidates:
        ratio = marginal_rank_criterion(y, bases, grids)
        records.append(
            SelectionRecord(
                params={f"rank_{d}": b.rank for d, b in enumerate(bases)},
                criterion=ratio,
            )
        )
    chosen = next((i for i, r in enumerate(records) if r.criterion >= threshold), None)
    if chosen is None:
        chosen = int(np.argmax([r.criterion for r in records]))
        warnings.warn(
            f"no candidate reached the threshold {threshold}; "
            "choosing the best available",
            RuntimeWarning,
        )
    records[chosen].chosen = True
    return SelectionReport(kind="marginal_variance", records=records)


def sweep_global_rank(
    g_hat: np.ndarray,
    t_mats: Sequence[np.ndarray],
    config: SolverConfig,
    k_grid: Sequence[int],
    threshold: float = 0.05,
) -> SelectionReport:
    """Fit a grid of ranks and report the normalized residual per rank.

    The criterion is the fit's ``SolverState.residual_sq`` over ``|g_hat|^2``,
    as ``FitReport.residual_ratio``. Each fit after the first is warm-started
    from the previous one: :func:`solver.fit` completes it to the larger rank
    with components that leave its tensor unchanged, so each fit starts from
    the previous fit's residual. The chosen rank is the smallest meeting the
    threshold (largest otherwise). An empty grid or a zero ``g_hat`` raises
    ``ValueError``.
    """
    k_grid = [int(k) for k in k_grid]
    if not k_grid:
        raise ValueError("rank grid is empty")
    if sorted(k_grid) != k_grid or len(set(k_grid)) != len(k_grid):
        raise ValueError("rank grid must be strictly increasing")
    g_norm_sq = float(np.sum(np.asarray(g_hat) ** 2))
    if g_norm_sq == 0.0:
        raise ValueError("data tensor has zero norm")
    records, state = [], None
    for k in k_grid:
        state = solver.fit(g_hat, t_mats, replace(config, rank=k), initial_state=state)
        records.append(SelectionRecord(params={"rank": k}, criterion=state.residual_sq / g_norm_sq))
    chosen = next((i for i, r in enumerate(records) if r.criterion <= threshold), None)
    if chosen is None:
        chosen = len(records) - 1
        warnings.warn(
            f"no rank reached the residual threshold {threshold}; choosing the largest",
            RuntimeWarning,
        )
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


def cv_lambda_grid(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int],
    config: SolverConfig,
    lambda_grid: Sequence[tuple[float, float]] = DEFAULT_LAMBDA_GRID,
    n_folds: int = 5,
    seed: int = 0,
    fold_labels: np.ndarray | None = None,
    center: bool = False,
) -> SelectionReport:
    """Choose (marginal, coefficient) penalty weights by cross validation.

    Subjects are partitioned into folds (seeded shuffle, round robin), or by
    the explicit ``fold_labels`` when given. For each grid point and fold,
    the model is fitted on the training subjects and the held-out subjects
    are projected onto the fitted product basis; the criterion is the mean
    squared residual per tensor entry, averaged over held-out subjects and
    folds. Ties go to the larger weights. With ``center``, each training
    fold's mean is removed from it and from its held-out subjects.

    The sample is reduced once, by :func:`reduction.prepare`: compression is
    linear per subject, so each fold's training problem is a slice of the
    compressed tensor, fitted by :func:`fit_mpb` without a second reduction.
    Each subject's residual outside the span of the compression is formed
    once (:func:`reduction.out_of_span_sq`), after a centered fold takes its
    training mean off its copy of the held-out data, as
    :meth:`MPBModel.project` does with its input. Every cell projects the
    held-out subjects in compressed coordinates by the QR least-squares
    solve of :func:`reduction.lstsq_compressed`.
    """
    y, grids = reduction.check_inputs(y, grids, bases, penalty_orders)
    n_subjects = y.shape[-1]
    if not 2 <= n_folds <= n_subjects:
        raise ValueError(f"n_folds must lie in [2, {n_subjects}]")
    if not lambda_grid:
        raise ValueError("lambda grid is empty")
    if fold_labels is not None:
        labels = np.asarray(fold_labels, dtype=int)
        if labels.shape != (n_subjects,) or set(labels) != set(range(n_folds)):
            raise ValueError("fold_labels must assign every fold to at least one subject")
    else:
        labels = _fold_assignment(n_subjects, n_folds, seed)
    prepared = reduction.prepare(y, grids, bases, penalty_orders)
    folds = []  # (training problem, held-out compressed tensor, out-of-span energies)
    for fold in range(n_folds):
        in_train = labels != fold
        train = prepared.subjects(in_train)
        held_y = y[..., ~in_train]  # a copy, which centering changes in place
        held_g = prepared.g_hat[..., ~in_train]
        if center:
            mean_g = train.g_hat.mean(axis=-1, keepdims=True)
            train = replace(train, g_hat=train.g_hat - mean_g)
            held_g -= mean_g
            held_y -= (y @ (in_train / in_train.sum()))[..., None]
        held_sq = reduction.out_of_span_sq(held_y, prepared.facs, held_g)
        folds.append((train, held_g, held_sq))
    n_entries = int(np.prod(y.shape[:-1]))
    records = []
    for lam_f, lam_c in lambda_grid:
        cfg = replace(config, lambda_marginal=float(lam_f), lambda_coef=float(lam_c))
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
