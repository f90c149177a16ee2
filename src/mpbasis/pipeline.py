"""End-to-end fitting: bases and grids in, continuous model out."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import reduction, solver
from .model import MPBModel
from .solver import SolverConfig, SolverState

__all__ = ["FitReport", "fit_mpb"]


@dataclass
class FitReport:
    """Summary of one fit, suitable for serializing to JSON."""

    objective_trace: np.ndarray
    iters: int
    converged: bool
    stop_reason: str  # SolverState.stop_reason: "tolerance", "noise level" or "sweep cap"
    noise_var: float | None  # PreparedProblem.noise_var of the data fitted
    lasso_certified: bool
    extrapolated: int  # SolverState.extrapolated: extrapolated points the fit kept
    residual_ratio: float  # |g_hat - X|^2 / |g_hat|^2: SolverState.residual_sq over |g_hat|^2
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {**asdict(self), "objective_trace": [float(v) for v in self.objective_trace]}


def fit_mpb(
    y: np.ndarray | reduction.PreparedProblem,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int],
    config: SolverConfig,
    center: bool = False,
) -> tuple[MPBModel, SolverState, FitReport]:
    """Fit a marginal product basis representation to gridded observations.

    Reduces the data with :func:`reduction.prepare` (check the inputs,
    evaluate each basis, factorize, transport the roughness penalties,
    compress), runs the block-coordinate solver and maps the solution back to
    basis coefficients. Given a :class:`reduction.PreparedProblem` instead of
    the grid tensor, it fits that problem as it is and skips the reduction,
    which lets cross validation reduce a sample once and fit slices of it.
    Either way the model's mean is the problem's ``mean``. The fit stops at
    the noise level: after the first sweep whose residual is at most
    :meth:`reduction.PreparedProblem.noise_target`, the in-span noise energy
    a rank-K fit leaves. Where that is None, as when the lasso block runs,
    the fit runs to its tolerance or cap.

    Parameters
    ----------
    y : ndarray or reduction.PreparedProblem
        Observations of shape ``(n_1, ..., n_D, N)`` with subjects last, or
        a problem prepared from ``grids``, ``bases`` and ``penalty_orders``
        (equal grid points and basis specifications); anything else raises
        ``ValueError``.
    grids : sequence of 1-d arrays
        Marginal grid points, lengths matching the leading dims of ``y``.
    bases : sequence of marginal bases
    penalty_orders : sequence of int
        Derivative order of the roughness penalty per dimension.
    config : SolverConfig
    center : bool
        Subtract the gridded sample mean before fitting and store it on the
        model. Compression is linear, so the compressed tensor is centered
        instead of the grid tensor. Needs the grid tensor: a prepared problem
        with ``center`` raises ``ValueError``; its ``centered(y)`` takes the
        mean instead.
    """
    start = time.perf_counter()
    if isinstance(y, reduction.PreparedProblem):
        if center:
            raise ValueError(
                "center needs the grid tensor to take its mean; "
                "fit the prepared problem's centered(y) instead"
            )
        y.check_source(grids, bases, penalty_orders)
        prepared = y
    else:
        prepared = reduction.prepare(y, grids, bases, penalty_orders)
        prepared = prepared.centered(y) if center else prepared
    target = prepared.noise_target(config)
    state = solver.fit(prepared.g_hat, prepared.t_mats, config, noise_target=target)
    coefs = [reduction.back_transform(fac, c) for fac, c in zip(prepared.facs, state.c_tilde)]
    model = MPBModel(
        bases=list(bases),
        coefs=coefs,
        subject_coefs=state.b.copy(),
        mean_grids=None if prepared.mean is None else list(prepared.grids),
        mean_values=prepared.mean,
    )
    report = FitReport(
        objective_trace=state.objective_trace,
        iters=state.iters,
        converged=state.converged,
        stop_reason=state.stop_reason,
        noise_var=prepared.noise_var,
        lasso_certified=state.lasso_certified,
        extrapolated=state.extrapolated,
        residual_ratio=state.residual_sq / prepared.g_hat_sq,
        elapsed_seconds=time.perf_counter() - start,
    )
    return model, state, report
