"""Isometric data reduction through thin SVDs of the basis evaluation matrices.

A data tensor observed on a grid is compressed mode by mode with the left
singular vectors of each evaluation matrix ``Phi_d = U_d diag(s_d) V_d'``.
Least-squares fitting in the compressed coordinates is equivalent to fitting
in the original ones, and roughness penalties transport through the same
factorization (``penalty_transform``). ``prepare`` runs the whole reduction:
evaluate, factorize, transport, compress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import basis as basis_mod
from .errors import NumericalError
from .tensors import mode_multiply

__all__ = [
    "MarginalFactorization",
    "prepare",
    "factorize",
    "compress",
    "decompress",
    "penalty_transform",
    "back_transform",
    "forward_transform",
]

#: Hard error below this relative smallest singular value.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class MarginalFactorization:
    """Thin SVD ``phi = u @ diag(s) @ vt`` of one basis evaluation matrix."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.s.shape[0]


def factorize(phi: np.ndarray, dim: int | None = None) -> MarginalFactorization:
    """Thin SVD of an ``n x m`` evaluation matrix with a rank guard.

    Raises
    ------
    NumericalError
        If the smallest singular value falls below ``RANK_TOL`` times the
        largest (rank-deficient evaluation matrix). ``dim`` names the
        offending dimension in the message when given.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < phi.shape[1]:
        raise ValueError(f"expected a tall n x m matrix, got shape {phi.shape}")
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    if s[-1] <= RANK_TOL * s[0]:
        where = f" for dimension {dim}" if dim is not None else ""
        raise NumericalError(
            f"basis evaluation matrix{where} is rank deficient: "
            f"singular value ratio {s[-1] / s[0]:.3e} <= {RANK_TOL:.0e}; "
            "reduce the basis rank or refine the grid"
        )
    return MarginalFactorization(u=u, s=s, vt=vt)


def compress(y: np.ndarray, facs: Sequence[MarginalFactorization]) -> np.ndarray:
    """Contract ``U_d'`` against each grid mode; the subject mode is untouched."""
    y = np.asarray(y, dtype=float)
    if y.ndim != len(facs) + 1:
        raise ValueError(
            f"tensor has {y.ndim} modes, expected {len(facs)} grid modes plus subjects"
        )
    for d, f in enumerate(facs):
        if y.shape[d] != f.n:
            raise ValueError(
                f"mode {d} has size {y.shape[d]} but the factorization expects {f.n}"
            )
    out = y
    for d, f in enumerate(facs):
        out = mode_multiply(out, f.u.T, d)
    return out


def decompress(g: np.ndarray, facs: Sequence[MarginalFactorization]) -> np.ndarray:
    """Map compressed coordinates back to the grid: contract ``U_d`` per mode."""
    out = np.asarray(g, dtype=float)
    for d, f in enumerate(facs):
        out = mode_multiply(out, f.u, d)
    return out


def penalty_transform(fac: MarginalFactorization, r: np.ndarray) -> np.ndarray:
    """Transport a penalty matrix into compressed coordinates.

    Returns the symmetric PSD matrix ``diag(1/s) V' R V diag(1/s)`` so that
    quadratic penalties on original coefficients equal the same form on
    compressed ones.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (fac.m, fac.m):
        raise ValueError(f"penalty matrix shape {r.shape} does not match rank {fac.m}")
    t = (fac.vt @ r @ fac.vt.T) / np.outer(fac.s, fac.s)
    return 0.5 * (t + t.T)


def prepare(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int],
) -> tuple[list[MarginalFactorization], list[np.ndarray], np.ndarray]:
    """Reduce gridded data to the compressed problem the solver fits.

    Evaluates each basis on its grid, factorizes the evaluation matrices,
    transports the order-``penalty_orders[d]`` roughness penalty of each basis
    and compresses ``y``. Returns ``(facs, t_mats, g_hat)``.
    """
    facs = [factorize(b.evaluate(g), dim=d) for d, (b, g) in enumerate(zip(bases, grids))]
    t_mats = [
        penalty_transform(fac, basis_mod.penalty_matrix(b, basis_mod.PenaltyOperator(order)))
        for fac, b, order in zip(facs, bases, penalty_orders)
    ]
    return facs, t_mats, compress(y, facs)


def back_transform(fac: MarginalFactorization, c_tilde: np.ndarray) -> np.ndarray:
    """Compressed coefficients to basis coefficients: ``V diag(1/s) c_tilde``."""
    c_tilde = np.asarray(c_tilde, dtype=float)
    if c_tilde.shape[0] != fac.m:
        raise ValueError(f"coefficients have {c_tilde.shape[0]} rows, expected {fac.m}")
    return fac.vt.T @ (c_tilde / fac.s[:, None])


def forward_transform(fac: MarginalFactorization, c: np.ndarray) -> np.ndarray:
    """Basis coefficients to compressed coefficients: ``diag(s) V' c``."""
    c = np.asarray(c, dtype=float)
    if c.shape[0] != fac.m:
        raise ValueError(f"coefficients have {c.shape[0]} rows, expected {fac.m}")
    return fac.s[:, None] * (fac.vt @ c)
