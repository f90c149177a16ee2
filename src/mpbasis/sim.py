"""Synthetic data generators and integrated-squared-error metrics.

Two designs are provided:

* a D-dimensional random function built as a rank-``true_rank`` combination
  of products of Fourier-expanded marginal functions, observed with white
  noise on an equispaced grid (``generate_product_sample``);
* a 2-d Gaussian process whose eigenfunctions orthonormalize the tensor
  product of two spline systems, with exponentially decaying eigenvalues
  (``generate_gp2d_sample``).

All randomness derives from the config seed; per-replication streams are
split deterministically so replications can run in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BSplineBasis, FourierBasis, gram_matrix
from .jsonspec import check_bool, check_ints, check_sign
from .model import MPBModel

__all__ = [
    "ProductSimConfig",
    "Gp2dSimConfig",
    "ProductSample",
    "Gp2dSample",
    "generate_product_sample",
    "generate_gp2d_sample",
    "mise",
]


@dataclass(frozen=True)
class ProductSimConfig:
    """Settings for the separable-product design on the unit cube.

    The subject weights are drawn from a zero-mean Gaussian whose covariance
    has a seeded random orthogonal eigenbasis and eigenvalues
    ``exp(-decay * k)`` for ``k = 1..true_rank``. Marginal coefficient
    matrices are i.i.d. normal with standard deviation ``coef_sd`` and stay
    fixed across replications unless ``redraw_coefs`` is set. ``grid_size``
    points per axis, at least 2, may be given as a list of ``n_dims`` equal sizes.
    """

    n_dims: int = 3
    marginal_rank: int = 11
    true_rank: int = 10
    coef_sd: float = 0.3
    decay: float = 0.7
    noise_var: float = 0.5
    grid_size: int = 30
    n_subjects: int = 5
    seed: int = 0
    redraw_coefs: bool = False

    def __post_init__(self) -> None:
        names = ("n_dims", "marginal_rank", "true_rank", "n_subjects")
        check_ints(self, {**dict.fromkeys(names, 1), "seed": 0})
        sizes = self.grid_size
        if isinstance(sizes, (list, tuple)):
            if len(sizes) != self.n_dims or any(g != sizes[0] for g in sizes):
                raise ValueError(
                    f"grid_size must give one shared grid size for each of the "
                    f"{self.n_dims} dimensions, got {sizes!r}"
                )
            object.__setattr__(self, "grid_size", sizes[0])
        check_ints(self, {"grid_size": 2})
        if self.marginal_rank % 2 == 0:
            raise ValueError("marginal_rank must be odd for the Fourier system")
        check_sign(self, "coef_sd")
        check_sign(self, "decay")
        check_sign(self, "noise_var", zero_ok=True)
        check_bool(self, "redraw_coefs")


@dataclass(frozen=True)
class Gp2dSimConfig:
    """Settings for the spline-eigenfunction Gaussian process on [0,1]^2; an
    integer ``grid_size`` is a square grid."""

    ranks: tuple[int, int] = (10, 8)
    decay: float = 0.7
    grid_size: tuple[int, int] = (200, 200)
    n_train: int = 100
    n_test: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.grid_size, (list, tuple)):
            object.__setattr__(self, "grid_size", (self.grid_size, self.grid_size))
        minimum = {"ranks": 4, "grid_size": 2, "n_train": 1, "n_test": 0, "seed": 0}
        check_ints(self, minimum, pairs=("ranks", "grid_size"))
        check_sign(self, "decay")


@dataclass
class ProductSample:
    truth: np.ndarray
    noisy: np.ndarray
    model: MPBModel
    grids: list[np.ndarray]
    sigma_a: np.ndarray


@dataclass
class Gp2dSample:
    train: np.ndarray
    test: np.ndarray
    grids: list[np.ndarray]
    bases: list[BSplineBasis]
    eigen_coefs: np.ndarray
    eigen_values: np.ndarray
    train_scores: np.ndarray
    test_scores: np.ndarray


def _structure_rng(seed: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0]))


def _replication_rng(seed: int, replication: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 1, int(replication)]))


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from the QR of a Gaussian draw, sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def generate_product_sample(cfg: ProductSimConfig, replication: int = 0) -> ProductSample:
    """Draw one replication of the separable-product design.

    Returns the noise-free evaluations, the noisy observations (both with
    subjects on the last mode), the generating model and the grids.
    """
    struct = _structure_rng(cfg.seed)
    o = random_orthogonal(cfg.true_rank, struct)
    eigvals = np.exp(-cfg.decay * np.arange(1, cfg.true_rank + 1))
    sigma_a = o @ np.diag(eigvals) @ o.T
    coefs = [
        cfg.coef_sd * struct.standard_normal((cfg.marginal_rank, cfg.true_rank))
        for _ in range(cfg.n_dims)
    ]
    rng = _replication_rng(cfg.seed, replication)
    if cfg.redraw_coefs:
        coefs = [
            cfg.coef_sd * rng.standard_normal((cfg.marginal_rank, cfg.true_rank))
            for _ in range(cfg.n_dims)
        ]
    sqrt_sigma = o * np.sqrt(eigvals)
    a = rng.standard_normal((cfg.n_subjects, cfg.true_rank)) @ sqrt_sigma.T
    bases = [FourierBasis((0.0, 1.0), cfg.marginal_rank) for _ in range(cfg.n_dims)]
    grids = [np.linspace(0.0, 1.0, cfg.grid_size) for _ in range(cfg.n_dims)]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=a)
    truth = model.evaluate_subjects(grids)
    noise = (
        np.sqrt(cfg.noise_var) * rng.standard_normal(truth.shape)
        if cfg.noise_var > 0
        else np.zeros_like(truth)
    )
    return ProductSample(
        truth=truth, noisy=truth + noise, model=model, grids=grids, sigma_a=sigma_a
    )


def gp2d_eigensystem(cfg: Gp2dSimConfig) -> tuple[list[BSplineBasis], np.ndarray, np.ndarray]:
    """Bases plus eigenfunction coefficients of the tensor spline Gram.

    The Gram of the tensor product system factors as a Kronecker product of
    the marginal Grams (row-major pairing). Its eigendecomposition, sorted by
    decreasing eigenvalue, defines coefficient vectors of an orthonormal
    function system; column ``k`` of the returned matrix holds the
    coefficients of the k-th eigenfunction over the tensor product basis.
    """
    bases = [BSplineBasis((0.0, 1.0), r) for r in cfg.ranks]
    j1, j2 = (gram_matrix(b) for b in bases)
    j = np.kron(j1, j2)
    gamma, p = np.linalg.eigh(j)
    gamma, p = gamma[::-1], p[:, ::-1]
    if gamma[-1] <= 0:
        raise ValueError("tensor product Gram is not positive definite")
    coefs = p / np.sqrt(gamma)
    return bases, coefs, gamma


def generate_gp2d_sample(cfg: Gp2dSimConfig, replication: int = 0) -> Gp2dSample:
    """Draw one replication of the 2-d Gaussian process design.

    Subject scores on the k-th eigenfunction are independent Gaussians with
    variance ``exp(-decay * k)``; fields are exact (noise-free) evaluations
    on the equispaced grid.
    """
    bases, coefs, _ = gp2d_eigensystem(cfg)
    m1, m2 = cfg.ranks
    grids = [np.linspace(0.0, 1.0, g) for g in cfg.grid_size]
    phi1, phi2 = (b.evaluate(g) for b, g in zip(bases, grids))
    rho = np.exp(-cfg.decay * np.arange(1, m1 * m2 + 1))
    rng = _replication_rng(cfg.seed, replication)
    train_scores = rng.standard_normal((cfg.n_train, m1 * m2)) * np.sqrt(rho)
    test_scores = rng.standard_normal((cfg.n_test, m1 * m2)) * np.sqrt(rho)

    def fields(scores: np.ndarray) -> np.ndarray:
        # m1 x m2 x N core over the tensor basis (row-major pairing, as in the
        # Kronecker Gram), contracted one spline system at a time
        n = scores.shape[0]
        core = (coefs @ scores.T).reshape(m1, m2, n)
        half = (phi2 @ core).reshape(m1, -1)  # m1 x (n2 * N)
        return (phi1 @ half).reshape(*cfg.grid_size, n)

    train, test = fields(train_scores), fields(test_scores)
    return Gp2dSample(
        train=train,
        test=test,
        grids=grids,
        bases=bases,
        eigen_coefs=coefs,
        eigen_values=rho,
        train_scores=train_scores,
        test_scores=test_scores,
    )


def mise(
    truth: np.ndarray, estimate: np.ndarray, grids: Sequence[np.ndarray]
) -> float:
    """Integrated squared error between gridded evaluations, summed over subjects.

    Both arrays carry subjects on the last mode and share the grids; the
    integral over the domain uses the trapezoid rule along every grid axis.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    if truth.shape[:-1] != tuple(len(g) for g in grids):
        raise ValueError("grids do not match the tensor shape")
    out = (truth - estimate) ** 2
    for g in grids:
        out = np.trapezoid(out, x=np.asarray(g, dtype=float), axis=0)
    return float(out.sum())
