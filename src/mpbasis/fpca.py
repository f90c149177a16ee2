"""Two-stage penalized functional PCA in marginal product coordinates.

Stage one represents the sample with a fitted :class:`~mpbasis.model.MPBModel`;
stage two solves a K x K generalized eigenproblem built from the sample
covariance of the subject coefficients and the analytic Gram and Laplacian
penalty matrices of the product basis. Eigenfunctions come out normalized in
the function-space inner product, mutually orthogonal in the penalized inner
product, with eigenvalues equal to the penalized sample variances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .errors import NumericalError
from .jsonspec import as_int, check_sign
from .model import MPBModel

__all__ = [
    "FPCAResult",
    "coef_covariance",
    "solve_fpca",
    "scores",
    "eigenfunction_model",
    "run_fpca",
]

#: Generalized eigenvalues in [-EIG_FLOOR, 0] are clamped to zero; anything
#: more negative indicates a broken PSD input and raises.
EIG_FLOOR = 1e-10


@dataclass
class FPCAResult:
    """Output of one penalized FPCA solve.

    Attributes
    ----------
    s : ndarray
        ``K x K_keep`` eigenvector coordinates; column ``j`` represents the
        j-th eigenfunction over the product basis, normalized so its squared
        function norm is one.
    nu : ndarray
        Nonincreasing, nonnegative penalized variances.
    scores : ndarray or None
        ``N x K_keep`` subject scores (inner products with eigenfunctions).
    lam : float
        Global smoothing weight used in the solve.
    var_explained : ndarray
        Cumulative fraction of represented variance for the kept components.
    """

    s: np.ndarray
    nu: np.ndarray
    scores: np.ndarray | None
    lam: float
    var_explained: np.ndarray

    @property
    def n_components(self) -> int:
        return self.s.shape[1]


def coef_covariance(b: np.ndarray) -> np.ndarray:
    """Column-centered sample covariance of subject coefficients (1/(N-1))."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] < 2:
        raise ValueError("need an N x K coefficient matrix with N >= 2")
    centered = b - b.mean(axis=0)
    cov = centered.T @ centered / (b.shape[0] - 1)
    return 0.5 * (cov + cov.T)


#: Gram directions below this relative eigenvalue are treated as the zero
#: function and removed before the eigen solve.
GRAM_RANK_TOL = 1e-10


def solve_fpca(
    j_zeta: np.ndarray,
    r_zeta: np.ndarray,
    sigma_b: np.ndarray,
    lam: float,
    k_keep: int | None = None,
    var_threshold: float = 0.99,
) -> FPCAResult:
    """Solve the penalized eigenproblem in product-basis coordinates.

    The pencil ``J Sigma J s = nu (J + lam R) s`` is solved by one call of
    ``scipy.linalg.eigh(a, b)``; each eigenvector is rescaled so
    ``s' J s = 1``.

    Numerically dependent product functions (overcomplete fits drive some
    components onto the same span) make the Gram singular; those directions
    represent the zero function and carry no variance, so the solve proceeds
    on the well-conditioned function subspace and a warning is issued.

    ``k_keep`` fixes the number of retained components; otherwise the
    smallest number reaching ``var_threshold`` cumulative variance is kept.
    ``lam`` must be finite and >= 0, ``var_threshold`` in (0, 1] and ``k_keep`` an integer.
    """
    j_zeta = np.asarray(j_zeta, dtype=float)
    r_zeta = np.asarray(r_zeta, dtype=float)
    sigma_b = np.asarray(sigma_b, dtype=float)
    k = j_zeta.shape[0]
    lam = check_sign(lam, "smoothing weight", zero_ok=True)
    if check_sign(var_threshold, "var_threshold") > 1:
        raise ValueError(f"var_threshold must lie in (0, 1], got {var_threshold}")
    k_keep = None if k_keep is None else as_int(k_keep, "k_keep")
    d, q = eigh(0.5 * (j_zeta + j_zeta.T))
    if d[0] < -1e-8 * max(d[-1], 1e-300):
        raise NumericalError(
            f"Gram matrix is indefinite (eigenvalue range [{d[0]:.3e}, {d[-1]:.3e}])"
        )
    if d[-1] <= 0:
        raise NumericalError("Gram matrix is zero; the model represents no functions")
    keep = d > GRAM_RANK_TOL * d[-1]
    n_red = int(np.sum(keep))
    if n_red < k:
        warnings.warn(
            f"product basis functions are numerically dependent; solving the "
            f"eigenproblem on the {n_red}-dimensional independent subspace",
            RuntimeWarning,
        )
    w = q[:, keep]
    j_red = np.diag(d[keep])
    r_red = w.T @ r_zeta @ w
    if k_keep is not None and not 1 <= k_keep <= n_red:
        raise ValueError(f"number of components must lie in [1, {n_red}]")
    lhs = j_red + lam * r_red
    lhs = 0.5 * (lhs + lhs.T)
    sig_red = w.T @ sigma_b @ w
    mid = j_red @ sig_red @ j_red
    mid = 0.5 * (mid + mid.T)
    try:
        nu, vecs = eigh(mid, lhs)
    except LinAlgError as exc:
        eigs = np.linalg.eigvalsh(lhs)
        raise NumericalError(
            "penalized Gram matrix is not positive definite "
            f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        ) from exc
    nu, vecs = nu[::-1], vecs[:, ::-1]
    if nu.min(initial=0.0) < -EIG_FLOOR:
        raise NumericalError(
            f"generalized eigenvalue {nu.min():.3e} below the PSD floor; "
            "covariance or penalty inputs are inconsistent"
        )
    nu = np.maximum(nu, 0.0)
    s = w @ vecs
    norms = np.sqrt(np.einsum("ij,ij->j", s, j_zeta @ s))
    s = s / norms
    signs = np.sign(s[np.argmax(np.abs(s), axis=0), np.arange(n_red)])
    signs[signs == 0] = 1.0
    s = s * signs
    total = nu.sum()
    cumfrac = np.cumsum(nu) / total if total > 0 else np.ones(n_red)
    if k_keep is None:
        k_keep = int(np.searchsorted(cumfrac, var_threshold) + 1)
        k_keep = min(k_keep, n_red)
    return FPCAResult(
        s=s[:, :k_keep],
        nu=nu[:k_keep],
        scores=None,
        lam=lam,
        var_explained=cumfrac[:k_keep],
    )


def scores(model: MPBModel, result: FPCAResult, j_zeta: np.ndarray | None = None) -> np.ndarray:
    """Subject scores: inner products of each represented subject with each
    eigenfunction, computed as ``B J s`` in coefficient coordinates."""
    if j_zeta is None:
        j_zeta = model.gram_zeta()
    if result.s.shape[0] != model.rank:
        raise ValueError("eigenvector coordinates do not match the model rank")
    return model.subject_coefs @ (j_zeta @ result.s)


def eigenfunction_model(model: MPBModel, result: FPCAResult) -> MPBModel:
    """The eigenfunctions as an :class:`MPBModel`, one "subject" per component;
    at scattered points they are ``model.evaluate_basis(points) @ result.s``."""
    if result.s.shape[0] != model.rank:
        raise ValueError("eigenvector coordinates do not match the model rank")
    return MPBModel(bases=model.bases, coefs=model.coefs, subject_coefs=result.s.T)


def run_fpca(
    model: MPBModel,
    lam: float = 0.0,
    k_keep: int | None = None,
    var_threshold: float = 0.99,
) -> FPCAResult:
    """Full second stage: covariance, eigen solve and scores from one model."""
    j_zeta = model.gram_zeta()
    r_zeta = model.laplacian_penalty_zeta()
    sigma_b = coef_covariance(model.subject_coefs)
    result = solve_fpca(j_zeta, r_zeta, sigma_b, lam, k_keep, var_threshold)
    result.scores = scores(model, result, j_zeta)
    return result
