"""Penalized CP decomposition of the compressed data tensor.

Block coordinate descent over the factor matrices: each grid-mode factor
solves a Sylvester equation (least squares plus a quadratic roughness
penalty), and the subject-coefficient block solves either a closed-form ridge
problem or, for the lasso penalty, N small lasso problems exactly, by an
active-set method that certifies each row by its KKT conditions. Each step
minimizes the objective over its block plus a proximal term, the shift ``s``
times the squared step, so the objective trace is nonincreasing and every
block is strongly convex. :func:`fit` scales the shift to each block's Gram
``M``: ``s = proximal_mu tr(M) / K``, the prox-linear block update of Xu and
Yin (SIAM J. Imaging Sci. 6(3), 2013) with a weight proportional to the
block's curvature, so the shifted Gram's smallest eigenvalue is at least
``proximal_mu`` times its mean whatever the data's scale. A Gram whose
trace is zero (after a lasso block set every coefficient to zero), or so
small that the shift is below the smallest normal float, has no scale to
keep: its step is shifted by ``proximal_mu`` itself. Every block step takes
its shift as an argument, which has no default.

:func:`fit` also works in each penalty's eigenbasis (Demmler-Reinsch): with
``lambda_d T_d = P_d diag(beta_d) P_d'`` diagonalized once per fit, the
tensor's grid modes and the start factors are rotated by ``P_d'`` once, so
each factor step's penalty side is the diagonal ``diag(beta_d)``. The step
tridiagonalizes its K x K Gram once and solves one positive definite
tridiagonal system per row of the factor, all stacked into one LAPACK call
(the Hessenberg-Schur method of Golub, Nash and Van Loan, 1979); the shift
certifies its spectra-overlap guard in O(1), whose eigenvalues are computed
only when that certificate fails. These, the penalty eigendecompositions and
the Cholesky factorizations call LAPACK directly, and the ridge block's two
triangular solves BLAS.

:func:`fit` runs the sweep on a dimension tree of depth one (Phan, Tichavsky
and Cichocki, IEEE Trans. Signal Process. 61(19), 2013): the modes of the
compressed tensor are cut once, at :func:`tensors.half_split`, and the tensor
is used only as its ``prod(left) x prod(right)`` matrix view. One matrix
product per half and sweep contracts that view with the Khatri-Rao product of
the other half's current factors; every block of the half takes its MTTKRP
from that small partial through :func:`tensors.partial_mttkrp_core`, which
checks nothing: the sweep builds every array it hands over. Each block's Gram
is the Hadamard product of per-factor Grams, which are refreshed once, after
their factor is updated. The sweep's three
block steps, :func:`update_factor`, :func:`update_b_ridge` and
:func:`update_b_admm`, each take that Gram and MTTKRP from the sweep and only
solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from typing import Sequence

import numpy as np
from scipy.linalg import blas, lapack

from .errors import NumericalError
from .jsonspec import check_ints, check_sign
from .tensors import (
    cp_to_tensor,
    half_split,
    khatri_rao_core,
    partial_mttkrp_core,
)

# not called here: perfbench/tracer.py wraps these names on this module
from .tensors import gram_of_khatri_rao, mttkrp  # noqa: F401

__all__ = [
    "SolverConfig",
    "SolverState",
    "objective",
    "residual_dof",
    "residual_sq",
    "sylvester_solve",
    "soft_threshold",
    "update_factor",
    "update_b_ridge",
    "update_b_admm",
    "fit",
]

#: A Cholesky factor of a normal matrix whose smallest diagonal entry is at or
#: below this multiple of its largest counts as singular in :func:`_cholesky`.
CHOL_DIAG_RATIO_TOL = 1e-7

#: Primal-dual active-set passes of :func:`update_b_admm` after its first
#: pattern solve; rows left over run feature-sign search.
_PDAS_PASSES = 6

#: Cap on the active-set steps (pattern solves) of each row of the lasso
#: coefficient block in :func:`update_b_admm`.
_LASSO_MAX_STEPS = 500

#: LAPACK routines bound once: the symmetric eigensolver (QR iteration) of the
#: penalty rotations; the tridiagonal reduction, the tridiagonal eigenvalues
#: (root-free QR) when the overlap certificate fails, the orthogonal factor of
#: stored reflectors and the stacked tridiagonal solve of each factor step
#: (positive definite, or general when a ``beta`` entry lies below
#: ``-alpha_min``); the Cholesky factorization and solve, and the triangular
#: solve (BLAS) of the ridge block. The wrappers check neither finiteness nor
#: symmetry; their callers check finiteness.
_SYEV, _SYTRD, _STERF, _ORGQR, _PTSV, _GTSV = (
    lapack.dsyev, lapack.dsytrd, lapack.dsterf, lapack.dorgqr, lapack.dptsv, lapack.dgtsv
)
_POTRF, _POTRS, _TRSM = lapack.dpotrf, lapack.dpotrs, blas.dtrsm

#: The overlap certificate's allowance for the rounding of the factor step's
#: reduction (``dsytrd``) and of the eigenvalues it would compute (``dsterf``),
#: as a multiple of ``K^2 eps`` times the Gram's Frobenius norm
#: (:func:`_check_overlap`).
_REDUCTION_ROUNDING = 8.0

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)

_RIDGE_SINGULAR = (
    "singular normal matrix in the coefficient update; increase lambda_coef or reduce the rank"
)


@dataclass
class SolverConfig:
    """Settings for one decomposition run.

    Parameters
    ----------
    rank : int
        Number of rank-1 components K.
    lambda_marginal : sequence of float
        Roughness weights, one per grid dimension. A scalar is broadcast.
    lambda_coef : float
        Weight of the subject-coefficient penalty.
    coef_penalty : {"ridge", "lasso"}
        Squared Frobenius or elementwise l1 penalty on the coefficients.
    max_outer_iters : int
        Sweep cap: a fit that reaches it without stopping otherwise stops
        with ``stop_reason = "sweep cap"``.
    outer_tol : float
        A fit stops with ``stop_reason = "tolerance"`` after the first sweep
        whose objective changed by less than this, relative to the previous
        objective. A fit given a noise target (:func:`fit`) may stop sooner.
    proximal_mu : float
        Relative proximal weight: :func:`fit` shifts every block step's Gram
        ``M`` (K x K) by ``proximal_mu tr(M) / K``, which keeps each step
        strongly convex at any scale of the data, or by ``proximal_mu``
        when that is below the smallest normal float (a zero Gram); 0 runs
        plain block coordinate descent.
    seed : int
        Seed of the start's random unit-norm columns (:func:`fit`), the
        solver's only randomness.
    """

    rank: int
    lambda_marginal: Sequence[float] | float = 0.0
    lambda_coef: float = 0.0
    coef_penalty: str = "ridge"
    max_outer_iters: int = 200
    outer_tol: float = 1e-8
    proximal_mu: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        check_ints(self, {"rank": 1, "max_outer_iters": 1, "seed": 0})
        check_sign(self.lambda_marginal, "lambda_marginal", zero_ok=True, many=True)
        self.lambda_coef = check_sign(self.lambda_coef, "lambda_coef", zero_ok=True)
        self.outer_tol = check_sign(self.outer_tol, "outer_tol")
        self.proximal_mu = check_sign(self.proximal_mu, "proximal_mu", zero_ok=True)
        if self.coef_penalty not in ("ridge", "lasso"):
            raise ValueError(f"unknown coef_penalty {self.coef_penalty!r}")

    @property
    def lasso_block(self) -> bool:
        """Whether :func:`fit` runs the lasso block: the l1 penalty at a positive
        weight. A property, not a field, so no JSON table sets it."""
        return self.coef_penalty == "lasso" and self.lambda_coef > 0

    def marginal_weights(self, n_dims: int) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(self.lambda_marginal, dtype=float))
        if lam.size == 1:
            lam = np.full(n_dims, lam[0])
        if lam.shape != (n_dims,):
            raise ValueError(
                f"lambda_marginal has {lam.size} entries, expected {n_dims}"
            )
        return lam


@dataclass
class SolverState:
    """Factor matrices and bookkeeping for one decomposition: the grid-mode
    factors ``c_tilde`` and the N x K subject coefficients ``b``."""

    c_tilde: list[np.ndarray]
    b: np.ndarray
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: why :func:`fit` stopped: "tolerance", "noise level" or "sweep cap"
    stop_reason: str = "sweep cap"
    iters: int = 0
    lasso_certified: bool = True
    residual_sq: float = math.nan  # from fit: |g_hat - X|^2, its last objective's data term

    @property
    def converged(self) -> bool:
        """Whether the fit stopped before its sweep cap."""
        return self.stop_reason != "sweep cap"

    @property
    def rank(self) -> int:
        return self.b.shape[1]

    def factors(self) -> list[np.ndarray]:
        return list(self.c_tilde) + [self.b]


def soft_threshold(x: np.ndarray, kappa: float) -> np.ndarray:
    """Elementwise ``sign(x) * max(|x| - kappa, 0)``.

    Computed as ``x - clip(x, -kappa, kappa)``; the two agree except for the
    sign of zeros.
    """
    if kappa < 0:
        raise ValueError("threshold must be >= 0")
    x = np.asarray(x, dtype=float)
    return x - x.clip(-kappa, kappa)


def sylvester_solve(m: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve ``X m + p X = q`` for symmetric ``m`` (K x K) and ``p`` (n x n).

    ``p`` is diagonalized by a symmetric eigendecomposition, which leaves
    the equation of :func:`_sylvester_tridiag`: one tridiagonal system per row
    after ``m`` is tridiagonalized. With ``m`` positive definite and ``p``
    positive semidefinite every ``beta_i + alpha_k`` is positive; a ``p``
    with an eigenvalue below ``-alpha_min`` makes a system indefinite, which
    is solved with pivoting as long as the spectra do not overlap.
    :func:`update_factor` runs the same solve in the eigenbasis of each
    penalty, which :func:`fit` takes once per fit.
    """
    m = np.array(m, dtype=float)
    p = np.array(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape != (p.shape[0], m.shape[0]):
        raise ValueError(
            f"right-hand side shape {q.shape} does not match ({p.shape[0]}, {m.shape[0]})"
        )
    beta, pm = _eig_sym(p, "Sylvester matrix p")
    return pm @ _sylvester_tridiag(m, beta, pm.T @ q, "Sylvester matrix m")


@lru_cache(maxsize=None)
def _syev_lwork(n: int) -> int:
    """Workspace size of :data:`_SYEV` for a matrix of order ``n``."""
    return int(lapack.dsyev_lwork(n)[0])


@lru_cache(maxsize=None)
def _sytrd_lwork(n: int) -> int:
    """Workspace size of :data:`_SYTRD` for a lower-stored matrix of order ``n``."""
    return int(lapack.dsytrd_lwork(n, lower=1)[0])


def _check_info(info: int, step: str, routine: str, what: str) -> None:
    """Raise :class:`NumericalError` naming ``what`` when LAPACK's ``info`` is nonzero."""
    if info != 0:
        raise NumericalError(f"{step} of {what} failed (LAPACK {routine} info {info})")


def _eig_sym(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the symmetric float ``a`` (named ``what``),
    which is overwritten, as read-only arrays; a non-finite ``a`` raises
    :class:`NumericalError`."""
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} is not finite")
    # a.T is the same symmetric matrix in Fortran order: LAPACK works in place
    w, v, info = _SYEV(a.T, lwork=_syev_lwork(a.shape[0]), overwrite_a=1)
    _check_info(info, "eigendecomposition", "dsyev", what)
    w.flags.writeable = v.flags.writeable = False
    return w, v


def _sylvester_tridiag(
    m: np.ndarray, beta: np.ndarray, q: np.ndarray, what: str, extremes=None, spectrum=None
) -> np.ndarray:
    """Solve ``X m + diag(beta) X = q`` for the symmetric K x K ``m`` (named
    ``what``); ``m`` and ``q`` are overwritten, so callers pass arrays of their
    own. ``extremes``, ``(beta.min(), beta.max())`` when given, spares the
    overlap guard taking them; ``spectrum``, bounds on ``m``'s eigenvalues
    that the caller proves, lets it certify in O(1) (:func:`_check_overlap`).

    The Hessenberg-Schur method of Golub, Nash and Van Loan (IEEE Trans.
    Autom. Control 24(6), 1979) with its other side already diagonal: with
    ``m = V T V'`` and ``T`` tridiagonal, row ``i`` of ``Y = X V`` solves
    ``(T + beta_i I) y_i = (q V)_i``. The n systems are stacked into one
    tridiagonal system of order nK, with zero couplings between the blocks,
    and solved by one LAPACK call; ``X = Y V'``. The spectra-overlap guard
    (:func:`_check_overlap`) reads ``T`` before ``V`` is formed. Once it has
    cleared with every ``beta_i + alpha_k`` positive, as it does for a
    positive definite ``m`` and a PSD penalty, every block is positive
    definite, and the stacked solve is ``dptsv``'s LDL' factorization, which
    needs no pivoting; otherwise (a ``beta`` entry below ``-alpha_min``) it
    is ``dgtsv``'s LU factorization with partial pivoting. A failed solve
    raises :class:`NumericalError` naming ``what``.

    It beats one eigendecomposition of ``m`` only from about K = 15 and while
    n stays below about 2 K; at K = 5 its fixed cost is more than
    ``dsyev``'s whatever n is (README, solver bullets).
    """
    if not np.isfinite(m).all():
        raise NumericalError(f"{what} is not finite")
    n, k = q.shape
    # m.T is the same symmetric matrix in Fortran order: LAPACK works in place
    c, d, e, tau, info = _SYTRD(m.T, lower=1, lwork=_sytrd_lwork(k), overwrite_a=1)
    _check_info(info, "tridiagonal reduction", "dsytrd", what)
    definite = _check_overlap(d, e, beta, what, extremes, spectrum)
    v = np.zeros((k, k))
    v[0, 0] = 1.0
    if k > 1:
        # V = diag(1, V1): the reflectors are stored below T's subdiagonal
        v[1:, 1:], _, info = _ORGQR(c[1:, :-1], tau, overwrite_a=1)
        _check_info(info, "orthogonal factor", "dorgqr", what)
    off = np.zeros((n, k))
    off[:, :-1] = e
    off = off.reshape(-1)[:-1]
    q[:, 1:] = q[:, 1:] @ v[1:, 1:]  # q V: V's first row and column are those of the identity
    diag = (beta[:, None] + d).reshape(-1)
    if definite:
        y, info = _PTSV(diag, off, q.reshape(-1, 1), overwrite_d=1, overwrite_e=1, overwrite_b=1)[2:]
        _check_info(info, "tridiagonal solve", "dptsv", what)
    else:
        y, info = _GTSV(
            off, diag, off.copy(), q.reshape(-1, 1),
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )[3:]
        _check_info(info, "tridiagonal solve", "dgtsv", what)
    return y.reshape(n, k) @ v.T


def _check_overlap(
    d: np.ndarray, e: np.ndarray, beta: np.ndarray, what: str, extremes=None, spectrum=None
) -> bool:
    """The spectra-overlap guard of :func:`_sylvester_tridiag`: raise
    :class:`NumericalError` when the least ``|beta_i + alpha_k|`` is at or below
    ``1e-14`` times the scale, the largest ``|alpha_k|`` or ``|beta_i|``, where
    ``alpha`` are the eigenvalues of the tridiagonal ``T`` with diagonal ``d``
    and off-diagonal ``e``, as ``dsterf`` computes them. Return whether every
    ``beta_i + alpha_k`` is positive, so that every ``T + beta_i I`` is
    positive definite.

    ``spectrum``, when given, is ``(floor, top)``: every eigenvalue of the
    K x K matrix ``m`` that ``dsytrd`` reduced to ``T`` is at least ``floor``,
    and ``top`` bounds both ``m``'s largest eigenvalue and its Frobenius norm
    (:func:`fit` proves both from a factor step's shift and trace). A
    certificate then clears the step in O(1) without ``alpha``. ``dsytrd``'s
    ``T`` is exactly similar to ``m + E`` and ``dsterf``'s eigenvalues are
    exact for ``T + F``, with ``|E|_2 + |F|_2 <= delta = c K^2 eps top`` for a
    small constant ``c`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 19.3; Demmel, Applied Numerical Linear Algebra, 1997,
    5.2), taken here as :data:`_REDUCTION_ROUNDING`. So every computed
    ``alpha_k`` lies in ``[floor - delta, top + delta]``: ``s_hat = max(top +
    delta, -beta_min, beta_max)`` is at least the scale, and when ``beta_min
    + floor - delta > 2e-14 s_hat`` every ``beta_i + alpha_k`` exceeds ``2e-14
    s_hat``, so the gap the guard would measure exceeds its threshold; the
    factor 2 covers the rounding of the sums. Without ``spectrum``, or when
    the certificate does not clear (``proximal_mu = 0``, a ``beta`` entry far
    below 0, or weights far above the Gram's trace), ``alpha`` is computed
    and the gap measured. ``extremes`` is ``(beta.min(), beta.max())``, taken
    here when None; :func:`fit` takes it once per fit."""
    k = d.shape[0]
    lo, hi = (beta.min(), beta.max()) if extremes is None else extremes
    if spectrum is not None:
        floor, top = spectrum
        delta = _REDUCTION_ROUNDING * k * k * _EPS * top
        if lo + floor - delta > 2e-14 * max(top + delta, -lo, hi):
            return True
    if k > 1:
        alpha, info = _STERF(d, e)
        _check_info(info, "tridiagonal eigenvalues", "dsterf", what)
    else:  # T is its diagonal; dsterf refuses an empty off-diagonal
        alpha = d
    # rounding is monotone: when the least sum is >= 0 it is the least |sum|
    gap = lo + alpha[0]
    definite = gap > 0
    if gap < 0:
        gap = np.abs(beta[:, None] + alpha[None, :]).min()
    # alpha is ascending: its largest magnitude is at one of its ends
    scale = max(-alpha[0], alpha[-1], -lo, hi, 1e-300)
    if gap <= 1e-14 * scale:
        raise NumericalError(
            f"{what}: Sylvester spectra overlap, smallest |beta_i + alpha_k| {gap:.3e} is at or "
            f"below the threshold 1e-14 x scale {scale:.3e} = {1e-14 * scale:.3e}; raise "
            "proximal_mu to shift the factor Gram away from singularity"
        )
    return definite


def _objective_value(
    data_sq: float, marginal: float, b: np.ndarray, b_gram: np.ndarray, config: SolverConfig
) -> float:
    """Data term ``data_sq`` plus the marginal penalties and that of ``b``, whose
    Gram ``b'b`` is ``b_gram``: the ridge penalty is its trace."""
    val = data_sq + marginal
    if config.lasso_block:
        val += config.lambda_coef * float(np.abs(b).sum())
    elif config.lambda_coef > 0:
        val += config.lambda_coef * float(b_gram.trace())
    if not math.isfinite(val):
        raise NumericalError("objective is not finite; factor matrices diverged")
    return val


def residual_sq(y: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Squared residual norm of each subject: ``|y_i - X_i|^2`` per subject.

    ``X`` is the CP tensor of ``factors`` (grid-mode factors, then the N x K
    subject coefficients) and the subject mode of ``y`` is last. The
    difference is formed directly, never as the expanded square ``|y|^2 -
    2<y, X> + |X|^2``, which cancels to sqrt(eps) accuracy near an exact fit.

    :func:`fit` takes the same sum for the matrix view of the tensor, whose CP
    product is that of the Khatri-Rao products of its two halves.
    """
    r = y - cp_to_tensor(factors)
    r = r.reshape(-1, r.shape[-1])
    return np.einsum("ij,ij->j", r, r)


def residual_dof(shape: Sequence[int], rank: int) -> int:
    """Degrees of freedom of the residual of a rank-``rank`` CP fit to a
    compressed tensor of ``shape`` (grid modes m_1, ..., m_D, then N
    subjects): ``N prod(m_d) - K (N + sum(m_d) - D)``, the entries less the
    free parameters of K components, each of which has D scalings that do
    not change it. Zero or negative when the fit has as many parameters as
    the tensor has entries."""
    *ms, n = (int(v) for v in shape)
    return n * math.prod(ms) - rank * (n + sum(ms) - len(ms))


def _shifted(gram: np.ndarray, shift: float) -> np.ndarray:
    """A C-ordered copy of the square ``gram`` with ``shift`` added to its diagonal."""
    out = np.array(gram, dtype=float, order="C")
    out.reshape(-1)[:: out.shape[0] + 1] += shift  # the diagonal, as a view
    return out


def _gram_rounding(rows: Sequence[int]) -> float:
    """A bound, relative to the trace of ``M + s I``, on the Frobenius distance
    from the computed ``fl(M) + s I`` to ``M + s I``: ``M`` is the exact Gram
    ``W'W`` of a Khatri-Rao product ``W``, the Hadamard product of the Grams
    ``F_j'F_j`` of factors with ``rows[j]`` rows each, and ``fl(M)`` the
    Hadamard product of their computed Grams. This is how :func:`fit` forms
    every factor step's Gram, and ``M + s I`` is positive definite with
    eigenvalues at least ``s``.

    Entry ``(a, b)`` of a computed Gram is within ``gamma_n |f_a| |f_b|`` of
    the exact one, ``n`` the rows and ``gamma_n ~ n eps`` (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 3.5), and the exact entry is at
    most ``|f_a| |f_b|`` in size. So the computed product of the D entries,
    with its D - 1 roundings, is within ``c sqrt(w_a w_b)`` of the exact
    one, ``c = sum_j gamma_{n_j} + (D - 1) eps`` to first order and ``w`` the
    diagonal of ``M``; the squares sum to ``(c tr(M))^2``. Adding ``s`` to the
    diagonal rounds by at most ``eps tr(M + s I)``. The factor 2 covers the
    second-order terms and the rounding of the traces themselves."""
    return 2.0 * _EPS * (sum(rows) + len(rows) + 2)


def _shifted_spectrum(tr: float, s: float, k: int, rounding: float) -> tuple[float, float]:
    """Bounds ``(floor, top)`` for :func:`_check_overlap` on the computed K x K
    ``W'W + s I`` of a factor step whose Gram has the trace ``tr`` and the
    relative rounding ``rounding`` (:func:`_gram_rounding`): it is within
    ``err = rounding t`` of ``M + s I``, ``t`` its trace and ``M`` positive
    semidefinite, so its eigenvalues are at least ``s - err``; its largest
    eigenvalue and Frobenius norm are at most ``tr(M + s I) + err <= t + (K +
    1) err``, since a PSD matrix's Frobenius norm is at most its trace."""
    t = tr + k * s
    err = rounding * t
    return s - err, t + (k + 1) * err


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of the symmetric float ``a``, which is overwritten.

    ``a`` counts as singular when the factorization fails or when the factor's
    smallest diagonal entry is at or below :data:`CHOL_DIAG_RATIO_TOL` times
    its largest; then, or when ``a`` is not finite, :class:`NumericalError` is
    raised, led by ``what`` and stating the measured ratio and the threshold.
    """
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} (the matrix is not finite)")
    chol, info = _POTRF(a.T, overwrite_a=1)  # a.T: the same matrix, Fortran order
    if info != 0:
        raise NumericalError(
            f"{what} (Cholesky factorization failed, LAPACK dpotrf info {info}: "
            "the matrix is not positive definite)"
        )
    diag = chol.diagonal()
    if diag.min() <= CHOL_DIAG_RATIO_TOL * diag.max():
        raise NumericalError(
            f"{what} (Cholesky diagonal ratio {diag.min() / diag.max():.3e} "
            f"is at or below the threshold {CHOL_DIAG_RATIO_TOL:g})"
        )
    return chol


def objective(
    g_hat: np.ndarray,
    state: SolverState,
    t_mats: Sequence[np.ndarray],
    config: SolverConfig,
) -> float:
    """Penalized least-squares objective at the current state."""
    g_hat = np.asarray(g_hat, dtype=float)
    lam_marg = config.marginal_weights(g_hat.ndim - 1)
    data_sq = float(residual_sq(g_hat, state.factors()).sum())
    terms = zip(state.c_tilde, t_mats, lam_marg)
    pen = sum(lam * float(np.sum(c * (t @ c))) for c, t, lam in terms if lam > 0)
    return _objective_value(data_sq, pen, state.b, state.b.T @ state.b, config)


def update_factor(
    gram: np.ndarray,
    rhs: np.ndarray,
    x_old: np.ndarray,
    beta: np.ndarray,
    mu: float,
    mode: int,
    extremes=None,
    spectrum=None,
) -> np.ndarray:
    """Grid-mode-``mode`` factor step in its penalty's eigenbasis ``lambda_d T_d
    = P diag(beta) P'``: ``X`` solving ``X (W'W + mu I) + diag(beta) X = rhs +
    mu x_old``, with ``gram = W'W`` (``W`` the Khatri-Rao product of the other
    factors), ``rhs = P' G_(d) W``, ``x_old`` the rotated current factor and
    ``mu`` the proximal shift, by :func:`_sylvester_tridiag`, given
    ``beta``'s ``extremes`` when known and, from :func:`fit`, bounds
    ``spectrum`` on the eigenvalues of ``W'W + mu I`` (:func:`_check_overlap`).
    No argument is mutated."""
    what = f"factor Gram W'W + mu I of mode {mode}"
    return _sylvester_tridiag(_shifted(gram, mu), beta, rhs + mu * x_old, what, extremes, spectrum)


def update_b_ridge(
    gram: np.ndarray, rhs: np.ndarray, b_old: np.ndarray, config: SolverConfig, shift: float
) -> np.ndarray:
    """Ridge step of the subject coefficients: the rows ``b`` solving ``b (W'W +
    (lambda_coef + shift) I) = rhs + shift b_old`` for ``gram = W'W`` (``W`` the
    Khatri-Rao product of the grid factors), the N x K MTTKRP ``rhs = (W'G)'``
    and the proximal ``shift`` towards the current coefficients ``b_old``
    (:func:`fit` gives each step its own; a zero ``shift`` adds nothing to the
    right-hand side). The guarded :func:`_cholesky` factors the system as
    ``U'U``, and two right-side triangular solves (``dtrsm``) on an F-order
    copy of the right-hand side give ``b``; a singular or non-finite system
    raises :class:`NumericalError`. No argument is mutated."""
    r = np.array(rhs, dtype=float, order="F")  # dtrsm solves in place on F-order rows
    if shift:
        r += shift * b_old
    if not np.isfinite(r).all():
        raise NumericalError(f"{_RIDGE_SINGULAR} (the right-hand side is not finite)")
    chol = _cholesky(_shifted(gram, config.lambda_coef + shift), _RIDGE_SINGULAR)
    r = _TRSM(1.0, chol, r, side=1, overwrite_b=1)  # r U^-1 = b U'
    return _TRSM(1.0, chol, r, side=1, trans_a=1, overwrite_b=1)


def update_b_admm(
    gram: np.ndarray,
    rhs: np.ndarray,
    b_old: np.ndarray,
    config: SolverConfig,
    shift: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, int]:
    """Exact active-set solve of the lasso-penalized subject-coefficient block.

    ``gram`` is ``W'W`` (K x K), ``W`` the Khatri-Rao product of the grid
    factors, ``rhs`` the subject-mode MTTKRP ``(W'G)'`` (N x K) and ``b_old``
    the warm start. Each row ``b`` of the block minimizes
    ``b'A b / 2 - c'b + tau |b|_1`` with ``A = W'W + mu I``,
    ``c = W'G + mu b_old``, ``mu`` the proximal ``shift`` (:func:`fit` gives
    each step its own) and
    ``tau = lambda_coef / 2``: N lasso problems sharing one K x K matrix, which
    is factored once with the guarded :func:`_cholesky`. On a
    sign pattern ``s`` (a signed active set) a row is one Cholesky solve of its
    active rows and columns, ``A_SS b_S = c_S - tau s_S``. The row is certified
    optimal when its KKT conditions hold at rounding-level slack: with
    ``g = A b - c``, ``g_j = -tau s_j`` and ``s_j b_j > 0`` where ``s_j != 0``,
    and ``|g_j| <= tau`` elsewhere.

    The primal-dual active-set update (Hintermueller, Ito and Kunisch, SIAM
    J. Optim. 13, 2002) gives each pattern: at ``x`` it is that of the
    soft-thresholded coordinate step ``x_j - g_j / A_jj``. The first pattern is
    the update at ``x0``, the full-pattern solve ``c A^-1`` off the factor of
    ``A`` for rows whose warm start has no zero and the warm start itself for
    the others; ``x0`` is not a step. Every row is solved on its pattern,
    rows with equal active sets in one solve and rows with a full active set
    off the factor of ``A`` (:func:`_solve_on_patterns`). Uncertified rows get
    up to :data:`_PDAS_PASSES` more passes, each on the update at the last,
    except that an entry whose sign flips a second time is dropped, which
    breaks two-cycles. Rows still uncertified run feature-sign search (Lee, Battle,
    Raina and Ng, NIPS 2007) from whichever of ``b_old`` and their last
    pass has the lower value; it lowers the row objective at every step and
    ends in finitely many. :data:`_LASSO_MAX_STEPS` caps the steps (pattern
    solves) of each row; a row at the cap keeps its iterate, whose value is no
    higher than at ``b_old``, and a warning is issued.

    On three ``cv_lasso`` benchmark ops (N = 40, K = 20, 135 calls) the most
    steps of any row sum to 394 over the calls, against 482 when the first
    pass solved on the warm start's signs, which are stale after the grid
    factors move. Rows fail KKT on a sign flip or an inactive gradient.

    Returns ``(b, z, a_star, converged, n_iters)``: ``z = b'``, ``a_star`` is
    zero, ``converged`` says that every row was certified and ``n_iters`` is
    the most steps any row took. No argument is mutated.
    """
    for name, v in (("W'G (subject-mode MTTKRP)", rhs), ("the warm-start b", b_old)):
        if not np.isfinite(v).all():
            raise NumericalError(f"coefficient lasso block: {name} is not finite")
    what = "coefficient lasso block: Cholesky factorization of W'W + mu I"
    a = _shifted(gram, shift)
    chol = _cholesky(a.copy(), what)
    c, tau = rhs + shift * b_old, config.lambda_coef / 2.0
    solve = partial(_solve_on_patterns, a, chol, what=what)
    abs_a, diag_a = np.abs(a), np.diag(a)
    b, steps = np.zeros_like(c), np.zeros(c.shape[0], dtype=int)
    # the first pattern is the update below at x0: the full-pattern solve where
    # the warm start has no zero, the warm start elsewhere
    x0, full = b_old, (b_old != 0).all(axis=1)
    if full.any():
        x0 = b_old.copy()
        x0[full] = _POTRS(chol, c[full].T)[0].T
    sign = np.sign(soft_threshold(x0 * diag_a - (x0 @ a - c), tau))
    # the rows still uncertified, with their c, |c|, sign pattern and flip record
    todo, c_t, abs_c = np.arange(c.shape[0]), c, np.abs(c)
    flipped = np.zeros(c.shape, dtype=bool)
    for _ in range(min(1 + _PDAS_PASSES, _LASSO_MAX_STEPS)):
        x = solve(c_t - tau * sign, sign != 0)
        b[todo] = x
        steps[todo] += 1
        bad, g = _lasso_kkt(a, abs_a, c_t, abs_c, tau, x, sign)
        new = np.sign(soft_threshold(x * diag_a - g, tau))
        flip = new * sign < 0
        new[flip & flipped] = 0.0
        keep = bad.any(axis=1)
        todo, c_t, abs_c, sign = todo[keep], c_t[keep], abs_c[keep], new[keep]
        flipped = (flipped | flip)[keep]
        if not todo.size:
            break
    converged = True
    for i in todo:
        x, b_i = b[i], b_old[i]
        if _b_conditional_value(a, c[i], b_i, config) <= _b_conditional_value(a, c[i], x, config):
            x = b_i
        cap = _LASSO_MAX_STEPS - steps[i]
        b[i], n, ok = _feature_sign(a, abs_a, c[i], tau, x, solve, config, cap)
        steps[i] += n
        converged &= ok
    if not converged:
        warnings.warn(
            f"coefficient ADMM hit {_LASSO_MAX_STEPS} active-set steps per row before "
            "every lasso row was certified optimal; returning the best iterates",
            RuntimeWarning,
        )
    return b, b.T.copy(), np.zeros_like(b), converged, int(steps.max(initial=0))


def _solve_on_patterns(a, chol, r, act, what: str) -> np.ndarray:
    """Rows ``x`` with ``A_SS x_S = r_S`` on each row's active set ``S`` (the
    boolean row of ``act``) and zero elsewhere. Rows whose ``S`` is full (93%
    of the rows :func:`update_b_admm` solves on the ``cv_lasso`` benchmark)
    share one solve off ``chol``, the Cholesky factor of ``a``, and need no
    gather; when every row is full that solve is the result. Rows sharing any
    other ``S`` share one solve, factored by :func:`_cholesky` (named ``what``)."""
    full = act.all(axis=1)
    if full.all():
        return _POTRS(chol, r.T)[0].T
    x = np.zeros_like(r)
    if full.any():
        x[full] = _POTRS(chol, r[full].T)[0].T
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(~full):
        groups.setdefault(act[i].tobytes(), []).append(i)
    for rows in groups.values():
        s = np.flatnonzero(act[rows[0]])
        if s.size:
            rows = np.array(rows)[:, None]
            x[rows, s] = _POTRS(_cholesky(a[s[:, None], s], what), r[rows, s].T)[0].T
    return x


def _lasso_kkt(a, abs_a, c, abs_c, tau, x, sign) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the rows ``x`` (on sign patterns ``sign``) that break the
    lasso KKT conditions, and the gradient ``x A - c``; ``abs_a = |A|`` and
    ``abs_c = |c|``. The slack is a few rounding errors of the gradient,
    ``4 K eps (|x| |A| + |c| + tau)``."""
    g = x @ a - c
    slack = 4 * a.shape[0] * np.finfo(float).eps * (np.abs(x) @ abs_a + abs_c + tau)
    on = sign != 0
    bad_on = (np.abs(g + tau * sign) > slack) | (sign * x <= 0)
    return np.where(on, bad_on, np.abs(g) > tau + slack), g


def _feature_sign(a, abs_a, c, tau, x, solve, config, max_steps) -> tuple[np.ndarray, int, bool]:
    """Feature-sign search for one row from ``x``: ``(x, steps, certified)``;
    ``abs_a = |A|`` and ``solve`` is :func:`_solve_on_patterns` bound to ``a``
    and its factor.

    When the row is optimal on its active set, the inactive entry of largest
    gradient joins it; then the row moves towards its solve on the active set
    and stops at the endpoint or at a sign change, whichever has the lowest
    value (:func:`_b_conditional_value`). An entry reaching zero leaves.
    """
    x, abs_c = x.copy(), np.abs(c)[None]
    for step in range(max_steps + 1):
        sign = np.sign(x)
        bad, g = (v[0] for v in _lasso_kkt(a, abs_a, c[None], abs_c, tau, x[None], sign[None]))
        if not bad.any() or step == max_steps:
            return x, step, not bad.any()
        if not bad[sign != 0].any():
            j = np.argmax(np.where(bad, np.abs(g), 0.0))
            sign[j] = -np.sign(g[j])
        s = np.flatnonzero(sign)
        d = solve((c - tau * sign)[None], (sign != 0)[None])[0][s] - x[s]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = -x[s] / d
        ts = np.append(cross[(cross > 0) & (cross < 1)], 1.0)
        a_s = a[s[:, None], s]
        t = min(ts, key=lambda t: _b_conditional_value(a_s, c[s], x[s] + t * d, config))
        x[s] += t * d
        x[s[cross == t]] = 0.0


def _b_conditional_value(gram, rhs, b, config: SolverConfig) -> float:
    """Lasso subject-block objective up to a constant: data term plus penalty."""
    val = float(np.sum(b * (b @ gram))) - 2.0 * float(np.sum(b * rhs))
    return val + config.lambda_coef * float(np.sum(np.abs(b)))


def _initialize(g_hat, config: SolverConfig, warm: SolverState | None = None) -> SolverState:
    """The start of every fit: random unit columns from ``config.seed`` for
    every factor, in mode order, whose leading K0 <= K columns a warm start
    overwrites; its extra components are zero in grid factor 0 (the first
    block a sweep updates), so the start keeps the warm start's tensor while
    that step's Gram keeps the other factors' random columns."""
    rng = np.random.default_rng(config.seed)
    factors = []
    for n in g_hat.shape:
        f = rng.standard_normal((n, config.rank))
        factors.append(f / np.linalg.norm(f, axis=0))
    if warm is not None:
        for f, w in zip(factors, warm.factors()):
            f[:, : warm.rank] = w
        factors[0][:, warm.rank :] = 0.0
    return SolverState(c_tilde=factors[:-1], b=factors[-1])


def _gauge_normalize(state: SolverState) -> None:
    """Fix the column gauge in place: order, scale and sign conventions.

    Components are sorted by decreasing weight (product of column norms),
    every grid-mode column is rescaled to unit norm with the magnitude pushed
    into the subject coefficients, and signs are flipped so the largest-
    magnitude entry of each first-mode column is positive. The represented
    tensor is unchanged.
    """
    norms = [np.linalg.norm(c, axis=0) for c in state.c_tilde]
    weights = np.linalg.norm(state.b, axis=0) * np.prod(norms, axis=0)
    order = np.argsort(-weights, kind="stable")
    state.b = state.b[:, order]
    scale = np.ones(state.rank)
    for d, c in enumerate(state.c_tilde):
        c = c[:, order]
        nd = norms[d][order]
        nz = nd > 0
        c[:, nz] /= nd[nz]
        scale[nz] *= nd[nz]
        state.c_tilde[d] = c
    state.b *= scale
    lead = state.c_tilde[0]
    signs = np.sign(lead[np.argmax(np.abs(lead), axis=0), np.arange(state.rank)])
    signs[signs == 0] = 1.0
    state.c_tilde[0] = lead * signs
    state.b *= signs


def fit(
    g_hat: np.ndarray,
    t_mats: Sequence[np.ndarray],
    config: SolverConfig,
    initial_state: SolverState | None = None,
    noise_target: float | None = None,
) -> SolverState:
    """Run block coordinate descent to convergence.

    The setup rotates ``g_hat`` and the start into every penalty's eigenbasis
    (see the module docstring) and cuts the modes at :func:`tensors.half_split`.
    A sweep updates the grid-mode factors in ascending mode order and the
    subject coefficients last, one half at a time: the half contracts the
    matrix view of ``g_hat`` once with the other half's Khatri-Rao product, and
    each of its blocks takes its Gram and MTTKRP from that partial. A factor
    step is :func:`update_factor`, whose Gram is tridiagonalized once; the
    subject block's ridge and lasso solves differ.

    The loop only sweeps, records the objective (the third read of ``g_hat``,
    whose data term is kept as ``state.residual_sq``) and stops after the
    first sweep whose ``residual_sq`` is at or below ``noise_target`` ("noise
    level"), whose objective changed by less than ``config.outer_tol``
    relative to the previous one ("tolerance"), or after
    ``config.max_outer_iters`` sweeps ("sweep cap"); ``state.stop_reason``
    names which. The finish rotates the factors back and
    fixes the gauge (:func:`_gauge_normalize`); the objective trace refers to
    the pre-normalization iterates, whose represented tensor is identical.

    Parameters
    ----------
    g_hat : ndarray
        Compressed data tensor with the subject mode last.
    t_mats : sequence of ndarray
        Transported penalty matrices, one per grid mode.
    config : SolverConfig
    initial_state : SolverState, optional
        Warm start of rank at most ``config.rank`` with one factor per mode,
        each with as many rows as its mode; :func:`_initialize` completes it
        to ``config.rank`` components; without it the start is random unit
        columns from ``config.seed``.
    noise_target : float, optional
        The residual at which the fit has reached the noise level, the
        discrepancy principle's stopping point (Morozov 1966), as
        :meth:`reduction.PreparedProblem.noise_target` gives it. None never stops there.
    """
    g_hat = np.ascontiguousarray(np.asarray(g_hat, dtype=float))
    n_dims = g_hat.ndim - 1
    if n_dims < 1:
        raise ValueError("expected at least one grid mode plus the subject mode")
    if len(t_mats) != n_dims:
        raise ValueError(f"expected {n_dims} penalty matrices, got {len(t_mats)}")
    for d, t in enumerate(t_mats):
        if t.shape != (g_hat.shape[d], g_hat.shape[d]):
            raise ValueError(
                f"penalty matrix {d} has shape {t.shape}, expected square of size {g_hat.shape[d]}"
            )
    if not np.isfinite(g_hat).all():
        raise ValueError("compressed data tensor has non-finite values (NaN or inf)")
    lam_marg = config.marginal_weights(n_dims)
    m_total = math.prod(g_hat.shape[:-1])
    if config.rank > m_total:
        warnings.warn(
            f"rank {config.rank} exceeds the compressed dimension {m_total}; "
            "the decomposition is overparameterized",
            RuntimeWarning,
        )
    warm = initial_state
    if warm is not None:
        if len(warm.c_tilde) != n_dims:
            raise ValueError(f"warm start has {len(warm.c_tilde)} grid factors, expected {n_dims}")
        if warm.rank > config.rank:
            raise ValueError(f"warm start has rank {warm.rank}, above the fit's rank {config.rank}")
        for d, f in enumerate(warm.factors()):
            if f.shape != (g_hat.shape[d], warm.rank):
                name = "b" if d == n_dims else f"c_tilde[{d}]"
                want = (g_hat.shape[d], warm.rank)
                raise ValueError(f"warm-start {name} has shape {f.shape}, expected {want}")
    state = _initialize(g_hat, config, warm)

    # the penalties are constant over the fit: work in their eigenbases, one
    # per penalty array and weight, shared read-only by the modes that have both
    eigs = []
    for d, (t, lam) in enumerate(zip(t_mats, lam_marg)):
        j = next(j for j in range(d + 1) if t_mats[j] is t and lam_marg[j] == lam)
        eigs.append(_eig_sym(lam * t, f"penalty matrix {d}") if j == d else eigs[j])
    betas, rots = [w for w, _ in eigs], [v for _, v in eigs]
    extremes = [(float(w.min()), float(w.max())) for w in betas]  # for the overlap guard
    g_rot = g_hat
    for d, p in enumerate(rots):  # mode_multiply without its checks
        g_rot = np.moveaxis(np.tensordot(p.T, g_rot, axes=(1, d)), 0, d)
    g_rot = np.ascontiguousarray(g_rot)
    factors = [p.T @ c for p, c in zip(rots, state.c_tilde)] + [state.b]
    split = half_split(g_hat.shape)
    halves = ((0, split), (split, n_dims + 1))
    part_shapes = [g_hat.shape[lo:hi] + (-1,) for lo, hi in halves]
    g_mat = g_rot.reshape(math.prod(g_hat.shape[:split]), -1)
    views = (g_mat, g_mat.T)  # the rows of views[h] run over the modes of half h
    grams = [f.T @ f for f in factors]
    # the sweep builds every factor list itself: the unchecked tensor kernels
    krs = [khatri_rao_core(factors[lo:hi]) for lo, hi in halves]
    # per-fit constants of the sweep: each block's other modes, whose Grams'
    # Hadamard product (left to right) is its Gram; the factor steps' Gram
    # rounding relative to the shifted Gram's trace (_gram_rounding); the
    # penalized modes; the objective's residual buffer
    others = [[j for j in range(n_dims + 1) if j != d] for d in range(n_dims + 1)]
    rounding = [_gram_rounding([g_hat.shape[j] for j in others[d]]) for d in range(n_dims)]
    pen_modes = [d for d in range(n_dims) if lam_marg[d] > 0]
    mu, k, lasso, res = config.proximal_mu, config.rank, config.lasso_block, np.empty_like(g_mat)

    def sweep_objective() -> tuple[float, float]:
        # residual_sq without the checks of cp_to_tensor, in the fit's buffer
        np.subtract(g_mat, np.matmul(krs[0], krs[1].T, out=res), out=res)
        data_sq = float(np.vdot(res, res))
        pen = sum(float(np.einsum("i,ik,ik->", betas[d], factors[d], factors[d])) for d in pen_modes)
        return data_sq, _objective_value(data_sq, pen, factors[-1], grams[-1], config)

    def sweep() -> bool:
        """One sweep over both halves; False when a lasso block was left uncertified."""
        certified = True
        for h, (lo, hi) in enumerate(halves):
            # one contraction with the other half serves every block of this one
            part = (views[h] @ krs[1 - h]).reshape(part_shapes[h])
            for d in range(lo, hi):
                gram = reduce(np.multiply, [grams[j] for j in others[d]])
                rhs = partial_mttkrp_core(part, factors[lo:d] + factors[d + 1 : hi], d - lo)
                tr = float(gram.trace())
                s = mu * tr / k  # the proximal shift, relative to the block's Gram
                if s < _TINY:  # no Gram to scale to (a zero b): proximal_mu itself
                    s = mu
                if d < n_dims:
                    bounds = _shifted_spectrum(tr, s, k, rounding[d])
                    new = update_factor(gram, rhs, factors[d], betas[d], s, d, extremes[d], bounds)
                elif lasso:
                    new, _, _, ok, _ = update_b_admm(gram, rhs, factors[d], config, s)
                    certified = certified and ok
                else:
                    new = update_b_ridge(gram, rhs, factors[d], config, s)
                if not np.isfinite(new).all():
                    what = "subject-coefficient" if d == n_dims else f"mode-{d} factor"
                    raise NumericalError(f"{what} update produced non-finite values")
                factors[d] = new
                grams[d] = new.T @ new
            krs[h] = khatri_rao_core(factors[lo:hi])
        return certified

    # objective changes below 1e-12 of the data energy are numerical noise,
    # so the relative-change denominator is floored at that scale
    f_floor = 1e-12 * float(np.vdot(g_hat, g_hat))
    state.residual_sq, f = sweep_objective()
    trace = [f]
    it = 0  # the state from _initialize reads "sweep cap" until a test fires
    for it in range(1, config.max_outer_iters + 1):
        state.lasso_certified &= sweep()
        state.residual_sq, f = sweep_objective()
        trace.append(f)
        if noise_target is not None and state.residual_sq <= noise_target:
            state.stop_reason = "noise level"
            break
        if abs(trace[-2] - f) / max(trace[-2], f_floor, 1e-300) < config.outer_tol:
            state.stop_reason = "tolerance"
            break

    state.c_tilde, state.b = [p @ c for p, c in zip(rots, factors)], factors[-1]
    state.iters = it
    state.objective_trace = np.asarray(trace)
    _gauge_normalize(state)
    return state
