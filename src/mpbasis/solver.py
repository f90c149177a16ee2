"""Penalized CP decomposition of the compressed data tensor.

Block coordinate descent over the factor matrices: each grid-mode factor
solves a Sylvester equation (least squares plus a quadratic roughness
penalty), and the subject-coefficient block solves either a closed-form ridge
problem or, for the lasso penalty, N small lasso problems exactly, by an
active-set method that certifies each row by its KKT conditions. Each step
minimizes the objective over its block, plus ``proximal_mu`` times the squared
step where it carries that term, so the objective trace is nonincreasing. The
grid-mode factor steps and the lasso block carry it, which makes them strongly
convex; the ridge block is shifted by ``lambda_coef`` only, so it is plain
least squares at ``lambda_coef = 0`` (ROADMAP item 3 adds the shift there).

:func:`fit` also works in each penalty's eigenbasis (Demmler-Reinsch): with
``lambda_d T_d = P_d diag(beta_d) P_d'`` diagonalized once per fit, the
tensor's grid modes and the start factors are rotated by ``P_d'`` once, so
each factor step's penalty side is the diagonal ``diag(beta_d)``. The step
tridiagonalizes its K x K Gram once and solves one tridiagonal system per
row of the factor, all stacked into one LAPACK call (the Hessenberg-Schur
method of Golub, Nash and Van Loan, 1979); the inertia of one LDL'
factorization clears its spectra-overlap guard, whose eigenvalues are
computed only when that certificate fails. These, the penalty
eigendecompositions and the Cholesky solves call LAPACK directly.

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
from scipy.linalg import lapack

from .errors import NumericalError
from .jsonspec import check_ints, check_sign
from .tensors import (
    cp_to_tensor,
    half_split,
    khatri_rao_core,
    mode_multiply,
    partial_mttkrp_core,
    per_distinct,
    unfold,
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
#: penalty rotations; the tridiagonal reduction, the LDL' factorization of the
#: overlap certificate, the tridiagonal eigenvalues (root-free QR) when that
#: fails, the orthogonal factor of stored reflectors and the tridiagonal solve
#: of each factor step; the Cholesky factorization and solve. The wrappers
#: check neither finiteness nor symmetry; their callers check finiteness.
_SYEV, _SYTRD, _PTTRF, _STERF, _ORGQR, _GTSV = (
    lapack.dsyev, lapack.dsytrd, lapack.dpttrf, lapack.dsterf, lapack.dorgqr, lapack.dgtsv
)
_POTRF, _POTRS = lapack.dpotrf, lapack.dpotrs

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
        Strong-convexity shift added to each factor update and to the lasso
        coefficient block.
    init : {"random", "hosvd"}
        Random unit-norm columns, or leading singular vectors per unfolding.
    seed : int
        Seed for all solver randomness.
    """

    rank: int
    lambda_marginal: Sequence[float] | float = 0.0
    lambda_coef: float = 0.0
    coef_penalty: str = "ridge"
    max_outer_iters: int = 200
    outer_tol: float = 1e-8
    proximal_mu: float = 1e-8
    init: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        check_ints(self, {"rank": 1, "max_outer_iters": 1, "seed": 0})
        check_sign(self.lambda_marginal, "lambda_marginal", zero_ok=True, many=True)
        self.lambda_coef = check_sign(self.lambda_coef, "lambda_coef", zero_ok=True)
        self.outer_tol = check_sign(self.outer_tol, "outer_tol")
        self.proximal_mu = check_sign(self.proximal_mu, "proximal_mu", zero_ok=True)
        if self.coef_penalty not in ("ridge", "lasso"):
            raise ValueError(f"unknown coef_penalty {self.coef_penalty!r}")
        if self.init not in ("random", "hosvd"):
            raise ValueError(f"unknown init {self.init!r}")

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
    positive semidefinite every ``beta_i + alpha_k`` is positive.
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


def _sylvester_tridiag(m: np.ndarray, beta: np.ndarray, q: np.ndarray, what: str) -> np.ndarray:
    """Solve ``X m + diag(beta) X = q`` for the symmetric K x K ``m`` (named
    ``what``), which is overwritten.

    The Hessenberg-Schur method of Golub, Nash and Van Loan (IEEE Trans.
    Autom. Control 24(6), 1979) with its other side already diagonal: with
    ``m = V T V'`` and ``T`` tridiagonal, row ``i`` of ``Y = X V`` solves
    ``(T + beta_i I) y_i = (q V)_i``. The n systems are stacked into one
    tridiagonal system of order nK, with zero couplings between the blocks,
    and solved by one LAPACK call; ``X = Y V'``. The spectra-overlap guard
    (:func:`_check_overlap`) reads ``T`` before ``V`` is formed.

    It beats one eigendecomposition of ``m`` only from about K = 20 and while
    n stays below about 2 K; at K <= 15 its fixed cost is more than
    ``dsyev``'s whatever n is (README, solver bullets).
    """
    if not np.isfinite(m).all():
        raise NumericalError(f"{what} is not finite")
    n, k = q.shape
    # m.T is the same symmetric matrix in Fortran order: LAPACK works in place
    c, d, e, tau, info = _SYTRD(m.T, lower=1, lwork=_sytrd_lwork(k), overwrite_a=1)
    _check_info(info, "tridiagonal reduction", "dsytrd", what)
    _check_overlap(d, e, beta, what)
    v = np.zeros((k, k))
    v[0, 0] = 1.0
    if k > 1:
        # V = diag(1, V1): the reflectors are stored below T's subdiagonal
        v[1:, 1:], _, info = _ORGQR(c[1:, :-1], tau, overwrite_a=1)
        _check_info(info, "orthogonal factor", "dorgqr", what)
    off = np.zeros((n, k))
    off[:, :-1] = e
    off = off.reshape(-1)[:-1]
    qv = q.copy()  # q V: V's first row and column are those of the identity
    qv[:, 1:] = q[:, 1:] @ v[1:, 1:]
    y, info = _GTSV(
        off, (beta[:, None] + d).reshape(-1), off.copy(), qv.reshape(-1, 1),
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )[3:]
    _check_info(info, "tridiagonal solve", "dgtsv", what)
    return y.reshape(n, k) @ v.T


def _check_overlap(d: np.ndarray, e: np.ndarray, beta: np.ndarray, what: str) -> None:
    """The spectra-overlap guard of :func:`_sylvester_tridiag`: raise
    :class:`NumericalError` when the least ``|beta_i + alpha_k|`` is at or below
    ``1e-14`` times the scale, the largest ``|alpha_k|`` or ``|beta_i|``, where
    ``alpha`` are the eigenvalues of the tridiagonal ``T`` with diagonal ``d``
    and off-diagonal ``e``.

    A certificate clears the common case in O(K) without ``alpha``: ``s_hat``,
    the larger of a Gershgorin bound on ``|alpha|`` and ``max |beta|``, is at
    least the scale, and when the LDL' factorization of ``T - sigma I`` with ``sigma =
    2e-14 s_hat - beta_min`` (``dpttrf``) has positive pivots, every
    eigenvalue of ``T`` exceeds ``sigma`` by Sylvester's law of inertia
    (Demmel, Applied Numerical Linear Algebra, 1997, 5.3), so every ``beta_i +
    alpha_k`` exceeds ``2e-14 s_hat``; the factor 2 covers the rounding of the
    factorization and of the eigenvalues. Only when it fails are ``alpha``
    computed (``dsterf``) and the gap measured."""
    k = d.shape[0]
    lo = beta.min()
    if k > 1:
        # Gershgorin: every alpha_k is within 2 max|e| of some d_i
        s_hat = max(np.abs(d).max() + 2.0 * np.abs(e).max(), -lo, beta.max())
        info = _PTTRF(d - (2e-14 * s_hat - lo), e, overwrite_d=1)[2]
        if info < 0:
            _check_info(info, "overlap certificate", "dpttrf", what)
        if info == 0:
            return
        alpha, info = _STERF(d, e)
        _check_info(info, "tridiagonal eigenvalues", "dsterf", what)
    else:  # T is its diagonal; dpttrf and dsterf refuse an empty off-diagonal
        alpha = d
    # rounding is monotone: when the least sum is >= 0 it is the least |sum|
    gap = lo + alpha[0]
    if gap < 0:
        gap = np.abs(beta[:, None] + alpha[None, :]).min()
    # alpha is ascending: its largest magnitude is at one of its ends
    scale = max(-alpha[0], alpha[-1], abs(beta).max(initial=0.0), 1e-300)
    if gap <= 1e-14 * scale:
        raise NumericalError(
            f"{what}: Sylvester spectra overlap, smallest |beta_i + alpha_k| {gap:.3e} is at or "
            f"below the threshold 1e-14 x scale {scale:.3e} = {1e-14 * scale:.3e}; raise "
            "proximal_mu to shift the factor Gram away from singularity"
        )


def _objective_value(data_sq: float, marginal: float, b: np.ndarray, config: SolverConfig) -> float:
    """Data term ``data_sq`` plus the marginal penalties and that of ``b``."""
    val = data_sq + marginal
    if config.lasso_block:
        val += config.lambda_coef * float(np.sum(np.abs(b)))
    elif config.lambda_coef > 0:
        val += config.lambda_coef * float(np.sum(b**2))
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
    """A copy of the square ``gram`` with ``shift`` added to its diagonal."""
    out = np.array(gram, dtype=float)
    out.flat[:: out.shape[0] + 1] += shift
    return out


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
    diag = np.diag(chol)
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
    return _objective_value(data_sq, pen, state.b, config)


def update_factor(
    gram: np.ndarray, rhs: np.ndarray, x_old: np.ndarray, beta: np.ndarray, mu: float, mode: int
) -> np.ndarray:
    """Grid-mode-``mode`` factor step in its penalty's eigenbasis ``lambda_d T_d
    = P diag(beta) P'``: ``X`` solving ``X (W'W + mu I) + diag(beta) X = rhs +
    mu x_old``, with ``gram = W'W`` (``W`` the Khatri-Rao product of the other
    factors), ``rhs = P' G_(d) W`` and ``x_old`` the rotated current factor,
    by :func:`_sylvester_tridiag`. No argument is mutated."""
    what = f"factor Gram W'W + mu I of mode {mode}"
    return _sylvester_tridiag(_shifted(gram, mu), beta, rhs + mu * x_old, what)


def update_b_ridge(gram: np.ndarray, rhs: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Ridge step of the subject coefficients: the rows ``b`` solving ``b (W'W +
    lambda_coef I) = rhs`` for ``gram = W'W`` (``W`` the Khatri-Rao product of
    the grid factors) and the N x K MTTKRP ``rhs = (W'G)'``, by one guarded
    :func:`_cholesky`; a singular or non-finite system raises
    :class:`NumericalError`. No argument is mutated."""
    if not np.isfinite(rhs).all():
        raise NumericalError(f"{_RIDGE_SINGULAR} (the right-hand side is not finite)")
    chol = _cholesky(_shifted(gram, config.lambda_coef), _RIDGE_SINGULAR)
    x, info = _POTRS(chol, rhs.T)
    if info != 0:
        raise NumericalError(f"{_RIDGE_SINGULAR} (Cholesky solve failed, LAPACK dpotrs info {info})")
    return x.T


def update_b_admm(
    gram: np.ndarray, rhs: np.ndarray, b_old: np.ndarray, config: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, int]:
    """Exact active-set solve of the lasso-penalized subject-coefficient block.

    ``gram`` is ``W'W`` (K x K), ``W`` the Khatri-Rao product of the grid
    factors, ``rhs`` the subject-mode MTTKRP ``(W'G)'`` (N x K) and ``b_old``
    the warm start. Each row ``b`` of the block minimizes
    ``b'A b / 2 - c'b + tau |b|_1`` with ``A = W'W + mu I``,
    ``c = W'G + mu b_old``, ``mu = proximal_mu`` and
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
    a = _shifted(gram, config.proximal_mu)
    chol = _cholesky(a.copy(), what)
    c, tau = rhs + config.proximal_mu * b_old, config.lambda_coef / 2.0
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
    """Random unit columns from ``config.seed`` for every factor, in mode
    order, overwritten by the leading columns that are known: the K0 <= K of a
    warm start, whose extra components are zero in grid factor 0 (the first
    block a sweep updates), so the start keeps the warm start's tensor while
    that step's Gram keeps the other factors' random columns; or, with
    ``init="hosvd"``, each unfolding's leading left singular vectors."""
    rng = np.random.default_rng(config.seed)
    factors = []
    for n in g_hat.shape:
        f = rng.standard_normal((n, config.rank))
        factors.append(f / np.linalg.norm(f, axis=0))
    if warm is not None:
        for f, w in zip(factors, warm.factors()):
            f[:, : warm.rank] = w
        factors[0][:, warm.rank :] = 0.0
    elif config.init == "hosvd":
        for d, f in enumerate(factors):
            u = np.linalg.svd(unfold(g_hat, d), full_matrices=False)[0]
            f[:, : u.shape[1]] = u[:, : config.rank]
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
        to ``config.rank`` components. Overrides ``config.init``.
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
    m_total = int(np.prod(g_hat.shape[:-1]))
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
    # per distinct weighted penalty, shared read-only by the modes that have it
    eigs = per_distinct(
        list(zip(t_mats, lam_marg)),
        lambda d: _eig_sym(lam_marg[d] * t_mats[d], f"penalty matrix {d}"),
    )
    betas, rots = [w for w, _ in eigs], [v for _, v in eigs]
    g_rot = g_hat
    for d, p in enumerate(rots):
        g_rot = mode_multiply(g_rot, p.T, d)
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

    def sweep_objective() -> tuple[float, float]:
        res = g_mat - krs[0] @ krs[1].T  # residual_sq without the checks of cp_to_tensor
        data_sq = float(np.einsum("ij,ij->j", res, res).sum())
        rows_sq = (np.einsum("ik,ik->i", c, c) for c in factors[:n_dims])
        pen = sum(float(b @ r) for b, r, lam in zip(betas, rows_sq, lam_marg) if lam > 0)
        return data_sq, _objective_value(data_sq, pen, factors[-1], config)

    def sweep() -> bool:
        """One sweep over both halves; False when a lasso block was left uncertified."""
        certified = True
        for h, (lo, hi) in enumerate(halves):
            # one contraction with the other half serves every block of this one
            part = (views[h] @ krs[1 - h]).reshape(part_shapes[h])
            for d in range(lo, hi):
                gram = reduce(np.multiply, grams[:d] + grams[d + 1 :])
                rhs = partial_mttkrp_core(part, factors[lo:d] + factors[d + 1 : hi], d - lo)
                if d < n_dims:
                    new = update_factor(gram, rhs, factors[d], betas[d], config.proximal_mu, d)
                elif config.lasso_block:
                    new, _, _, ok, _ = update_b_admm(gram, rhs, factors[d], config)
                    certified = certified and ok
                else:
                    new = update_b_ridge(gram, rhs, config)
                if not np.all(np.isfinite(new)):
                    what = "subject-coefficient" if d == n_dims else f"mode-{d} factor"
                    raise NumericalError(f"{what} update produced non-finite values")
                factors[d] = new
                grams[d] = new.T @ new
            krs[h] = khatri_rao_core(factors[lo:hi])
        return certified

    # objective changes below 1e-12 of the data energy are numerical noise,
    # so the relative-change denominator is floored at that scale
    f_floor = 1e-12 * float(np.sum(g_hat**2))
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
