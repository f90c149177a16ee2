"""Isometric data reduction through thin SVDs of the basis evaluation matrices.

A data tensor observed on a grid is compressed mode by mode with the left
singular vectors of each evaluation matrix ``Phi_d = U_d diag(s_d) V_d'``.
Least-squares fitting in the compressed coordinates is equivalent to fitting
in the original ones, and roughness penalties transport through the same
factorization (``penalty_transform``). ``prepare`` runs the whole reduction:
evaluate, factorize, transport, compress, and returns it as a
:class:`PreparedProblem`.

The set-up of a marginal, its evaluation matrix, thin SVD and transported
penalty, depends on its basis, grid and penalty order only, never on the
data. One memo bounded by :data:`SETUP_ENTRIES` keeps it per process, keyed
by :func:`marginal_key`: :func:`prepare`, :meth:`model.MPBModel.project` and
:meth:`model.MPBModel.marginal_values` read the same entries, so equal
dimensions of one call and repeated calls on one design compute it once. The
same memo keeps each basis's quadrature matrices (:func:`quadrature`), which
depend on the basis alone, for the model's Gram and Laplacian forms.

Because compression is linear per subject, a subset of subjects is a slice of
the compressed tensor, and the residual of any fit whose grid-mode factors
lie in the span of the ``U_d`` splits exactly into an in-span part, computed
in compressed coordinates by :func:`lstsq_compressed`, and the out-of-span
energy of :func:`out_of_span_sq`. The same split of the data energy gives the
noise estimate :attr:`PreparedProblem.noise_var`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from . import basis as basis_mod
from .errors import NumericalError
from .jsonspec import as_int
from .solver import SolverConfig, residual_dof
from .tensors import khatri_rao, mode_multiply

__all__ = [
    "MarginalFactorization",
    "PreparedProblem",
    "check_inputs",
    "prepare",
    "out_of_span_sq",
    "lstsq_compressed",
    "factorize",
    "marginal_key",
    "evaluation",
    "factorization",
    "transported_penalty",
    "quadrature",
    "compress",
    "penalty_transform",
    "back_transform",
    "forward_transform",
]

#: Hard error below this relative smallest singular value.
RANK_TOL = 1e-10

#: :func:`lstsq_compressed` counts its least-squares matrix as rank deficient
#: when the smallest diagonal entry of its R factor is at or below this
#: multiple of the largest. The Cholesky factor of the normal matrix has the
#: same diagonal, so this is the threshold the solver's ridge step applies.
QR_DIAG_RATIO_TOL = 1e-7

#: Entries of the data that :func:`out_of_span_sq` reads at once (2 MiB of
#: float64, which with its reconstruction buffer stays in cache): a slab of
#: whole rows of the leading grid mode, at least one row.
SLAB_ENTRIES = 1 << 18

#: :attr:`PreparedProblem.noise_var` is None when the energy outside the span
#: of the compression is at or below this multiple of the data energy: there
#: the difference of the two energies is rounding, not noise (noise-free data).
NOISE_FLOOR = 1e-8

#: Array entries that the set-up memo holds at most (16 MiB of float64): the
#: evaluation matrices, thin SVDs and transported penalties used last, the
#: least recently used dropped first. A set-up larger than this is not kept.
SETUP_ENTRIES = 1 << 21


@dataclass(frozen=True)
class MarginalFactorization:
    """Thin SVD ``phi = u @ diag(s) @ vt`` of one basis evaluation matrix."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @classmethod
    def of(cls, phi: np.ndarray) -> MarginalFactorization:
        """The thin SVD of ``phi``, with no rank guard, as read-only arrays."""
        u, s, vt = np.linalg.svd(phi, full_matrices=False)
        return cls(u=_read_only(u), s=_read_only(s), vt=_read_only(vt))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.s.shape[0]

    @property
    def size(self) -> int:
        """Array entries held, as ``ndarray.size``."""
        return self.u.size + self.s.size + self.vt.size

    def guarded(self, dim: int | None = None) -> MarginalFactorization:
        """This factorization, after the rank guard of :func:`factorize`."""
        shape = (self.n, self.vt.shape[1])
        if shape[0] < shape[1]:
            raise ValueError(f"expected a tall n x m matrix, got shape {shape}")
        if self.s[-1] <= RANK_TOL * self.s[0]:
            where = f" for dimension {dim}" if dim is not None else ""
            raise NumericalError(
                f"basis evaluation matrix{where} is rank deficient: "
                f"singular value ratio {self.s[-1] / self.s[0]:.3e} <= {RANK_TOL:.0e}; "
                "reduce the basis rank or refine the grid"
            )
        return self


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
    return MarginalFactorization.of(phi).guarded(dim)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(spec: Any) -> Any:
    """``spec`` with its dicts as key-sorted tuples of items and its lists as
    tuples: hashable, and equal exactly when ``spec`` is."""
    if isinstance(spec, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in spec.items()))
    return tuple(map(_frozen, spec)) if isinstance(spec, (list, tuple)) else spec


def marginal_key(basis, grid, order: int | None = None) -> tuple:
    """The hashable key of one marginal: its basis specification (``to_dict()``),
    its grid's shape and points as bytes and, where given, its penalty order.
    Equal keys mean the same evaluation matrix, factorization and transported
    penalty, which the set-up memo therefore keeps once."""
    grid = np.asarray(grid, dtype=float) + 0.0  # -0.0 and 0.0 are the same point
    key = (_frozen(basis.to_dict()), grid.shape, grid.tobytes())
    return key if order is None else (*key, order)


class _Memo:
    """Results kept by key within :data:`SETUP_ENTRIES` array entries, the least
    recently used dropped first. A result whose computation raises is not kept.
    Threads share it: the lock guards the table, never a computation, so two
    threads may both compute a missing result and the later one is kept."""

    def __init__(self) -> None:
        self.table: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self.entries = 0
        self.lock = threading.Lock()

    def get(self, key: tuple, make: Callable[[], Any]) -> Any:
        """The result kept under ``key``, else ``make()``, kept when its
        ``size`` (array entries) allows."""
        with self.lock:
            hit = self.table.get(key)
            if hit is not None:
                self.table.move_to_end(key)
                return hit[0]
        value = make()
        size = value.size
        with self.lock:
            self.entries -= self.table.pop(key, (None, 0))[1]
            if size <= SETUP_ENTRIES:
                self.table[key] = (value, size)
                self.entries += size
            while self.entries > SETUP_ENTRIES:
                self.entries -= self.table.popitem(last=False)[1][1]
        return value


_SETUPS = _Memo()


def evaluation(basis, grid, key: tuple | None = None) -> np.ndarray:
    """The read-only evaluation matrix of ``basis`` on ``grid``, from the
    set-up memo, keyed by :func:`marginal_key`. Each memo reader takes that
    key as ``key`` from a caller that has it, and computes it when None."""
    key = marginal_key(basis, grid) if key is None else key
    return _SETUPS.get(("evaluation", key), lambda: _read_only(basis.evaluate(grid)))


def factorization(basis, grid, key: tuple | None = None) -> MarginalFactorization:
    """The thin SVD of :func:`evaluation`, with no rank guard (a grid coarser
    than the basis works), from the set-up memo; :func:`prepare` applies the
    guard of :func:`factorize` to it (:meth:`MarginalFactorization.guarded`)."""
    key = marginal_key(basis, grid) if key is None else key
    make = lambda: MarginalFactorization.of(evaluation(basis, grid, key))  # noqa: E731
    return _SETUPS.get(("svd", key), make)


def transported_penalty(basis, grid, order: int, key: tuple | None = None) -> np.ndarray:
    """The read-only order-``order`` roughness penalty of ``basis`` transported
    by :func:`penalty_transform` through :func:`factorization`, from the set-up
    memo, keyed by :func:`marginal_key` with the order. Meaningful for a
    guarded factorization only."""
    key = marginal_key(basis, grid) if key is None else key
    make = lambda: _read_only(  # noqa: E731
        penalty_transform(factorization(basis, grid, key), basis_mod.penalty_matrix(basis, order))
    )
    return _SETUPS.get(("penalty", (*key, order)), make)


def quadrature(basis, name: str, *args) -> np.ndarray:
    """The read-only quadrature matrix ``basis.<name>(basis, *args)`` of
    :mod:`basis` (``gram_matrix``, ``penalty_matrix`` with its order,
    ``cross_matrix``), from the set-up memo, keyed by the basis
    specification, ``name`` and ``args``: it depends on no grid."""
    make = lambda: _read_only(getattr(basis_mod, name)(basis, *args))  # noqa: E731
    return _SETUPS.get((name, (_frozen(basis.to_dict()), *args)), make)


def compress(y: np.ndarray, facs: Sequence[MarginalFactorization]) -> np.ndarray:
    """Contract ``U_d'`` against each grid mode; the subject mode is untouched.
    Data with a NaN or inf, which reaches the result, raises ``ValueError``."""
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
    with np.errstate(invalid="ignore"):  # inf - inf: refused below
        for d, f in enumerate(facs):
            out = mode_multiply(out, f.u.T, d)
    if not np.isfinite(out).all():
        raise ValueError("data tensor has non-finite values (NaN or inf)")
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


@dataclass(frozen=True)
class PreparedProblem:
    """A sample reduced to the compressed problem the solver fits.

    Holds the factorization of each evaluation matrix (``facs``), the
    transported penalties (``t_mats``), the compressed tensor ``g_hat``
    with the subject mode last and the data energy ``y_sq``, together with
    the grids and penalty orders it was prepared from and each dimension's
    :func:`marginal_key` (``keys``, one per dimension), so that a fit can
    check it is given the same ones. ``y_sq`` holds each subject's share
    of the data energy: ``|y_i|^2``, less ``|mean|^2`` after
    :meth:`centered`, so that its sum is the energy of the data fitted;
    ``mean`` is the grid mean :meth:`centered` took from the data and
    removed, or None; an all-zero ``g_hat`` is refused.
    """

    facs: tuple[MarginalFactorization, ...]
    t_mats: tuple[np.ndarray, ...]
    g_hat: np.ndarray
    y_sq: np.ndarray
    grids: tuple[np.ndarray, ...]
    penalty_orders: tuple[int, ...]
    keys: tuple[tuple, ...]
    mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not np.vdot(self.g_hat, self.g_hat) > 0.0:
            raise ValueError("data tensor has zero norm")

    @property
    def noise_dof(self) -> int:
        """Degrees of freedom outside the span of the compression: ``prod n_d -
        prod m_d`` per subject, for N subjects or N - 1 after :meth:`centered`."""
        n_out = math.prod(f.n for f in self.facs) - math.prod(f.m for f in self.facs)
        return (self.g_hat.shape[-1] - (self.mean is not None)) * n_out

    def subjects(self, index) -> PreparedProblem:
        """The same problem for the subjects ``index`` selects (a boolean
        mask or integer indices along the subject mode). Compression is
        linear per subject, so this equals preparing those subjects alone."""
        return replace(self, g_hat=self.g_hat[..., index], y_sq=self.y_sq[index])

    def centered(self, y: np.ndarray) -> PreparedProblem:
        """The same problem for the data less its subject mean. ``y`` is the grid tensor of
        this problem's subjects, shaped as the grids plus the subject count; its mean over
        subjects is kept as ``mean``. Compression is linear, so ``g_hat`` loses its own subject
        mean, and the data energy becomes ``sum |y_i - mean|^2 = sum |y_i|^2 - N |mean|^2``.
        Needs two or more subjects and an uncentered problem."""
        if self.g_hat.shape[-1] < 2:
            raise ValueError("centering needs at least two subjects")
        if self.mean is not None:
            raise ValueError("the problem is already centered")
        y, shape = np.asarray(y, dtype=float), (*(f.n for f in self.facs), self.g_hat.shape[-1])
        if y.shape != shape:
            raise ValueError(f"data tensor has shape {y.shape}, expected {shape}")
        mean = y.mean(axis=-1)
        flat = mean.ravel()
        g, sq = self.g_hat, self.y_sq - float(flat @ flat)
        return replace(self, g_hat=g - g.mean(axis=-1, keepdims=True), y_sq=sq, mean=mean)

    @cached_property
    def g_hat_sq(self) -> float:
        """``|g_hat|^2``, the data energy in the span of the compression, taken
        once per problem."""
        return float(np.sum(self.g_hat**2))

    @cached_property
    def noise_var(self) -> float | None:
        """The white-noise variance estimated from the energy outside the
        span of the compression: ``(sum |y_i|^2 - |g_hat|^2) / noise_dof``,
        taken once per problem. The difference equals :func:`out_of_span_sq`'s
        sum and costs no pass over the data. None when ``noise_dof`` is 0 or
        when that energy is at or below :data:`NOISE_FLOOR` times the data
        energy."""
        dof = self.noise_dof
        total = float(self.y_sq.sum())
        outside = total - self.g_hat_sq
        if dof == 0 or not outside > NOISE_FLOOR * total:
            return None
        return outside / dof

    def noise_target(self, config: SolverConfig) -> float | None:
        """``noise_var`` times :func:`solver.residual_dof` at ``config.rank`` (N - 1 subjects
        after :meth:`centered`): the residual a fit leaves at the noise level, the discrepancy
        principle's target (Morozov 1966). None without an estimate or freedom, and when
        ``config.lasso_block``, whose degrees of freedom differ (Zou, Hastie & Tibshirani 2007)."""
        if config.lasso_block:
            return None
        *ms, n = self.g_hat.shape
        dof, var = residual_dof((*ms, n - (self.mean is not None)), config.rank), self.noise_var
        return None if var is None or dof <= 0 else var * dof

    def check_source(
        self, grids: Sequence[np.ndarray], bases: Sequence, penalty_orders: Sequence[int]
    ) -> None:
        """Raise ``ValueError`` unless the problem was prepared from these
        penalty orders and, dimension by dimension, equal
        :func:`marginal_key`: the same grid points and basis specifications,
        whether or not the objects are the same. Only the caller's marginals
        are keyed; the problem's keys are those :func:`prepare` took."""
        same = (
            len(grids) == len(bases) == len(self.keys)
            and list(map(marginal_key, bases, grids)) == list(self.keys)
            and tuple(as_int(o, "penalty order") for o in penalty_orders)
            == self.penalty_orders
        )
        if not same:
            raise ValueError(
                "the prepared problem was made from other grids, bases or penalty orders"
            )


def check_inputs(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Check gridded data against its grids, bases and penalty orders.

    Requires one grid mode per basis plus the subject mode, one grid (and,
    when ``penalty_orders`` is given, one penalty order) per basis, and each
    grid one-dimensional and as long as its mode. Returns ``y`` and the grids
    as float arrays; raises ``ValueError`` naming the first mismatch.
    """
    y = np.asarray(y, dtype=float)
    n_dims = len(bases)
    if y.ndim != n_dims + 1:
        raise ValueError(f"data tensor has {y.ndim} modes, expected {n_dims + 1}")
    if len(grids) != n_dims or (penalty_orders is not None and len(penalty_orders) != n_dims):
        orders = "" if penalty_orders is None else " and one penalty order"
        raise ValueError(f"need one grid{orders} per dimension")
    grids = [np.asarray(g, dtype=float) for g in grids]
    for d, (g, n) in enumerate(zip(grids, y.shape)):
        if g.ndim != 1:
            raise ValueError(f"grid {d} must be 1-d, got shape {g.shape}")
        if g.size != n:
            raise ValueError(f"grid {d} has {g.size} points but the tensor mode has size {n}")
    return y, grids


def prepare(
    y: np.ndarray,
    grids: Sequence[np.ndarray],
    bases: Sequence,
    penalty_orders: Sequence[int] | None = None,
) -> PreparedProblem:
    """Reduce gridded data to the compressed problem the solver fits.

    Checks the inputs (:func:`check_inputs`), takes each basis's evaluation
    on its grid and its factorization (:func:`factorization`) and applies
    the rank guard of :func:`factorize` to it, naming the dimension, takes
    the order-``penalty_orders[d]`` roughness penalty of each basis
    transported (:func:`transported_penalty`), compresses ``y`` and takes
    each subject's energy ``|y_i|^2`` in one pass. Without
    ``penalty_orders``, ``t_mats`` is empty: the reduction alone, which
    :func:`selection.select_marginal_rank` measures. The set-up comes from
    the memo, which computes it once per distinct :func:`marginal_key` and
    shares it, read-only, with every dimension and call that has that key;
    each dimension's key is computed once and kept as ``keys``.
    """
    y, grids = check_inputs(y, grids, bases, penalty_orders)
    orders = () if penalty_orders is None else penalty_orders
    orders = tuple(as_int(o, "penalty order") for o in orders)
    keys, facs = [], []
    for d, (b, g) in enumerate(zip(bases, grids)):
        keys.append(marginal_key(b, g))
        facs.append(factorization(b, g, keys[d]).guarded(d))
    t_mats = [transported_penalty(*m) for m in zip(bases, grids, orders, keys)]
    flat = y.reshape(-1, y.shape[-1])
    return PreparedProblem(
        facs=tuple(facs),
        t_mats=tuple(t_mats),
        g_hat=compress(y, facs),
        y_sq=np.einsum("ij,ij->j", flat, flat),
        grids=tuple(grids),
        penalty_orders=orders,
        keys=tuple(keys),
    )


def out_of_span_sq(
    y: np.ndarray, facs: Sequence[MarginalFactorization], g_hat: np.ndarray
) -> np.ndarray:
    """Squared norm of each subject's part outside the span of the ``U_d``.

    Returns ``|y_i - P y_i|^2`` per subject, where ``P y_i`` is ``g_hat_i =
    compress(y, facs)_i`` mapped back to the grid by contracting ``U_d``
    against each mode; to center, subtract the mean from a copy of ``y``
    and from ``g_hat`` first. ``g_hat`` is mapped back once in every mode
    but the leading one, and ``y`` is read in slabs of whole rows of that
    mode (contiguous in C order) of at most :data:`SLAB_ENTRIES` entries,
    whose in-span parts take turns in one buffer per call. Each slab's
    difference is formed directly, never as ``|y_i|^2 - |g_hat_i|^2``,
    which cancels to sqrt(eps) accuracy near an in-span subject.
    """
    part = np.asarray(g_hat, dtype=float)
    for d, f in enumerate(facs[1:], 1):
        part = mode_multiply(part, f.u, d)
    lead = part.reshape(part.shape[0], -1)
    rows = max(1, SLAB_ENTRIES // max(1, math.prod(y.shape[1:])))
    out = np.zeros(y.shape[-1])
    buf = np.empty((min(rows, y.shape[0]), lead.shape[1]))  # every slab's in-span part
    for lo in range(0, y.shape[0], rows):
        u = facs[0].u[lo : lo + rows]
        r = np.matmul(u, lead, out=buf[: u.shape[0]]).reshape(u.shape[:1] + part.shape[1:])
        np.subtract(y[lo : lo + rows], r, out=r)
        r = r.reshape(-1, r.shape[-1])
        out += np.einsum("ij,ij->j", r, r)
    return out


def lstsq_compressed(
    g: np.ndarray, mats: Sequence[np.ndarray], out_sq: np.ndarray, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares subject coefficients in compressed coordinates.

    ``g`` is a compressed tensor ``(m_1, ..., m_D, N)`` and ``mats`` holds
    the ``m_d x K`` compressed marginal functions, so the product functions
    are the columns of ``A = khatri_rao(mats)``. Solves
    ``min |g_i - A c_i|`` for every subject by one QR factorization of the
    small ``prod(m_d) x K`` matrix ``A``, without forming ``A'A``. Returns
    ``(coefs, resid_sq)``: the ``N x K`` coefficients and each subject's
    squared residual, the in-span residual ``g_i - A c_i`` formed directly
    plus the out-of-span energy ``out_sq`` (see :func:`out_of_span_sq`).

    Raises
    ------
    NumericalError
        Led by ``what``, when ``A`` has fewer rows than columns or the
        smallest diagonal entry of its R factor is at or below
        :data:`QR_DIAG_RATIO_TOL` times the largest, or when ``A`` or ``g``
        is not finite.
    """
    a = khatri_rao(mats)
    g_mat = g.reshape(a.shape[0], -1)
    if not (np.isfinite(a).all() and np.isfinite(g_mat).all()):
        raise NumericalError(f"{what} (the least-squares problem is not finite)")
    if a.shape[0] < a.shape[1]:
        raise NumericalError(
            f"{what} ({a.shape[1]} product functions in {a.shape[0]} compressed coordinates)"
        )
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= QR_DIAG_RATIO_TOL * diag.max():
        ratio = diag.min() / diag.max() if diag.max() > 0 else 0.0
        raise NumericalError(
            f"{what} (QR diagonal ratio {ratio:.3e} is at or below the threshold "
            f"{QR_DIAG_RATIO_TOL:g})"
        )
    x = solve_triangular(r, q.T @ g_mat)
    resid = g_mat - a @ x
    return x.T, np.einsum("ij,ij->j", resid, resid) + out_sq


def back_transform(fac: MarginalFactorization, c_tilde: np.ndarray) -> np.ndarray:
    """Compressed coefficients to basis coefficients: ``V diag(1/s) c_tilde``."""
    c_tilde = np.asarray(c_tilde, dtype=float)
    if c_tilde.shape[0] != fac.m:
        raise ValueError(f"coefficients have {c_tilde.shape[0]} rows, expected {fac.m}")
    return fac.vt.T @ (c_tilde / fac.s[:, None])


def forward_transform(fac: MarginalFactorization, c: np.ndarray) -> np.ndarray:
    """Basis coefficients to compressed coefficients: ``diag(s) V' c``, which
    is ``U' (Phi c)``. ``c`` has one row per column of ``vt`` (the basis rank,
    which exceeds ``m`` on a grid coarser than the basis)."""
    c = np.asarray(c, dtype=float)
    if c.shape[0] != fac.vt.shape[1]:
        raise ValueError(f"coefficients have {c.shape[0]} rows, expected {fac.vt.shape[1]}")
    return fac.s[:, None] * (fac.vt @ c)
