"""Marginal basis systems on compact intervals.

Two families are provided: clamped B-splines and an orthonormal Fourier
system. Both expose pointwise evaluation (with derivatives) plus the three
integral matrices used downstream:

* ``gram_matrix``     -- pairwise L2 inner products of the basis functions,
* ``penalty_matrix``  -- inner products of a pure-derivative operator applied
  to the basis functions (roughness penalty),
* ``cross_matrix``    -- inner products of the functions against second
  derivatives (needed when assembling global Laplacian penalties).

All three are computed by composite Gauss-Legendre quadrature, per knot span
for B-splines (exact for the piecewise-polynomial integrands) and over 4*rank
uniform panels for Fourier. One quadrature path serves every matrix kind and
derivative order.

B-splines are evaluated by the de Boor-Cox recursion (de Boor, J. Approx.
Theory 6, 1972; Cox, IMA J. Appl. Math. 10, 1972), vectorized over points and
written operation for operation as scipy's ``_deBoor_D``, so the values are
bit-identical to ``scipy.interpolate.BSpline`` without importing it.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .jsonspec import INTEGER, INTERVAL, NUMBER, as_int, check_tagged, list_of

__all__ = [
    "BSplineBasis",
    "FourierBasis",
    "MarginalBasis",
    "gram_matrix",
    "penalty_matrix",
    "cross_matrix",
]

_DOMAIN_SLACK = 1e-12


def _check_points(x: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"non-finite evaluation points: {np.unique(bad).tolist()}")
    a, b = domain
    slack = _DOMAIN_SLACK * max(1.0, abs(a), abs(b))
    if x.size and (x.min() < a - slack or x.max() > b + slack):
        raise ValueError(
            f"evaluation points outside domain [{a}, {b}]: "
            f"range [{x.min()}, {x.max()}]"
        )
    return np.clip(x, a, b)


def _check_domain(domain) -> tuple[float, float]:
    a, b = float(domain[0]), float(domain[1])
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"domain must satisfy a < b with finite endpoints, got [{a}, {b}]")
    return a, b


def _de_boor(t: np.ndarray, k: int, x: np.ndarray, nu: int) -> np.ndarray:
    """``len(x) x (len(t) - k - 1)`` matrix of the order-``nu`` derivatives of
    the degree-``k`` B-splines on knots ``t`` at points ``x`` in ``[t[k], t[-k-1]]``.

    No knot may repeat more than ``k + 1`` times, so every point's span
    ``[t[ell], t[ell + 1])`` (the last span for the right end) is nondegenerate
    and no divisor ``t[ell + q] - t[ell + q - j]`` is zero.
    """
    n = t.size - k - 1
    ell = np.clip(np.searchsorted(t, x, "right") - 1, k, n - 1)  # t[ell] <= x < t[ell + 1]
    win = t[np.arange(1 - k, k + 1)[:, None] + ell]  # rows t[ell - k + 1], ..., t[ell + k]
    h = np.ones((1, x.size))
    for j in range(1, k + 1):
        tb, ta = win[k : k + j], win[k - j : k]  # t[ell + q], t[ell + q - j] for q = 1..j
        values = j <= k - nu  # else one of the last nu levels, which differentiate
        w = (h if values else j * h) / (tb - ta)
        h = np.zeros((j + 1, x.size))
        if values:
            h[1:] = w * (x - ta)
            h[:j] += w * (tb - x)
        else:
            h[1:] = w
            h[:j] -= w
    out = np.zeros((x.size, n))
    out[np.arange(x.size), ell + np.arange(-k, 1)[:, None]] = h
    return out


class BSplineBasis:
    """Clamped B-spline basis of a given rank on ``[a, b]``.

    Parameters
    ----------
    domain : (float, float)
        Interval endpoints, ``a < b``.
    rank : int
        Number of basis functions. Must satisfy ``rank >= degree + 1``.
    degree : int, default 3
        Polynomial degree of the spline pieces.
    knots : array-like, optional
        Full clamped knot vector of length ``rank + degree + 1`` (first and
        last knot each repeated ``degree + 1`` times). Defaults to equispaced
        interior knots on the domain.
    """

    kind = "bspline"

    def __init__(self, domain, rank, degree=3, knots=None):
        a, b = _check_domain(domain)
        rank = as_int(rank, "rank")
        degree = as_int(degree, "degree")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if rank < degree + 1:
            raise ValueError(f"rank {rank} too small for degree {degree}")
        if knots is None:
            interior = np.linspace(a, b, rank - degree + 1)[1:-1]
            knots = np.concatenate([np.full(degree + 1, a), interior, np.full(degree + 1, b)])
        else:
            knots = np.asarray(knots, dtype=float)
            if knots.shape != (rank + degree + 1,):
                raise ValueError(
                    f"knot vector must have length rank + degree + 1 = {rank + degree + 1}"
                )
            if not np.all(np.diff(knots) >= 0):  # also refuses NaN and infinite knots
                raise ValueError("knot vector must be nondecreasing")
            if not (np.all(knots[: degree + 1] == a) and np.all(knots[-degree - 1 :] == b)):
                raise ValueError("knot vector must be clamped to the domain endpoints")
        if np.any(knots[degree + 1 :] == knots[: -degree - 1]):  # a basis function would vanish
            raise ValueError(f"knot multiplicity must not exceed degree + 1 = {degree + 1}")
        self.domain = (a, b)
        self.rank = rank
        self.degree = degree
        self.knots = knots

    @property
    def max_derivative(self) -> int:
        return self.degree

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knots: the span boundaries used for exact quadrature."""
        return np.unique(self.knots)

    def evaluate(self, points, deriv: int = 0) -> np.ndarray:
        """Evaluation matrix with entry ``(i, j) = d^deriv phi_j / dx^deriv (x_i)``."""
        deriv = as_int(deriv, "deriv")
        if deriv < 0:
            raise ValueError("derivative order must be >= 0")
        if deriv > self.degree:
            raise ValueError(
                f"derivative order {deriv} exceeds spline degree {self.degree}"
            )
        return _de_boor(self.knots, self.degree, _check_points(points, self.domain), deriv)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "domain": list(self.domain),
            "rank": self.rank,
            "degree": self.degree,
            "knots": self.knots.tolist(),
        }


class FourierBasis:
    """Fourier basis ``{1, cos, sin, ...}`` scaled to be orthonormal on one period.

    The ``rank`` must be odd: one constant plus ``(rank - 1) / 2`` sine/cosine
    pairs, ordered ``(1, cos_1, sin_1, cos_2, sin_2, ...)``. With period ``T``
    the functions are ``1/sqrt(T)`` and ``sqrt(2/T) cos(2 pi k (x-a)/T)`` etc.,
    which form an orthonormal system on ``[a, a + T]``.
    """

    kind = "fourier"

    def __init__(self, domain, rank, period=None):
        a, b = _check_domain(domain)
        rank = as_int(rank, "rank")
        if rank < 1 or rank % 2 == 0:
            raise ValueError(f"fourier rank must be a positive odd integer, got {rank}")
        period = float(period) if period is not None else b - a
        if not 0 < period < np.inf:
            raise ValueError(f"period must be finite and positive, got {period}")
        self.domain = (a, b)
        self.rank = rank
        self.period = period

    @property
    def max_derivative(self) -> int:
        return np.iinfo(np.int32).max

    @property
    def breakpoints(self) -> np.ndarray:
        a, b = self.domain
        return np.linspace(a, b, 4 * self.rank + 1)

    def evaluate(self, points, deriv: int = 0) -> np.ndarray:
        deriv = as_int(deriv, "deriv")
        if deriv < 0:
            raise ValueError("derivative order must be >= 0")
        x = _check_points(points, self.domain)
        a, _ = self.domain
        t = x - a
        out = np.zeros((x.size, self.rank))
        const = self.period ** -0.5
        out[:, 0] = const if deriv == 0 else 0.0
        amp = (2.0 / self.period) ** 0.5
        shift = deriv * np.pi / 2.0
        for k in range(1, (self.rank - 1) // 2 + 1):
            w = 2.0 * np.pi * k / self.period
            scale = amp * w**deriv
            # d^n cos(wt) = w^n cos(wt + n pi/2), likewise for sin
            out[:, 2 * k - 1] = scale * np.cos(w * t + shift)
            out[:, 2 * k] = scale * np.sin(w * t + shift)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "domain": list(self.domain),
            "rank": self.rank,
            "period": self.period,
        }


MarginalBasis = Union[BSplineBasis, FourierBasis]


_SPEC_KEYS = {"domain": INTERVAL, "rank": INTEGER}
_BASIS_KEYS = {
    "bspline": {**_SPEC_KEYS, "degree": INTEGER, "knots": list_of(NUMBER, "a list of numbers")},
    "fourier": {**_SPEC_KEYS, "period": NUMBER},
}


def basis_from_dict(spec: dict) -> MarginalBasis:
    """Rebuild a basis from its :meth:`to_dict` representation; ``ValueError``
    names a missing, unknown or mistyped key (the constructors check ranges)."""
    s = check_tagged(spec, "basis specification", "kind", _BASIS_KEYS, ("domain", "rank"))
    if s["kind"] == "bspline":
        return BSplineBasis(s["domain"], s["rank"], s.get("degree", 3), s.get("knots"))
    return FourierBasis(s["domain"], s["rank"], s.get("period"))


def _gauss_nodes(basis: MarginalBasis, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over the basis breakpoints."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(npoints)
    bp = basis.breakpoints
    lo, hi = bp[:-1], bp[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _integral_matrix(basis: MarginalBasis, da: int, db: int) -> np.ndarray:
    degree = basis.degree if isinstance(basis, BSplineBasis) else 5
    npoints = degree + max(da, db) + 1
    x, w = _gauss_nodes(basis, npoints)
    fa = basis.evaluate(x, deriv=da)
    fb = fa if db == da else basis.evaluate(x, deriv=db)
    return fa.T @ (w[:, None] * fb)


def gram_matrix(basis: MarginalBasis) -> np.ndarray:
    """Symmetric positive-definite matrix of pairwise L2 inner products."""
    g = _integral_matrix(basis, 0, 0)
    return 0.5 * (g + g.T)


def penalty_matrix(basis: MarginalBasis, order: int) -> np.ndarray:
    """PSD matrix of inner products of the basis functions' ``order``-th derivatives."""
    order = as_int(order, "penalty order")
    if order < 1:
        raise ValueError(f"penalty order must be >= 1, got {order}")
    if order > basis.max_derivative:
        raise ValueError(
            f"penalty order {order} is too high for this basis "
            f"(max derivative {basis.max_derivative}); the penalty would vanish"
        )
    r = _integral_matrix(basis, order, order)
    return 0.5 * (r + r.T)


def cross_matrix(basis: MarginalBasis) -> np.ndarray:
    """Matrix of inner products of basis functions against second derivatives.

    Entry ``(i, j)`` is the integral of ``phi_i * phi_j''``; not symmetric in
    general (boundary terms do not vanish for splines).
    """
    if basis.max_derivative < 2:
        raise ValueError("cross matrix requires a twice-differentiable basis")
    return _integral_matrix(basis, 0, 2)
