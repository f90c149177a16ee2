"""Basis systems against closed forms, finite differences and dense quadrature."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import BSpline

from mpbasis.basis import (
    BSplineBasis,
    FourierBasis,
    cross_matrix,
    gram_matrix,
    penalty_matrix,
)


def trapezoid_matrix(basis, da, db, n=100_000):
    """Dense trapezoid oracle for integral matrices."""
    a, b = basis.domain
    x = np.linspace(a, b, n)
    fa = basis.evaluate(x, da)
    fb = basis.evaluate(x, db)
    w = np.full(n, (b - a) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return fa.T @ (w[:, None] * fb)


# ---------------------------------------------------------------- evaluation


def test_bspline_partition_of_unity():
    basis = BSplineBasis((0.0, 1.0), 12)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=1000)
    rows = basis.evaluate(x).sum(axis=1)
    assert np.abs(rows - 1.0).max() < 1e-12


def test_fourier_row_at_zero():
    basis = FourierBasis((0.0, 1.0), 5)
    row = basis.evaluate([0.0])[0]
    assert np.allclose(row, [1.0, np.sqrt(2), 0.0, np.sqrt(2), 0.0], atol=1e-15)


def test_bspline_derivative_matches_central_differences():
    basis = BSplineBasis((0.0, 1.0), 9)
    x = np.array([0.13, 0.37, 0.52, 0.88])
    h = 1e-5
    fd = (basis.evaluate(x + h) - basis.evaluate(x - h)) / (2 * h)
    assert np.abs(basis.evaluate(x, 1) - fd).max() < 1e-6


def test_fourier_derivative_matches_central_differences():
    basis = FourierBasis((0.0, 1.0), 7)
    x = np.array([0.21, 0.5, 0.83])
    h = 1e-6
    fd = (basis.evaluate(x + h) - basis.evaluate(x - h)) / (2 * h)
    assert np.abs(basis.evaluate(x, 1) - fd).max() < 1e-4


def bspline_columns_one_by_one(basis, x, deriv):
    """Reference evaluation: one spline per basis function, unit coefficients."""
    out = np.empty((x.size, basis.rank))
    for j in range(basis.rank):
        coef = np.zeros(basis.rank)
        coef[j] = 1.0
        out[:, j] = BSpline(basis.knots, coef, basis.degree, extrapolate=False)(x, nu=deriv)
    return out


@pytest.mark.parametrize(
    "basis",
    [
        BSplineBasis((0.0, 1.0), 12),
        BSplineBasis((-1.0, 2.0), 9, degree=2),
        BSplineBasis((0.0, 1.0), 5, degree=4),
    ],
)
def test_bspline_evaluate_matches_per_function_loop(basis):
    rng = np.random.default_rng(1)
    a, b = basis.domain
    x = np.concatenate([[a, b], np.unique(basis.knots), rng.uniform(a, b, size=400)])
    for deriv in range(basis.degree + 1):
        ref = bspline_columns_one_by_one(basis, x, deriv)
        assert np.array_equal(basis.evaluate(x, deriv), ref)


def knot_vectors(k):
    """Uniform knots, then interior knots of every multiplicity up to k + 1."""
    yield BSplineBasis((-1.0, 2.0), k + 7, degree=k).knots
    for m in range(2, k + 2):
        interior = [-0.6, *[0.3] * m, 0.5, 1.4]
        yield np.array([-1.0] * (k + 1) + interior + [2.0] * (k + 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_bspline_evaluate_is_bit_identical_to_scipy(k):
    # the kernel copies scipy's de Boor recursion operation by operation
    rng = np.random.default_rng(k)
    nodes = np.polynomial.legendre.leggauss(k + 2)[0]
    for knots in knot_vectors(k):
        basis = BSplineBasis((-1.0, 2.0), knots.size - k - 1, degree=k, knots=knots)
        for x in (
            np.array([-1.0]), np.array([2.0]), np.unique(knots), np.linspace(-1.0, 2.0, 201),
            rng.uniform(-1.0, 2.0, 300), 0.5 + 1.5 * nodes, np.empty(0),
        ):
            for nu in range(k + 1):
                ref = BSpline(knots, np.eye(basis.rank), k, extrapolate=False)(x, nu=nu)
                got = basis.evaluate(x, nu)
                assert got.shape == ref.shape == (x.size, basis.rank)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def scipy_modules_loaded_by(statement):
    code = f"import sys; {statement}; print(*(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_import_loads_no_scipy_subpackage_but_linalg():
    # compared with scipy.linalg's own imports, which differ between releases:
    # older ones import scipy.sparse from scipy.linalg._sketches at module level
    extra = scipy_modules_loaded_by("import mpbasis") - scipy_modules_loaded_by("import scipy.linalg")
    assert not extra, sorted(extra)


def test_evaluate_refuses_non_finite_points():
    # NaN fails every comparison, so the domain check alone would let it through
    for basis in (BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 1.0), 3)):
        for bad in ([np.nan], [0.5, np.inf], [-np.inf, 0.2, np.nan]):
            with pytest.raises(ValueError, match="non-finite evaluation points"):
                basis.evaluate(bad)


@pytest.mark.parametrize(
    "basis", [BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 1.0), 5)], ids=["bspline", "fourier"]
)
def test_evaluate_refuses_points_that_are_not_1d_by_name(basis):
    # a 2-d array used to fail in numpy's broadcasting, naming no input
    for shape in ((3, 4), (12, 1)):
        points = np.linspace(0.0, 1.0, 12).reshape(shape)
        message = f"evaluation points must be a scalar or 1-d, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            basis.evaluate(points)
    assert np.array_equal(basis.evaluate(0.25), basis.evaluate([0.25]))


def test_evaluate_outside_domain_raises():
    basis = BSplineBasis((0.0, 1.0), 6)
    with pytest.raises(ValueError, match="outside domain"):
        basis.evaluate([1.2])
    with pytest.raises(ValueError, match="outside domain"):
        FourierBasis((0.0, 1.0), 3).evaluate([-0.1])


def test_evaluate_derivative_beyond_smoothness_raises():
    basis = BSplineBasis((0.0, 1.0), 6, degree=3)
    with pytest.raises(ValueError, match="exceeds spline degree"):
        basis.evaluate([0.5], deriv=4)


# ---------------------------------------------------------------- gram matrix


def test_fourier_gram_is_identity():
    basis = FourierBasis((0.0, 1.0), 9)
    assert np.abs(gram_matrix(basis) - np.eye(9)).max() < 1e-12


def test_bspline_gram_structure_and_quadrature_oracle():
    # 10 equispaced interior knots -> rank 14 cubic basis
    basis = BSplineBasis((0.0, 1.0), 14)
    assert len(basis.breakpoints) - 2 == 10
    g = gram_matrix(basis)
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g)[0] > 0
    # banded with bandwidth = degree
    for i in range(14):
        for j in range(14):
            if abs(i - j) > basis.degree:
                assert g[i, j] == 0.0
    ref = trapezoid_matrix(basis, 0, 0)
    assert np.abs(g - ref).max() < 1e-8


def test_constant_basis_gram():
    basis = FourierBasis((0.0, 1.0), 1)
    assert np.allclose(gram_matrix(basis), [[1.0]], atol=1e-14)


# -------------------------------------------------------------- penalty matrix


def test_bspline_penalty_annihilates_affine():
    basis = BSplineBasis((0.0, 1.0), 10)
    r = penalty_matrix(basis, 2)
    # Greville abscissae give the coefficient vector reproducing f(x) = x
    p = basis.degree
    t = basis.knots
    greville = np.array([t[i + 1 : i + p + 1].mean() for i in range(basis.rank)])
    assert np.abs(r @ greville).max() < 1e-9
    assert np.abs(r @ np.ones(basis.rank)).max() < 1e-9


def test_fourier_penalty_closed_form():
    basis = FourierBasis((0.0, 1.0), 5)
    r = penalty_matrix(basis, 2)
    expect = np.diag([0.0, (2 * np.pi) ** 4, (2 * np.pi) ** 4, (4 * np.pi) ** 4, (4 * np.pi) ** 4])
    assert np.abs(r - expect).max() < 1e-8 * expect.max()


def test_penalty_matches_quadrature_oracle():
    basis = BSplineBasis((0.0, 1.0), 9)
    r = penalty_matrix(basis, 2)
    ref = trapezoid_matrix(basis, 2, 2)
    assert np.abs(r - ref).max() < 1e-8 * np.abs(ref).max()


def test_penalty_order_too_high_raises():
    basis = BSplineBasis((0.0, 1.0), 6, degree=2)
    with pytest.raises(ValueError, match="too high"):
        penalty_matrix(basis, 3)


def test_penalty_operator_validation():
    basis = BSplineBasis((0.0, 1.0), 6, degree=2)
    for order in (0, -1):
        with pytest.raises(ValueError, match=f"penalty order must be >= 1, got {order}"):
            penalty_matrix(basis, order)


# ---------------------------------------------------------------- cross matrix


def test_fourier_cross_closed_form():
    basis = FourierBasis((0.0, 1.0), 5)
    e = cross_matrix(basis)
    expect = np.diag([0.0, -((2 * np.pi) ** 2), -((2 * np.pi) ** 2), -((4 * np.pi) ** 2), -((4 * np.pi) ** 2)])
    assert np.abs(e - expect).max() < 1e-8 * np.abs(expect).max()


def test_cross_matches_quadrature_oracle():
    basis = BSplineBasis((0.0, 1.0), 8)
    e = cross_matrix(basis)
    ref = trapezoid_matrix(basis, 0, 2)
    assert np.abs(e - ref).max() < 1e-8 * np.abs(ref).max()


def test_cross_constant_element_rows_vanish():
    basis = FourierBasis((0.0, 1.0), 7)
    e = cross_matrix(basis)
    assert np.abs(e[0, :]).max() < 1e-12
    assert np.abs(e[:, 0]).max() < 1e-12


def test_cross_requires_smoothness():
    with pytest.raises(ValueError, match="twice-differentiable"):
        cross_matrix(BSplineBasis((0.0, 1.0), 4, degree=1))


# ------------------------------------------------------------------ invariants


@pytest.mark.parametrize(
    "basis",
    [
        BSplineBasis((0.0, 1.0), 7),
        BSplineBasis((-1.0, 2.0), 11, degree=2),
        FourierBasis((0.0, 1.0), 7),
    ],
    ids=["cubic", "quadratic", "fourier"],
)
def test_integral_matrices_against_dense_trapezoid(basis):
    relf = lambda a, b: np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)
    assert relf(gram_matrix(basis), trapezoid_matrix(basis, 0, 0)) < 1e-7
    # keep the oracle integrand continuous: order < degree for splines
    order = 2 if isinstance(basis, FourierBasis) else basis.degree - 1
    assert (
        relf(penalty_matrix(basis, order), trapezoid_matrix(basis, order, order))
        < 1e-7
    )
    if basis.max_derivative >= 2 and (isinstance(basis, FourierBasis) or basis.degree >= 3):
        assert relf(cross_matrix(basis), trapezoid_matrix(basis, 0, 2)) < 1e-7


@pytest.mark.parametrize(
    "basis",
    [BSplineBasis((0.0, 1.0), 9), FourierBasis((0.0, 2.0), 9)],
    ids=["bspline", "fourier"],
)
def test_gram_pd_and_penalty_psd(basis):
    g = gram_matrix(basis)
    assert np.linalg.eigvalsh(g)[0] > 1e-12
    r = penalty_matrix(basis, 2)
    assert np.array_equal(r, r.T)
    assert np.linalg.eigvalsh(r)[0] > -1e-10


# ------------------------------------------------------------------ validation


def test_bspline_constructor_validation():
    with pytest.raises(ValueError, match="a < b"):
        BSplineBasis((1.0, 0.0), 6)
    with pytest.raises(ValueError, match="too small"):
        BSplineBasis((0.0, 1.0), 3, degree=3)
    with pytest.raises(ValueError, match="length rank"):
        BSplineBasis((0.0, 1.0), 6, knots=np.zeros(5))
    with pytest.raises(ValueError, match="nondecreasing"):
        BSplineBasis((0.0, 1.0), 5, degree=2, knots=[0, 0, 0, 0.7, 0.3, 1, 1, 1])
    with pytest.raises(ValueError, match="clamped"):
        BSplineBasis((0.0, 1.0), 5, degree=2, knots=[0, 0, 0.1, 0.3, 0.7, 1, 1, 1])
    for domain in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite endpoints"):
            BSplineBasis(domain, 6)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nondecreasing"):
            BSplineBasis((0.0, 1.0), 5, degree=2, knots=[0, 0, 0, bad, 0.5, 1, 1, 1])
    # a knot of multiplicity degree + 2 leaves a basis function that vanishes
    for knots in ([0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1], [0, 0, 0, 0, 0.5, 0.6, 0.7, 1, 1, 1]):
        with pytest.raises(ValueError, match="multiplicity"):
            BSplineBasis((0.0, 1.0), 7, degree=2, knots=knots)
    BSplineBasis((0.0, 1.0), 6, degree=2, knots=[0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])


def test_fourier_constructor_validation():
    with pytest.raises(ValueError, match="odd"):
        FourierBasis((0.0, 1.0), 4)
    with pytest.raises(ValueError, match="period"):
        FourierBasis((0.0, 1.0), 3, period=-1.0)
    for period in (np.nan, np.inf):
        with pytest.raises(ValueError, match="period must be finite"):
            FourierBasis((0.0, 1.0), 3, period=period)
    with pytest.raises(ValueError, match="finite endpoints"):
        FourierBasis((0.0, np.inf), 3)


@pytest.mark.parametrize("domain", [("0", "1"), (False, True), ("0", True), (None, 1.0)])
def test_domain_endpoints_must_be_real_numbers(domain):
    for make in (lambda: FourierBasis(domain, 5), lambda: BSplineBasis(domain, 6)):
        with pytest.raises(ValueError, match="domain must satisfy a < b with finite endpoints"):
            make()


def test_custom_knots_round_trip():
    knots = np.array([0, 0, 0, 0, 0.1, 0.5, 0.9, 1, 1, 1, 1.0])
    basis = BSplineBasis((0.0, 1.0), 7, knots=knots)
    rebuilt = BSplineBasis((0.0, 1.0), 7, knots=np.array(basis.to_dict()["knots"]))
    x = np.linspace(0, 1, 50)
    assert np.array_equal(basis.evaluate(x), rebuilt.evaluate(x))


def test_quadrature_rule_is_computed_once_per_point_count_and_read_only(monkeypatch):
    from mpbasis import basis as basis_mod

    calls, leggauss = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n)
    )
    basis_mod._legendre_rule.cache_clear()
    fourier = FourierBasis((0.0, 1.0), 15)
    first = penalty_matrix(fourier, 2)
    again = penalty_matrix(FourierBasis((0.0, 1.0), 15), 2)
    assert calls == [8] and np.array_equal(first, again)
    x, w = basis_mod._legendre_rule(8)
    assert not (x.flags.writeable or w.flags.writeable)
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.0
    # the cached rule gives the matrix that a fresh rule gives, bit for bit
    basis_mod._legendre_rule.cache_clear()
    bp = fourier.breakpoints
    ref_x, ref_w = leggauss(8)
    half, mid = 0.5 * (bp[1:] - bp[:-1]), 0.5 * (bp[1:] + bp[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    d2 = fourier.evaluate(nodes, deriv=2)
    ref = d2.T @ (weights[:, None] * d2)
    assert np.array_equal(first, 0.5 * (ref + ref.T))
