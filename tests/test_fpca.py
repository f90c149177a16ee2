"""Penalized FPCA: covariance oracle, generalized eigen solve, constraints."""

import numpy as np
import pytest
import scipy.linalg

from mpbasis.basis import BSplineBasis
from mpbasis.errors import NumericalError
from mpbasis.fpca import (
    coef_covariance,
    eigenfunction_model,
    run_fpca,
    scores,
    solve_fpca,
)
from mpbasis.model import MPBModel
from mpbasis.tensors import cp_to_tensor


def spd(rng, n, shift=1e-3):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def psd(rng, n, rank=None):
    a = rng.standard_normal((n, rank or n))
    return a @ a.T


def random_model(rng, ranks=(8, 6), k=3, n_subj=12):
    bases = [BSplineBasis((0.0, 1.0), m) for m in ranks]
    coefs = [rng.standard_normal((m, k)) for m in ranks]
    b = rng.standard_normal((n_subj, k))
    return MPBModel(bases=bases, coefs=coefs, subject_coefs=b)


# ------------------------------------------------------------------ covariance


def test_covariance_identical_rows_is_zero():
    b = np.tile([1.0, -2.0, 3.0], (2, 1))
    assert np.array_equal(coef_covariance(b), np.zeros((3, 3)))


def test_covariance_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((20, 4))
    ref = np.zeros((4, 4))
    mean = b.mean(axis=0)
    for row in b:
        ref += np.outer(row - mean, row - mean)
    ref /= 19
    assert np.abs(coef_covariance(b) - ref).max() < 1e-12


def test_covariance_univariate_is_sample_variance():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((15, 1))
    assert coef_covariance(b)[0, 0] == pytest.approx(np.var(b, ddof=1), rel=1e-12)


def test_covariance_needs_two_subjects():
    with pytest.raises(ValueError, match="N >= 2"):
        coef_covariance(np.ones((1, 3)))


# ------------------------------------------------------------------ eigen solve


def test_identity_gram_diagonal_covariance():
    res = solve_fpca(np.eye(3), np.zeros((3, 3)), np.diag([3.0, 2.0, 1.0]), 0.0, k_keep=3)
    assert np.allclose(res.nu, [3.0, 2.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(res.s), np.eye(3), atol=1e-12)


def test_generalized_eigen_residual_random_instance():
    rng = np.random.default_rng(2)
    k = 6
    j = spd(rng, k, shift=0.5)
    r = psd(rng, k)
    sig = psd(rng, k, rank=4)
    lam = 0.3
    res = solve_fpca(j, r, sig, lam, k_keep=k)
    mid = j @ sig @ j
    lhs = j + lam * r
    for i in range(k):
        resid = np.linalg.norm(mid @ res.s[:, i] - res.nu[i] * lhs @ res.s[:, i])
        assert resid <= 1e-8 * np.linalg.norm(mid)


def test_unpenalized_matches_dense_generalized_solver():
    rng = np.random.default_rng(3)
    k = 5
    j = spd(rng, k, shift=0.5)
    sig = psd(rng, k)
    res = solve_fpca(j, np.zeros((k, k)), sig, 0.0, k_keep=k)
    mid = j @ sig @ j
    ref = scipy.linalg.eigh(0.5 * (mid + mid.T), j, eigvals_only=True)[::-1]
    assert np.abs(res.nu - ref).max() < 1e-9 * max(ref.max(), 1.0)


def test_constraints_hold_on_every_solve():
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        j = spd(rng, k, shift=0.4)
        r = psd(rng, k)
        sig = psd(rng, k)
        lam = float(rng.uniform(0, 1))
        res = solve_fpca(j, r, sig, lam, k_keep=k)
        norms = np.einsum("ij,ij->j", res.s, j @ res.s)
        assert np.abs(norms - 1.0).max() < 1e-8
        pen = res.s.T @ (j + lam * r) @ res.s
        off = pen - np.diag(np.diag(pen))
        assert np.abs(off).max() < 1e-8
        assert np.all(np.diff(res.nu) <= 1e-12)
        assert res.nu.min() >= 0.0


def test_component_count_by_variance_threshold():
    nu_target = np.array([0.6, 0.3, 0.09, 0.01])
    res = solve_fpca(np.eye(4), np.zeros((4, 4)), np.diag(nu_target), 0.0, var_threshold=0.99)
    assert res.n_components == 3
    assert np.allclose(res.var_explained, [0.6, 0.9, 0.99], atol=1e-12)


@pytest.mark.parametrize(
    "setting, value, match",
    [
        ("lam", float("nan"), "smoothing weight"),
        ("lam", float("inf"), "smoothing weight"),
        ("lam", -1.0, "smoothing weight"),
        ("var_threshold", float("nan"), "var_threshold"),
        ("var_threshold", -1.0, "var_threshold"),
        ("var_threshold", 0.0, "var_threshold"),
        ("var_threshold", 1.5, "var_threshold"),
        ("lam", True, "smoothing weight must be finite and >= 0, got True"),
        ("lam", "x", "smoothing weight must be finite and >= 0, got 'x'"),
        ("var_threshold", True, "var_threshold must be finite and > 0, got True"),
        ("var_threshold", "x", "var_threshold must be finite and > 0, got 'x'"),
        ("k_keep", 1.5, "k_keep must be an integer, got 1.5"),
        ("k_keep", "2", "k_keep must be an integer, got '2'"),
        ("k_keep", True, "k_keep must be an integer, got True"),
        ("k_keep", 0, r"number of components must lie in \[1, 3\]"),
        ("k_keep", 4, r"number of components must lie in \[1, 3\]"),
    ],
)
def test_solve_fpca_refuses_an_out_of_range_setting(setting, value, match):
    # NaN and infinity used to reach scipy, or choose a component count
    # silently; a bool ran as 1.0, and a string or fractional k_keep failed
    # with a TypeError that named nothing
    args = {"lam": 0.0, "var_threshold": 0.99, setting: value}
    with pytest.raises(ValueError, match=match):
        solve_fpca(np.eye(3), np.zeros((3, 3)), np.eye(3), **args)


def test_fpca_takes_integral_and_numpy_settings():
    model = random_model(np.random.default_rng(15), k=3)
    ref = run_fpca(model, lam=1e-3, k_keep=2)
    got = run_fpca(model, lam=np.float64(1e-3), k_keep=2.0)
    assert got.n_components == 2 and type(got.lam) is float
    assert np.array_equal(got.s, ref.s) and np.array_equal(got.nu, ref.nu)
    ref = run_fpca(model, var_threshold=float(np.float32(0.9)))
    got = run_fpca(model, var_threshold=np.float32(0.9))
    assert np.array_equal(got.s, ref.s) and np.array_equal(got.var_explained, ref.var_explained)


def test_indefinite_penalized_gram_raises():
    # an invalid (indefinite) penalty matrix breaks the penalized Gram
    with pytest.raises(NumericalError, match="not positive definite"):
        solve_fpca(np.eye(2), np.diag([0.0, -2.0]), np.eye(2), 1.0)


def test_eigenvalue_floor():
    rng = np.random.default_rng(5)
    j = spd(rng, 3, shift=0.5)
    sig = np.zeros((3, 3))  # exactly zero covariance: eigenvalues clamp to 0
    res = solve_fpca(j, np.zeros((3, 3)), sig, 0.0, k_keep=3)
    assert np.all(res.nu == 0.0)


# -------------------------------------------------------------- eigenfunctions


def test_eigenfunction_first_axis():
    rng = np.random.default_rng(6)
    model = random_model(rng, k=3)
    j = model.gram_zeta()
    s = np.zeros((3, 1))
    s[0, 0] = 1.0 / np.sqrt(j[0, 0])
    from mpbasis.fpca import FPCAResult

    res = FPCAResult(s=s, nu=np.ones(1), scores=None, lam=0.0, var_explained=np.ones(1))
    pts = rng.uniform(0, 1, size=(30, 2))
    zeta = model.evaluate_basis(pts)
    assert np.allclose((zeta @ res.s)[:, 0], zeta[:, 0] / np.sqrt(j[0, 0]), rtol=1e-12)
    grids = [np.linspace(0, 1, 5), np.linspace(0, 1, 4)]
    on_grid = eigenfunction_model(model, res).evaluate_subjects(grids)[..., 0]
    xis = model.marginal_values(grids)
    expect = np.outer(xis[0][:, 0], xis[1][:, 0]) / np.sqrt(j[0, 0])
    assert np.allclose(on_grid, expect, rtol=1e-12)


def test_eigenfunctions_normalized_and_orthogonal_in_function_space():
    rng = np.random.default_rng(7)
    model = random_model(rng, k=4, n_subj=20)
    res = run_fpca(model, lam=1e-3, k_keep=4)
    j = model.gram_zeta()
    r = model.laplacian_penalty_zeta()
    gram_psi = res.s.T @ j @ res.s
    assert np.abs(np.diag(gram_psi) - 1.0).max() < 1e-6
    pen = res.s.T @ (j + res.lam * r) @ res.s
    assert np.abs(pen - np.diag(np.diag(pen))).max() < 1e-8


def test_eigenfunction_grid_evaluation_is_linear_combination():
    rng = np.random.default_rng(8)
    model = random_model(rng, k=3)
    res = run_fpca(model, lam=0.0, k_keep=2)
    grids = [np.linspace(0, 1, 9), np.linspace(0, 1, 7)]
    # a stored mean belongs to the subjects, not to the eigenfunctions
    model.mean_grids, model.mean_values = grids, np.ones((9, 7))
    got = eigenfunction_model(model, res).evaluate_subjects(grids)
    xis = model.marginal_values(grids)
    assert np.array_equal(got, cp_to_tensor(xis + [res.s.T]))
    zeta = np.einsum("ik,jk->ijk", xis[0], xis[1])
    expect = np.einsum("ijk,kl->ijl", zeta, res.s)
    assert np.allclose(got, expect, rtol=1e-12)
    with pytest.raises(ValueError, match="model rank"):
        eigenfunction_model(random_model(rng, k=4), res)


# ----------------------------------------------------------------------- scores


def test_scores_zero_coefficients():
    rng = np.random.default_rng(9)
    model = random_model(rng, k=3, n_subj=5)
    res = run_fpca(model, lam=0.0, k_keep=2)
    model.subject_coefs = np.zeros((5, 3))
    assert np.array_equal(scores(model, res), np.zeros((5, 2)))


def test_scores_match_grid_quadrature():
    rng = np.random.default_rng(10)
    model = random_model(rng, k=3, n_subj=3)
    res = run_fpca(model, lam=0.0, k_keep=2)
    grids = [np.linspace(0, 1, 1601), np.linspace(0, 1, 1601)]
    fields = model.evaluate_subjects(grids)
    psi = eigenfunction_model(model, res).evaluate_subjects(grids)
    got = res.scores
    for i in range(3):
        for jj in range(2):
            prod = fields[..., i] * psi[..., jj]
            ref = np.trapezoid(np.trapezoid(prod, x=grids[1], axis=1), x=grids[0], axis=0)
            assert abs(got[i, jj] - ref) < 1e-5 * max(1.0, abs(ref))


def test_score_variances_equal_eigenvalues_unpenalized():
    rng = np.random.default_rng(11)
    model = random_model(rng, k=4, n_subj=25)
    res = run_fpca(model, lam=0.0, k_keep=4)
    var = res.scores.var(axis=0, ddof=1)
    assert np.abs(var - res.nu).max() < 1e-8 * max(res.nu.max(), 1.0)


# ------------------------------------------------------------------ invariants


def test_leading_roughness_nonincreasing_in_smoothing_weight():
    # monotone for the top eigenfunction (exchange argument on the Rayleigh
    # quotient); sums over several components can genuinely increase, so only
    # the leading function is asserted
    rng = np.random.default_rng(12)
    for trial in range(5):
        model = random_model(rng, k=4, n_subj=15)
        r = model.laplacian_penalty_zeta()
        lams = [0.0, 1e-4, 1e-2, 1.0]
        roughness = []
        for lam in lams:
            res = run_fpca(model, lam=lam, k_keep=1)
            roughness.append(float(res.s[:, 0] @ r @ res.s[:, 0]))
        for a, b in zip(roughness, roughness[1:]):
            assert b <= a * (1 + 1e-10)


def test_fpca_outputs_invariant_under_model_regauge():
    # rescaling factor columns with the compensating subject rescale leaves
    # the represented functions, hence eigenvalues and eigenfunctions, alone
    rng = np.random.default_rng(13)
    model = random_model(rng, k=3, n_subj=18)
    res0 = run_fpca(model, lam=1e-3, k_keep=3)
    scales = np.array([0.5, 4.0, 1.5])
    regauged = MPBModel(
        bases=model.bases,
        coefs=[model.coefs[0] * scales, model.coefs[1].copy()],
        subject_coefs=model.subject_coefs / scales,
    )
    res1 = run_fpca(regauged, lam=1e-3, k_keep=3)
    assert np.abs(res1.nu - res0.nu).max() < 1e-8 * max(res0.nu.max(), 1.0)
    pts = rng.uniform(0, 1, size=(40, 2))
    f0 = model.evaluate_basis(pts) @ res0.s
    f1 = regauged.evaluate_basis(pts) @ res1.s
    assert np.abs(np.abs(f1) - np.abs(f0)).max() < 1e-6
    assert np.abs(res1.scores - res0.scores).max() < 1e-6


def test_run_fpca_reduces_dependent_basis():
    # duplicated components span the same functions: the eigen solve warns,
    # drops the null direction and still satisfies its constraints
    rng = np.random.default_rng(14)
    model = random_model(rng, k=3)
    model.coefs[0][:, 1] = model.coefs[0][:, 0]
    model.coefs[1][:, 1] = model.coefs[1][:, 0]
    with pytest.warns(RuntimeWarning, match="dependent"):
        res = run_fpca(model, lam=0.0, k_keep=2)
    j = model.gram_zeta()
    assert np.abs(np.einsum("ij,ij->j", res.s, j @ res.s) - 1.0).max() < 1e-8


def test_solve_fpca_rejects_indefinite_gram():
    with pytest.raises(NumericalError, match="indefinite"):
        solve_fpca(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2), 0.0)
