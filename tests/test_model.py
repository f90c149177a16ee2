"""Continuous model: evaluation oracles, analytic Gram/Laplacian matrices,
projection of new data."""

import re

import numpy as np
import pytest

from mpbasis import reduction
from mpbasis import tensors as T
from mpbasis.basis import BSplineBasis, FourierBasis, penalty_matrix
from mpbasis.model import MPBModel
from mpbasis.pipeline import fit_mpb
from mpbasis.reduction import compress, factorize
from mpbasis.solver import SolverConfig


def decompress(g, facs):
    """Reference: compressed coordinates mapped back to the grid, ``U_d`` per mode."""
    for d, f in enumerate(facs):
        g = T.mode_multiply(g, f.u, d)
    return g


def random_model(rng, kinds=("bspline", "bspline"), ranks=(8, 6), k=3, n_subj=5):
    bases = []
    for kind, m in zip(kinds, ranks):
        if kind == "bspline":
            bases.append(BSplineBasis((0.0, 1.0), m))
        else:
            bases.append(FourierBasis((0.0, 1.0), m))
    coefs = [rng.standard_normal((m, k)) for m in ranks]
    b = rng.standard_normal((n_subj, k))
    return MPBModel(bases=bases, coefs=coefs, subject_coefs=b)


def fd_second_derivative(f, x, h=1e-5):
    """Finite-difference second derivative of a callable on points in [0, 1].

    Central stencil inside, one-sided 4-point stencils near the boundary;
    both are exact for piecewise cubics away from interior knots.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size,) + np.shape(f(np.array([x[0]])))[1:])
    inner = (x >= h) & (x <= 1.0 - h)
    xi = x[inner]
    out[inner] = (f(xi + h) - 2.0 * f(xi) + f(xi - h)) / h**2
    left = x < h
    xl = x[left]
    out[left] = (2 * f(xl) - 5 * f(xl + h) + 4 * f(xl + 2 * h) - f(xl + 3 * h)) / h**2
    right = x > 1.0 - h
    xr = x[right]
    out[right] = (2 * f(xr) - 5 * f(xr - h) + 4 * f(xr - 2 * h) - f(xr - 3 * h)) / h**2
    return out


def trapz2(values, gx, gy):
    return np.trapezoid(np.trapezoid(values, x=gy, axis=1), x=gx, axis=0)


# ----------------------------------------------------------------- evaluation


def test_evaluate_basis_constant_product():
    bases = [FourierBasis((0.0, 1.0), 1), FourierBasis((0.0, 1.0), 1)]
    coefs = [np.ones((1, 1)), np.ones((1, 1))]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=np.ones((2, 1)))
    pts = np.random.default_rng(0).uniform(0, 1, size=(20, 2))
    assert np.allclose(model.evaluate_basis(pts), 1.0, atol=1e-14)


def test_evaluate_basis_matches_grid_loop_oracle():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    gx = np.linspace(0, 1, 7)
    gy = np.linspace(0, 1, 5)
    pts = np.array([(x, y) for x in gx for y in gy])
    got = model.evaluate_basis(pts)
    xi_x = model.bases[0].evaluate(gx) @ model.coefs[0]
    xi_y = model.bases[1].evaluate(gy) @ model.coefs[1]
    row = 0
    for i in range(7):
        for j in range(5):
            assert np.allclose(got[row], xi_x[i] * xi_y[j], rtol=1e-12)
            row += 1


def test_evaluate_basis_separability():
    rng = np.random.default_rng(2)
    model = random_model(rng, k=1)
    x0, y0, y1 = 0.3, 0.2, 0.9
    z00 = model.evaluate_basis([[x0, y0]])[0, 0]
    z01 = model.evaluate_basis([[x0, y1]])[0, 0]
    for x in (0.1, 0.55, 0.78):
        a = model.evaluate_basis([[x, y0]])[0, 0]
        b = model.evaluate_basis([[x, y1]])[0, 0]
        assert b * z00 == pytest.approx(a * z01, rel=1e-10)


def test_evaluate_subjects_matches_fitted_approximation():
    rng = np.random.default_rng(3)
    grids = [np.linspace(0, 1, 15), np.linspace(0, 1, 12)]
    bases = [BSplineBasis((0.0, 1.0), 7), BSplineBasis((0.0, 1.0), 6)]
    truth = random_model(rng, ranks=(7, 6), k=2, n_subj=4)
    truth.bases = bases
    y = truth.evaluate_subjects(grids) + 0.05 * rng.standard_normal((15, 12, 4))
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=80)
    model, state, _ = fit_mpb(y, grids, bases, [2, 2], cfg)
    got = model.evaluate_subjects(grids)
    phis = [b.evaluate(g) for b, g in zip(bases, grids)]
    facs = [factorize(p) for p in phis]
    ref = decompress(T.cp_to_tensor(state.factors()), facs)
    assert np.linalg.norm(got - ref) < 1e-8 * np.linalg.norm(ref)


def test_evaluate_subjects_reproduces_compressed_objective():
    rng = np.random.default_rng(4)
    grids = [np.linspace(0, 1, 14), np.linspace(0, 1, 11)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 5)]
    y = rng.standard_normal((14, 11, 3))
    cfg = SolverConfig(rank=2, seed=1, max_outer_iters=60)
    model, state, report = fit_mpb(y, grids, bases, [2, 2], cfg)
    phis = [b.evaluate(g) for b, g in zip(bases, grids)]
    facs = [factorize(p) for p in phis]
    g_hat = compress(y, facs)
    proj_const = np.sum((y - decompress(g_hat, facs)) ** 2)
    resid_grid = np.sum((y - model.evaluate_subjects(grids)) ** 2)
    resid_compressed = np.sum((g_hat - T.cp_to_tensor(state.factors())) ** 2)
    assert abs(resid_grid - (resid_compressed + proj_const)) < 1e-8 * resid_grid


def test_evaluate_subjects_zero_coefs_gives_mean():
    rng = np.random.default_rng(5)
    grids = [np.linspace(0, 1, 9), np.linspace(0, 1, 8)]
    mean = rng.standard_normal((9, 8))
    model = random_model(rng, ranks=(5, 5), k=2, n_subj=3)
    model.bases = [BSplineBasis((0.0, 1.0), 5), BSplineBasis((0.0, 1.0), 5)]
    model.subject_coefs = np.zeros((3, 2))
    model.mean_grids = grids
    model.mean_values = mean
    out = model.evaluate_subjects(grids)
    for i in range(3):
        assert np.array_equal(out[..., i], mean)


def test_evaluate_subjects_mean_grid_mismatch_raises():
    rng = np.random.default_rng(6)
    grids = [np.linspace(0, 1, 9), np.linspace(0, 1, 8)]
    model = random_model(rng, ranks=(5, 5), k=1, n_subj=2)
    model.bases = [BSplineBasis((0.0, 1.0), 5), BSplineBasis((0.0, 1.0), 5)]
    model.mean_grids = grids
    model.mean_values = np.zeros((9, 8))
    other = [np.linspace(0, 1, 9), np.linspace(0, 1, 7)]
    with pytest.raises(ValueError, match="mean grid"):
        model.evaluate_subjects(other)


def test_mean_needs_one_grid_per_dimension():
    # a 1-d mean on a 2-d model would fail every later evaluate_subjects or
    # project call with a grid-mismatch message
    rng = np.random.default_rng(7)
    model = random_model(rng, ranks=(5, 5), k=1, n_subj=2)
    grid = np.linspace(0, 1, 9)
    with pytest.raises(ValueError, match="1 mean grids for 2 dimensions"):
        MPBModel(model.bases, model.coefs, model.subject_coefs, [grid], np.zeros(9))


def test_evaluate_subjects_rank_one_outer_product():
    rng = np.random.default_rng(7)
    model = random_model(rng, k=1, n_subj=1)
    grids = [np.linspace(0, 1, 6), np.linspace(0, 1, 9)]
    out = model.evaluate_subjects(grids)
    xi = model.marginal_values(grids)
    expect = np.einsum("i,j->ij", xi[0][:, 0], xi[1][:, 0]) * model.subject_coefs[0, 0]
    assert np.allclose(out[..., 0], expect, rtol=1e-12)


# ------------------------------------------------------------------- gram zeta


def test_gram_zeta_orthonormal_case():
    rng = np.random.default_rng(8)
    bases = [FourierBasis((0.0, 1.0), 7), FourierBasis((0.0, 1.0), 5)]
    coefs = [np.linalg.qr(rng.standard_normal((m, 3)))[0] for m in (7, 5)]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=rng.standard_normal((4, 3)))
    assert np.abs(model.gram_zeta() - np.eye(3)).max() < 1e-12


def test_gram_zeta_matches_tensor_grid_quadrature():
    # periodic integrand: the trapezoid rule on a full period is spectrally
    # accurate, so the 100x100 oracle resolves the 1e-6 tolerance
    rng = np.random.default_rng(9)
    model = random_model(rng, kinds=("fourier", "fourier"), ranks=(7, 5), k=3)
    gx = np.linspace(0, 1, 100)
    gy = np.linspace(0, 1, 100)
    zeta = np.einsum(
        "ik,jk->ijk",
        model.bases[0].evaluate(gx) @ model.coefs[0],
        model.bases[1].evaluate(gy) @ model.coefs[1],
    )
    j = model.gram_zeta()
    for a in range(3):
        for b in range(a, 3):
            ref = trapz2(zeta[:, :, a] * zeta[:, :, b], gx, gy)
            assert abs(j[a, b] - ref) < 1e-6 * max(abs(ref), 1.0)


def test_gram_zeta_matches_quadrature_splines():
    rng = np.random.default_rng(10)
    model = random_model(rng, ranks=(8, 6), k=3)
    gx = np.linspace(0, 1, 2001)
    gy = np.linspace(0, 1, 2001)
    zeta = np.einsum(
        "ik,jk->ijk",
        model.bases[0].evaluate(gx) @ model.coefs[0],
        model.bases[1].evaluate(gy) @ model.coefs[1],
    )
    j = model.gram_zeta()
    for a in range(3):
        for b in range(a, 3):
            ref = trapz2(zeta[:, :, a] * zeta[:, :, b], gx, gy)
            assert abs(j[a, b] - ref) < 1e-6 * max(abs(ref), 1.0)


def test_gram_zeta_diagonal_is_product_of_squared_norms():
    rng = np.random.default_rng(11)
    model = random_model(rng)
    j = model.gram_zeta()
    assert np.all(np.diag(j) >= 0)
    from mpbasis.basis import gram_matrix

    expect = np.ones(3)
    for b, c in zip(model.bases, model.coefs):
        g = gram_matrix(b)
        expect *= np.einsum("mk,mn,nk->k", c, g, c)
    assert np.allclose(np.diag(j), expect, rtol=1e-12)


# ------------------------------------------------------- laplacian penalty zeta


def test_laplacian_penalty_zero_for_constants():
    bases = [FourierBasis((0.0, 1.0), 1), FourierBasis((0.0, 1.0), 1)]
    model = MPBModel(
        bases=bases,
        coefs=[np.ones((1, 1)), np.ones((1, 1))],
        subject_coefs=np.ones((2, 1)),
    )
    assert np.abs(model.laplacian_penalty_zeta()).max() < 1e-10


@pytest.mark.parametrize("kinds", [("fourier", "fourier"), ("bspline", "bspline")])
def test_laplacian_penalty_matches_fd_quadrature(kinds):
    rng = np.random.default_rng(12)
    ranks = (7, 5) if kinds[0] == "fourier" else (8, 6)
    model = random_model(rng, kinds=kinds, ranks=ranks, k=3)
    n = 200 if kinds[0] == "fourier" else 801
    gx = np.linspace(0, 1, n)
    gy = np.linspace(0, 1, n)
    xi_x = model.bases[0].evaluate(gx) @ model.coefs[0]
    xi_y = model.bases[1].evaluate(gy) @ model.coefs[1]
    fx = lambda pts: model.bases[0].evaluate(pts) @ model.coefs[0]
    fy = lambda pts: model.bases[1].evaluate(pts) @ model.coefs[1]
    ddx = fd_second_derivative(fx, gx)
    ddy = fd_second_derivative(fy, gy)
    lap = np.einsum("ik,jk->ijk", ddx, xi_y) + np.einsum("ik,jk->ijk", xi_x, ddy)
    r = model.laplacian_penalty_zeta()
    tol = 1e-4 if kinds[0] == "fourier" else 1e-3
    for a in range(3):
        for b in range(a, 3):
            ref = trapz2(lap[:, :, a] * lap[:, :, b], gx, gy)
            assert abs(r[a, b] - ref) <= tol * max(abs(ref), np.abs(r).max() * 1e-2)


def test_laplacian_penalty_single_dimension_reduces_to_quadratic_form():
    rng = np.random.default_rng(13)
    basis = BSplineBasis((0.0, 1.0), 8)
    c = rng.standard_normal((8, 3))
    model = MPBModel(bases=[basis], coefs=[c], subject_coefs=rng.standard_normal((2, 3)))
    r = model.laplacian_penalty_zeta()
    expect = c.T @ penalty_matrix(basis, 2) @ c
    assert np.allclose(r, expect, rtol=1e-12)


def test_laplacian_penalty_three_dimensions_matches_tensor_grid_quadrature():
    # <Lap zeta_i, Lap zeta_j> on a 3-d tensor grid whose quadrature is exact
    # for these integrands: 4-point Gauss-Legendre per spline knot span
    # (products of cubics) and the periodic trapezoid rule for the Fourier
    # dimensions. The mixed terms need the Gram form of the third dimension.
    rng = np.random.default_rng(15)
    bases = [BSplineBasis((0.0, 1.0), 7), FourierBasis((0.0, 1.0), 5),
             FourierBasis((0.0, 1.0), 3)]
    model = MPBModel(
        bases=bases,
        coefs=[rng.standard_normal((b.rank, 3)) for b in bases],
        subject_coefs=rng.standard_normal((2, 3)),
    )
    ref_x, ref_w = np.polynomial.legendre.leggauss(4)
    bp = bases[0].breakpoints
    half, mid = 0.5 * np.diff(bp), 0.5 * (bp[1:] + bp[:-1])
    nodes = [(mid[:, None] + half[:, None] * ref_x).ravel()]
    weights = [(half[:, None] * ref_w).ravel()]
    for n in (16, 16):
        nodes.append(np.arange(n) / n)
        weights.append(np.full(n, 1.0 / n))
    vals = [b.evaluate(x) @ c for b, c, x in zip(bases, model.coefs, nodes)]
    dd = [b.evaluate(x, deriv=2) @ c for b, c, x in zip(bases, model.coefs, nodes)]
    lap = (
        np.einsum("ik,jk,lk->ijlk", dd[0], vals[1], vals[2])
        + np.einsum("ik,jk,lk->ijlk", vals[0], dd[1], vals[2])
        + np.einsum("ik,jk,lk->ijlk", vals[0], vals[1], dd[2])
    )
    w = np.einsum("i,j,l->ijl", *weights)
    ref = np.einsum("ijlk,ijl,ijlm->km", lap, w, lap)
    r = model.laplacian_penalty_zeta()
    assert np.abs(r - ref).max() <= 1e-10 * np.abs(ref).max()


def test_laplacian_penalty_is_symmetric_psd():
    rng = np.random.default_rng(14)
    model = random_model(rng, ranks=(9, 7), k=4)
    r = model.laplacian_penalty_zeta()
    assert np.array_equal(r, r.T)
    assert np.linalg.eigvalsh(r)[0] > -1e-8 * np.linalg.norm(r)


# ------------------------------------------------------------------ projection


def test_project_reproduces_in_span_data():
    rng = np.random.default_rng(15)
    model = random_model(rng, k=3, n_subj=4)
    grids = [np.linspace(0, 1, 30), np.linspace(0, 1, 25)]
    y = model.evaluate_subjects(grids)
    coefs, resid = model.project(y, grids)
    assert np.abs(coefs - model.subject_coefs).max() < 1e-8
    assert resid.max() < 1e-8 * np.linalg.norm(y)


def test_a_grid_that_is_not_1d_is_refused_by_name():
    # a column-vector grid used to fail in numpy's broadcasting, naming no input
    model = random_model(np.random.default_rng(16), k=2, n_subj=3)
    grids = [np.linspace(0, 1, 12), np.linspace(0, 1, 9)]
    y = model.evaluate_subjects(grids)
    column = [grids[0][:, None], grids[1]]
    for call in (model.marginal_values, model.evaluate_subjects):
        with pytest.raises(ValueError, match=re.escape("1-d, got shape (12, 1)")):
            call(column)
    with pytest.raises(ValueError, match=re.escape("grid 0 must be 1-d, got shape (12, 1)")):
        model.project(y, column)
    with pytest.raises(ValueError, match=re.escape("grid 1 must be 1-d, got shape (3, 3)")):
        model.project(y[..., 0], [grids[0], grids[1].reshape(3, 3)])


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_project_reproduces_in_span_data_at_scale(scale):
    # the same in-span check with the data scaled: coefficients scale with
    # it, and the residual stays roundoff relative to the scaled data
    rng = np.random.default_rng(15)
    model = random_model(rng, k=3, n_subj=4)
    model.subject_coefs *= scale
    grids = [np.linspace(0, 1, 30), np.linspace(0, 1, 25)]
    y = model.evaluate_subjects(grids)
    coefs, resid = model.project(y, grids)
    assert np.abs(coefs - model.subject_coefs).max() < 1e-8 * scale
    assert resid.max() < 1e-8 * np.linalg.norm(y)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_project_scales_with_out_of_span_data(scale):
    rng = np.random.default_rng(22)
    model = random_model(rng, k=3, n_subj=1)
    grids = [np.linspace(0, 1, 20), np.linspace(0, 1, 15)]
    y = rng.standard_normal((20, 15, 3))
    coefs, resid = model.project(y, grids)
    coefs_s, resid_s = model.project(scale * y, grids)
    assert np.abs(coefs_s - scale * coefs).max() <= 1e-12 * scale * np.abs(coefs).max()
    assert np.abs(resid_s - scale * resid).max() <= 1e-12 * scale * resid.max()


def test_project_residuals_over_subject_chunks(monkeypatch):
    # the out-of-span energy is summed over slabs of grid rows; with slabs of
    # 3, 3, 3 and 3 rows every subject must still get its own residual
    monkeypatch.setattr(reduction, "SLAB_ENTRIES", 3 * 10 * 5)
    rng = np.random.default_rng(23)
    model = random_model(rng, k=3, n_subj=1)
    grids = [np.linspace(0, 1, 12), np.linspace(0, 1, 10)]
    y = rng.standard_normal((12, 10, 5))
    coefs, resid = model.project(y, grids)
    xis = model.marginal_values(grids)
    for i in range(5):
        fitted = (xis[0] * coefs[i]) @ xis[1].T
        assert resid[i] == pytest.approx(np.linalg.norm(y[..., i] - fitted), rel=1e-12)


def test_project_orthogonal_noise_gives_small_coefficients():
    rng = np.random.default_rng(16)
    model = random_model(rng, k=2, n_subj=1)
    grids = [np.linspace(0, 1, 40), np.linspace(0, 1, 35)]
    xis = model.marginal_values(grids)
    z = T.khatri_rao([xis[1], xis[0]])  # columns evaluate the product functions
    noise = rng.standard_normal(40 * 35)
    # explicit orthogonal complement of the evaluated basis
    noise -= z @ np.linalg.lstsq(z, noise, rcond=None)[0]
    y = noise.reshape(35, 40).T  # undo the column ordering of the Khatri-Rao rows
    coefs, resid = model.project(y, grids)
    assert np.abs(coefs).max() < 1e-10 * np.linalg.norm(noise)
    assert resid == pytest.approx(np.linalg.norm(noise), rel=1e-10)


def test_project_zero_input():
    rng = np.random.default_rng(17)
    model = random_model(rng, k=2, n_subj=3)
    grids = [np.linspace(0, 1, 12), np.linspace(0, 1, 10)]
    coefs, resid = model.project(np.zeros((12, 10, 3)), grids)
    assert np.array_equal(coefs, np.zeros((3, 2)))
    assert np.array_equal(resid, np.zeros(3))


def test_project_residual_matches_dense_lstsq():
    rng = np.random.default_rng(18)
    model = random_model(rng, k=3, n_subj=2)
    grids = [np.linspace(0, 1, 20), np.linspace(0, 1, 15)]
    y = rng.standard_normal((20, 15, 2))
    coefs, resid = model.project(y, grids)
    xis = model.marginal_values(grids)
    z = T.khatri_rao([xis[1], xis[0]])
    for i in range(2):
        flat = T.unfold(y[..., i][..., None], 2)[0]
        ref, res_sq = np.linalg.lstsq(z, flat, rcond=None)[:2]
        assert np.abs(coefs[i] - ref).max() < 1e-9
        assert resid[i] == pytest.approx(np.sqrt(res_sq[0]), rel=1e-9)


def test_project_matches_lstsq_on_gp2d_test_set():
    # criterion-2 settings, replication 0: cond(W'W) is near 7e8 here, so a
    # normal-equation solve lands about 1e-8 from the least-squares solution
    from mpbasis.sim import Gp2dSimConfig, generate_gp2d_sample

    cfg = Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=50, seed=42)
    s = generate_gp2d_sample(cfg, replication=0)
    fit_cfg = SolverConfig(
        rank=30, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=300,
        outer_tol=1e-10, seed=0,
    )
    model, _, _ = fit_mpb(s.train, s.grids, s.bases, [2, 2], fit_cfg)
    coefs, resid = model.project(s.test, s.grids)
    z = T.khatri_rao(model.marginal_values(s.grids))  # C-order grid rows
    y = s.test.reshape(z.shape[0], -1)
    ref = np.linalg.lstsq(z, y, rcond=None)[0]
    assert np.abs(coefs - ref.T).max() <= 1e-12 * np.abs(ref).max()
    ref_resid = np.linalg.norm(y - z @ ref, axis=0)
    assert np.max(np.abs(resid - ref_resid) / ref_resid) <= 1e-10


def test_project_on_a_grid_coarser_than_the_basis_ranks():
    # 5 x 4 grid points for 8 x 6 basis functions: the evaluation matrices
    # are wide, and projection needs only the K = 3 product functions to be
    # independent on the grid
    rng = np.random.default_rng(25)
    model = random_model(rng, ranks=(8, 6), k=3, n_subj=1)
    grids = [np.linspace(0, 1, 5), np.linspace(0, 1, 4)]
    y = rng.standard_normal((5, 4, 3))
    coefs, resid = model.project(y, grids)
    z = T.khatri_rao(model.marginal_values(grids))
    flat = y.reshape(20, 3)
    ref = np.linalg.lstsq(z, flat, rcond=None)[0]
    assert np.abs(coefs - ref.T).max() <= 1e-12 * np.abs(ref).max()
    ref_resid = np.linalg.norm(flat - z @ ref, axis=0)
    assert np.allclose(resid, ref_resid, rtol=1e-10, atol=0)


# ------------------------------------------------------------------ invariants


def test_gram_and_penalty_invariant_under_coef_rebalancing():
    # moving scale between the per-dimension coefficient columns leaves every
    # product function, hence both matrices, unchanged
    rng = np.random.default_rng(19)
    model = random_model(rng, ranks=(7, 6), k=3)
    j0, r0 = model.gram_zeta(), model.laplacian_penalty_zeta()
    scales = np.array([2.0, 0.25, 5.0])
    other = MPBModel(
        bases=model.bases,
        coefs=[model.coefs[0] * scales, model.coefs[1] / scales],
        subject_coefs=model.subject_coefs,
    )
    assert np.abs(other.gram_zeta() - j0).max() < 1e-10 * np.abs(j0).max()
    assert np.abs(other.laplacian_penalty_zeta() - r0).max() < 1e-10 * np.abs(r0).max()


def test_project_singular_basis_raises():
    from mpbasis.errors import NumericalError

    rng = np.random.default_rng(20)
    model = random_model(rng, k=2, n_subj=1)
    model.coefs[0][:, 1] = model.coefs[0][:, 0]
    model.coefs[1][:, 1] = model.coefs[1][:, 0]
    grids = [np.linspace(0, 1, 10), np.linspace(0, 1, 9)]
    with pytest.raises(NumericalError, match="not unique"):
        model.project(np.zeros((10, 9)), grids)


def test_fit_with_centering_stores_and_uses_mean():
    rng = np.random.default_rng(21)
    grids = [np.linspace(0, 1, 16), np.linspace(0, 1, 13)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 5)]
    truth = random_model(rng, ranks=(6, 5), k=2, n_subj=5)
    truth.bases = bases
    y = truth.evaluate_subjects(grids) + 3.0  # large common offset
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=120)
    model, _, _ = fit_mpb(y, grids, bases, [2, 2], cfg, center=True)
    assert model.mean_values is not None
    assert np.allclose(model.mean_values, y.mean(axis=-1), atol=1e-12)
    recon = model.evaluate_subjects(grids)
    assert np.linalg.norm(recon - y) < 1e-6 * np.linalg.norm(y)


def test_project_centered_model_reproduces_subject_coefs():
    # the fitted coefficients are the least-squares ones for the final
    # factors (lambda_coef = 0 and no proximal term), so projecting the
    # training data gives them back once the stored mean is taken off; a +3
    # offset makes a missed mean obvious
    rng = np.random.default_rng(24)
    grids = [np.linspace(0, 1, 16), np.linspace(0, 1, 13)]
    bases = [BSplineBasis((0.0, 1.0), 6), BSplineBasis((0.0, 1.0), 5)]
    truth = random_model(rng, ranks=(6, 5), k=2, n_subj=5)
    truth.bases = bases
    y = truth.evaluate_subjects(grids) + 0.05 * rng.standard_normal((16, 13, 5)) + 3.0
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=60, proximal_mu=0.0)
    model, _, _ = fit_mpb(y, grids, bases, [2, 2], cfg, center=True)
    coefs, resid = model.project(y, grids)
    scale = np.abs(model.subject_coefs).max()
    assert np.abs(coefs - model.subject_coefs).max() <= 1e-10 * scale
    fitted = model.evaluate_subjects(grids)
    for i in range(5):
        assert resid[i] == pytest.approx(np.linalg.norm(y[..., i] - fitted[..., i]), rel=1e-8)
    one, one_resid = model.project(y[..., 3], grids)
    assert np.abs(one - model.subject_coefs[3]).max() <= 1e-10 * scale
    assert one_resid == pytest.approx(resid[3], rel=1e-12)
    with pytest.raises(ValueError, match="mean grid"):
        model.project(y, [grids[0] * 0.5, grids[1]])


def test_model_validation():
    basis = BSplineBasis((0.0, 1.0), 6)
    with pytest.raises(ValueError, match="per basis"):
        MPBModel(bases=[basis], coefs=[], subject_coefs=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="expected"):
        MPBModel(bases=[basis], coefs=[np.zeros((5, 2))], subject_coefs=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="together"):
        MPBModel(
            bases=[basis],
            coefs=[np.zeros((6, 2))],
            subject_coefs=np.zeros((2, 2)),
            mean_values=np.zeros(4),
        )
