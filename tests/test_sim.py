"""Synthetic data generators: moments, reproducibility, metric arithmetic."""

import tracemalloc

import numpy as np
import pytest

from mpbasis.basis import FourierBasis
from mpbasis.pipeline import fit_mpb
from mpbasis.sim import (
    Gp2dSimConfig,
    ProductSimConfig,
    generate_gp2d_sample,
    generate_product_sample,
    mise,
    random_orthogonal,
)
from mpbasis.solver import SolverConfig


def test_noise_free_sample_equals_truth():
    cfg = ProductSimConfig(noise_var=0.0, grid_size=10, n_subjects=3, seed=1)
    sample = generate_product_sample(cfg)
    assert np.array_equal(sample.noisy, sample.truth)


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(0)
    o = random_orthogonal(7, rng)
    assert np.abs(o @ o.T - np.eye(7)).max() < 1e-12


def test_subject_weight_covariance_matches_target():
    cfg = ProductSimConfig(grid_size=4, n_subjects=4, true_rank=6, seed=2)
    # draw many subject weight vectors through the same path the generator uses
    sample = generate_product_sample(cfg)
    big = ProductSimConfig(grid_size=4, n_subjects=100_000, true_rank=6, seed=2)
    a = generate_product_sample(big).model.subject_coefs
    emp = a.T @ a / a.shape[0]
    rel = np.linalg.norm(emp - sample.sigma_a) / np.linalg.norm(sample.sigma_a)
    assert rel < 0.03


def test_eigenvalue_decay_values():
    cfg = ProductSimConfig(grid_size=4, n_subjects=2, true_rank=5, seed=3)
    sample = generate_product_sample(cfg)
    expect = np.exp(-0.7 * np.arange(1, 6))
    assert np.allclose(np.sort(np.linalg.eigvalsh(sample.sigma_a))[::-1], expect, rtol=1e-10)


def test_marginal_coefs_fixed_across_replications():
    cfg = ProductSimConfig(grid_size=5, n_subjects=2, seed=4)
    s0 = generate_product_sample(cfg, replication=0)
    s1 = generate_product_sample(cfg, replication=1)
    for c0, c1 in zip(s0.model.coefs, s1.model.coefs):
        assert np.array_equal(c0, c1)
    assert not np.array_equal(s0.model.subject_coefs, s1.model.subject_coefs)


def test_redraw_coefs_redraws_only_the_marginal_coefficients():
    def replications(redraw_coefs):
        cfg = ProductSimConfig(grid_size=5, n_subjects=2, seed=4, redraw_coefs=redraw_coefs)
        return [generate_product_sample(cfg, replication=r) for r in (0, 1)]

    fixed, redraw = replications(False), replications(True)
    for c0, c1 in zip(redraw[0].model.coefs, redraw[1].model.coefs):
        assert not np.any(c0 == c1)
    for c0, c1 in zip(fixed[0].model.coefs, fixed[1].model.coefs):
        assert np.array_equal(c0, c1)
    for s in fixed + redraw:
        assert np.array_equal(s.sigma_a, fixed[0].sigma_a)


def test_generation_is_reproducible():
    cfg = ProductSimConfig(grid_size=6, n_subjects=3, seed=5)
    a = generate_product_sample(cfg, replication=2)
    b = generate_product_sample(cfg, replication=2)
    assert np.array_equal(a.noisy, b.noisy)
    g = Gp2dSimConfig(grid_size=(40, 40), n_train=4, n_test=2, seed=5)
    x = generate_gp2d_sample(g, replication=1)
    y = generate_gp2d_sample(g, replication=1)
    assert np.array_equal(x.train, y.train)
    assert np.array_equal(x.test, y.test)


@pytest.mark.parametrize(
    "replication, match",
    [
        (1.5, "replication must be an integer, got 1.5"),
        (-1, "replication must be finite and >= 0, got -1"),
        ("1", "replication must be finite and >= 0, got '1'"),
        (True, "replication must be finite and >= 0, got True"),
    ],
    ids=["fractional", "negative", "string", "bool"],
)
@pytest.mark.parametrize("design", ["product", "gp2d"])
def test_replication_takes_the_integer_rule(design, replication, match):
    # 1.5 used to draw replication 1's data, and -1 failed inside numpy with
    # "expected non-negative integer"
    if design == "product":
        cfg, generate = ProductSimConfig(grid_size=6, n_subjects=3), generate_product_sample
    else:
        cfg, generate = Gp2dSimConfig(grid_size=(12, 12), n_train=2, n_test=1), generate_gp2d_sample
    with pytest.raises(ValueError, match=match):
        generate(cfg, replication=replication)


def test_integral_replications_draw_the_same_data():
    cfg = ProductSimConfig(grid_size=6, n_subjects=3, seed=5)
    ref = generate_product_sample(cfg, replication=2).noisy
    for rep in (2.0, np.int64(2), np.float32(2.0)):
        assert np.array_equal(generate_product_sample(cfg, replication=rep).noisy, ref)


def test_gp2d_eigenfunctions_orthonormal_on_fine_grid():
    cfg = Gp2dSimConfig(ranks=(6, 5), grid_size=(400, 400), n_train=2, n_test=1, seed=6)
    sample = generate_gp2d_sample(cfg)
    phi1 = sample.bases[0].evaluate(sample.grids[0])
    phi2 = sample.bases[1].evaluate(sample.grids[1])
    tensor_vals = np.einsum("ia,jb->ijab", phi1, phi2).reshape(400 * 400, 30)
    psi = tensor_vals @ sample.eigen_coefs
    w = np.full(400, 1.0 / 399)
    w[0] *= 0.5
    w[-1] *= 0.5
    weights = np.outer(w, w).reshape(-1)
    gram = psi.T @ (weights[:, None] * psi)
    assert np.abs(gram - np.eye(30)).max() < 1e-3


def dense_gp2d_fields(sample, scores):
    """Reference: every field through the grid points x (m1*m2) matrix of
    tensor-product basis values, row-major pairing."""
    phi1, phi2 = (b.evaluate(g) for b, g in zip(sample.bases, sample.grids))
    tensor_vals = np.einsum("ia,jb->ijab", phi1, phi2).reshape(len(phi1) * len(phi2), -1)
    psi = tensor_vals @ sample.eigen_coefs
    return (psi @ scores.T).reshape(len(phi1), len(phi2), -1)


def test_gp2d_fields_contract_one_spline_basis_at_a_time():
    # the gp2d benchmark configuration: the tensor basis values on the grid
    # alone would take 25.6 MB next to 48 MB of fields
    cfg = Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=50, seed=42)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sample = generate_gp2d_sample(cfg, replication=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (sample.train.nbytes + sample.test.nbytes)
    for got, scores in ((sample.train, sample.train_scores), (sample.test, sample.test_scores)):
        assert got.flags.c_contiguous
        ref = dense_gp2d_fields(sample, scores)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_gp2d_score_variances_match_decay():
    cfg = Gp2dSimConfig(ranks=(6, 5), grid_size=(20, 20), n_train=10_000, n_test=0, seed=7)
    sample = generate_gp2d_sample(cfg)
    var = sample.train_scores.var(axis=0, ddof=1)
    expect = np.exp(-0.7 * np.arange(1, 31))
    assert np.abs(var / expect - 1.0).max() < 0.1


def test_gp2d_fields_give_back_their_scores():
    # least squares of the generated fields on the eigenfunctions' grid values
    # returns the drawn scores: each field is the scores' combination of them
    cfg = Gp2dSimConfig(ranks=(6, 5), grid_size=(30, 30), n_train=4, n_test=2, seed=8)
    sample = generate_gp2d_sample(cfg)
    psi = dense_gp2d_fields(sample, np.eye(30)).reshape(900, 30)
    for got, scores in ((sample.train, sample.train_scores), (sample.test, sample.test_scores)):
        fit = np.linalg.lstsq(psi, got.reshape(900, -1), rcond=None)[0]
        assert np.abs(fit.T - scores).max() <= 1e-12 * np.abs(scores).max()


def test_mise_zero_for_identical_fields():
    rng = np.random.default_rng(9)
    grids = [np.linspace(0, 1, 10)] * 3
    t = rng.standard_normal((10, 10, 10, 2))
    assert mise(t, t, grids) == 0.0


def test_mise_constant_offset_analytic():
    grids = [np.linspace(0, 1, 50)] * 3
    truth = np.zeros((50, 50, 50, 1))
    est = truth + 0.3
    assert mise(truth, est, grids) == pytest.approx(0.09, rel=1e-6)


def test_mise_refinement_consistency():
    cfg = ProductSimConfig(grid_size=41, n_subjects=2, seed=10, noise_var=0.0)
    sample = generate_product_sample(cfg)
    est = sample.truth * 1.02
    coarse = mise(sample.truth, est, sample.grids)
    fine_grids = [np.linspace(0, 1, 81) for _ in range(3)]
    truth_fine = sample.model.evaluate_subjects(fine_grids)
    fine = mise(truth_fine, truth_fine * 1.02, fine_grids)
    assert coarse == pytest.approx(fine, rel=1e-2)


def test_mise_grid_mismatch_raises():
    grids = [np.linspace(0, 1, 5)] * 2
    with pytest.raises(ValueError, match="shape"):
        mise(np.zeros((5, 5, 1)), np.zeros((5, 4, 1)), grids)
    with pytest.raises(ValueError, match="grids"):
        mise(np.zeros((5, 4, 1)), np.zeros((5, 4, 1)), grids)


@pytest.mark.parametrize("n_dims", [1, 2, 3])
def test_mise_matches_trapezoid_on_uneven_grids(n_dims):
    rng = np.random.default_rng(60 + n_dims)
    grids = [np.sort(rng.random(n)) for n in (7, 5, 6)[:n_dims]]
    shape = tuple(len(g) for g in grids) + (4,)
    truth, est = rng.standard_normal(shape), rng.standard_normal(shape)
    ref = (truth - est) ** 2
    for g in grids:
        ref = np.trapezoid(ref, x=g, axis=0)
    assert mise(truth, est, grids) == pytest.approx(float(ref.sum()), rel=1e-13)


def test_product_truth_lies_in_model_class():
    # fitting the noiseless sample with the generating bases at the true rank
    # drives the relative integrated error to numerical zero
    cfg = ProductSimConfig(
        n_dims=2, marginal_rank=7, true_rank=3, grid_size=25, n_subjects=6,
        noise_var=0.0, seed=11,
    )
    sample = generate_product_sample(cfg)
    bases = [FourierBasis((0.0, 1.0), 7) for _ in range(2)]
    fit_cfg = SolverConfig(rank=3, seed=0, max_outer_iters=800, outer_tol=1e-15)
    model, _, report = fit_mpb(sample.noisy, sample.grids, bases, [2, 2], fit_cfg)
    est = model.evaluate_subjects(sample.grids)
    rel = mise(sample.truth, est, sample.grids) / mise(
        sample.truth, np.zeros_like(sample.truth), sample.grids
    )
    assert rel < 1e-6


def test_config_validation():
    with pytest.raises(ValueError, match="odd"):
        ProductSimConfig(marginal_rank=10)
    with pytest.raises(ValueError, match=">= 1"):
        ProductSimConfig(n_subjects=0)
    with pytest.raises(ValueError, match="ranks"):
        Gp2dSimConfig(ranks=(3, 8))
