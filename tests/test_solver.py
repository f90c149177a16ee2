"""Solver blocks against independent oracles, then full descent behavior."""

import copy
import functools
import itertools
import re

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_sylvester

from mpbasis import sim
from mpbasis import solver as solver_mod
from mpbasis import tensors as T
from mpbasis.basis import FourierBasis
from mpbasis.errors import NumericalError
from mpbasis.reduction import prepare
from mpbasis.solver import (
    SolverConfig,
    SolverState,
    fit,
    objective,
    residual_sq,
    soft_threshold,
    sylvester_solve,
    update_b_admm,
    update_b_ridge,
    update_factor,
)


def make_state(rng, dims, n_subj, k, zero_b=False):
    c_tilde = [rng.standard_normal((m, k)) for m in dims]
    b = np.zeros((n_subj, k)) if zero_b else rng.standard_normal((n_subj, k))
    return SolverState(c_tilde=c_tilde, b=b)


def sweep_shift(config, gram):
    """The proximal shift :func:`fit` gives a block step of Gram ``gram``:
    ``proximal_mu tr(gram) / K``, or ``proximal_mu`` when that is below the
    smallest normal float."""
    s = config.proximal_mu * gram.trace() / config.rank
    return s if s >= np.finfo(float).tiny else config.proximal_mu


def exact_factor_step(g, state, d, t_d, config):
    """The exact minimizer of grid block ``d`` of ``g`` at ``state`` with the
    shift ``proximal_mu``, by :func:`sylvester_solve` on the whole tensor:
    ``X (W'W + mu I) + lambda_d T_d X = G_(d) W + mu C_d``."""
    lam, mu = config.marginal_weights(g.ndim - 1)[d], config.proximal_mu
    others = [c for j, c in enumerate(state.c_tilde) if j != d] + [state.b]
    gram = T.gram_of_khatri_rao(others) + mu * np.eye(config.rank)
    return sylvester_solve(gram, lam * t_d, T.mttkrp(g, others, d) + mu * state.c_tilde[d])


def factor_step(g, state, d, t_d, config, mttkrp=T.mttkrp, relative=False):
    """Full-tensor grid step: :func:`update_factor` on mode ``d`` of ``g`` at
    ``state``, with its Gram and MTTKRP formed from the other factors on the
    whole tensor, in the eigenbasis of ``lambda_d T_d`` (decomposed again on
    every call, by the eigensolver :func:`fit` uses once), and rotated back.
    Its shift is ``proximal_mu``, or with ``relative`` the sweep's
    :func:`sweep_shift`."""
    lam = config.marginal_weights(g.ndim - 1)[d]
    beta, p = solver_mod._eig_sym(lam * t_d, "penalty matrix")
    others = [c for j, c in enumerate(state.c_tilde) if j != d] + [state.b]
    gram, rhs = T.gram_of_khatri_rao(others), p.T @ mttkrp(g, others, d)
    mu = sweep_shift(config, gram) if relative else config.proximal_mu
    return p @ update_factor(gram, rhs, p.T @ state.c_tilde[d], beta, mu, d)


def ridge_step(g, state, config, mttkrp=T.mttkrp, relative=False):
    """Full-tensor ridge step: :func:`update_b_ridge` on the subject block of
    ``g`` at ``state``, with its Gram and MTTKRP formed on the whole tensor;
    unshifted, or with ``relative`` shifted towards ``state.b`` by the
    sweep's :func:`sweep_shift`."""
    gram = T.gram_of_khatri_rao(state.c_tilde)
    rhs = mttkrp(g, state.c_tilde, g.ndim - 1)
    shift = sweep_shift(config, gram) if relative else 0.0
    return update_b_ridge(gram, rhs, state.b, config, shift)


def lasso_step(g, state, config):
    """:func:`update_b_admm` on the subject block of ``g`` at ``state``, with
    its Gram and MTTKRP formed from the grid factors on the whole tensor and
    the shift ``proximal_mu``."""
    gram = T.gram_of_khatri_rao(state.c_tilde)
    rhs = T.mttkrp(g, state.c_tilde, g.ndim - 1)
    return update_b_admm(gram, rhs, state.b, config, config.proximal_mu)


def spd(rng, n, shift=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def psd(rng, n, rank=None):
    a = rng.standard_normal((n, rank or n))
    return a @ a.T


# ------------------------------------------------------------- sylvester solve


def test_sylvester_p_zero_matches_direct_solve():
    rng = np.random.default_rng(0)
    m = spd(rng, 4)
    q = rng.standard_normal((6, 4))
    x = sylvester_solve(m, np.zeros((6, 6)), q)
    assert np.abs(x - q @ np.linalg.inv(m)).max() < 1e-10


def test_sylvester_matches_kronecker_oracle():
    rng = np.random.default_rng(1)
    m = spd(rng, 5)
    p = psd(rng, 8, rank=5)
    q = rng.standard_normal((8, 5))
    x = sylvester_solve(m, p, q)
    # vec oracle with row-major vec: vec(XM + PX) = (I (x) M' + P (x) I) vec(X)
    a = np.kron(np.eye(8), m.T) + np.kron(p, np.eye(5))
    x_vec = np.linalg.solve(a, q.reshape(-1))
    assert np.abs(x - x_vec.reshape(8, 5)).max() < 1e-9


def test_sylvester_identity_shift():
    q = np.random.default_rng(2).standard_normal((3, 3))
    x = sylvester_solve(np.eye(3), np.eye(3), q)
    assert np.allclose(x, q / 2.0, atol=1e-12)


def test_sylvester_spectral_overlap_raises():
    with pytest.raises(NumericalError, match="proximal_mu"):
        sylvester_solve(np.zeros((3, 3)), np.zeros((4, 4)), np.ones((4, 3)))


def test_sylvester_overlap_names_the_block_and_its_margin():
    # a Gram of two equal columns is singular; with p = 0 nothing shifts it
    rng = np.random.default_rng(4)
    w = rng.standard_normal((6, 3))
    w[:, 2] = w[:, 0]
    gram = w.T @ w
    with pytest.raises(NumericalError) as err:
        sylvester_solve(gram, np.zeros((5, 5)), rng.standard_normal((5, 3)))
    msg = str(err.value)
    assert msg.startswith("Sylvester matrix m: Sylvester spectra overlap")
    assert "proximal_mu" in msg
    num = r"(\d\.\d{3}e[+-]\d+)"
    found = re.search(
        rf"smallest \|beta_i \+ alpha_k\| {num} is at or below the threshold "
        rf"1e-14 x scale {num} = {num}", msg
    )
    assert found, msg
    gap, scale, threshold = map(float, found.groups())
    alpha = np.linalg.eigvalsh(gram)
    assert scale == pytest.approx(np.abs(alpha).max(), rel=1e-3)
    assert threshold == pytest.approx(1e-14 * scale, rel=1e-3)
    assert gap <= threshold and gap <= 1e-14 * np.abs(alpha).max()


def test_sylvester_overlap_reads_the_same_on_both_gap_branches():
    # beta_min + alpha_min is 0, or it is -1 and beta_0 + alpha_1 is the 0
    msgs = []
    for alpha, beta in (([0.0, 1.0], [0.0, 2.0]), ([1.0, 2.0], [-2.0, 0.0])):
        with pytest.raises(NumericalError) as err:
            sylvester_solve(np.diag(alpha), np.diag(beta), np.ones((2, 2)))
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1]
    assert msgs[0].startswith(
        "Sylvester matrix m: Sylvester spectra overlap, smallest |beta_i + alpha_k| 0.000e+00 "
        "is at or below the threshold 1e-14 x scale 2.000e+00 = 2.000e-14"
    )


@pytest.mark.parametrize(
    "alpha, beta, scale",
    [([0.0, 1.0], [-5.0, 0.0], 5.0), ([-4.0, 0.0], [0.0, 1.0], 4.0), ([0.0], [0.0], 1e-300)],
)
def test_sylvester_overlap_scale_is_the_largest_magnitude_at_either_end(alpha, beta, scale):
    # the largest |alpha_k| or |beta_i| may be a most negative eigenvalue; with
    # both spectra at zero the scale is its floor
    with pytest.raises(NumericalError) as err:
        sylvester_solve(np.diag(alpha), np.diag(beta), np.ones((len(beta), len(alpha))))
    assert f"threshold 1e-14 x scale {scale:.3e} = {1e-14 * scale:.3e};" in str(err.value)


def test_sylvester_negative_beta_takes_the_outer_sum():
    # beta_min + alpha_min = -9 is no gap: every |beta_i + alpha_k| is at least 6
    m, beta = np.diag([1.0, 2.0]), np.array([-10.0, 5.0])
    q = np.random.default_rng(5).standard_normal((2, 2))
    x = sylvester_solve(m, np.diag(beta), q)
    assert np.abs(x - kron_oracle(m, beta, q)).max() <= 1e-15


@pytest.mark.parametrize("shift", [0.0, -1e3])
def test_sylvester_solves_indefinite_blocks_with_pivoting(shift):
    # a PSD beta gives positive definite blocks; a beta below -alpha_min
    # gives blocks that are not, which are solved to the same accuracy
    rng = np.random.default_rng(9)
    w = rng.standard_normal((12, 6))
    m, beta = w.T @ w, np.sort(rng.random(5)) * 3.0 + shift
    q = rng.standard_normal((5, 6))
    x = sylvester_solve(m, np.diag(beta), q)
    ref = kron_oracle(m, beta, q)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sylvester_solve_takes_an_indefinite_p():
    # the public solver on X m + p X = q with p symmetric indefinite: its
    # eigenvalues straddle -alpha_min, yet no beta_i + alpha_k is near zero
    rng = np.random.default_rng(10)
    w = rng.standard_normal((10, 4))
    m = w.T @ w
    alpha = np.linalg.eigvalsh(m)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    beta = np.array([-alpha[0] - 0.5 * (alpha[1] - alpha[0]), 0.0, 1.0])
    p = u @ np.diag(beta) @ u.T
    q = rng.standard_normal((3, 4))
    x = solver_mod.sylvester_solve(m, p, q)
    assert np.abs(x @ m + p @ x - q).max() <= 1e-12 * np.abs(q).max()


def test_sylvester_residual_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k, n = rng.integers(2, 7), rng.integers(2, 10)
        m = spd(rng, k, shift=0.1)
        p = psd(rng, n)
        q = rng.standard_normal((n, k))
        x = sylvester_solve(m, p, q)
        res = np.linalg.norm(x @ m + p @ x - q)
        bound = 1e-9 * (np.linalg.norm(q) + np.linalg.norm(x) * np.linalg.norm(m))
        assert res <= bound


@pytest.mark.parametrize("p_kind", ["psd", "zero"])
@pytest.mark.parametrize("k", [1, 3, 25, 30])
def test_sylvester_solve_matches_scipy_solve_sylvester(k, p_kind):
    rng = np.random.default_rng(40 + k)
    n = 12
    m = spd(rng, k, shift=0.1)
    p = psd(rng, n, rank=7) if p_kind == "psd" else np.zeros((n, n))
    q = rng.standard_normal((n, k))
    inputs = [m.copy(), p.copy(), q.copy()]
    ref = solve_sylvester(p, m, q)  # Bartels-Stewart on p X + X m = q
    x = sylvester_solve(m, p, q)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    # the LAPACK kernels work in place on copies, never on the arguments
    for before, after in zip(inputs, [m, p, q]):
        assert np.array_equal(before, after)


def kron_oracle(m, beta, q):
    """``X`` with ``X m + diag(beta) X = q`` from the dense Kronecker system."""
    n, k = q.shape
    a = np.kron(np.eye(n), m.T) + np.kron(np.diag(beta), np.eye(k))
    return np.linalg.solve(a, q.reshape(-1)).reshape(n, k)


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("k", [1, 2, 25, 30])
def test_sylvester_solve_matches_kronecker_oracle(k, n):
    # the exact factor block at the shift mu: n below and above K; the
    # penalty spectrum has a null space (zeros)
    rng = np.random.default_rng(100 + k + n)
    w = rng.standard_normal((k + 5, k))
    gram = w.T @ w
    beta = np.sort(np.abs(rng.standard_normal(n)))
    beta[: min(2, n)] = 0.0
    rhs, x_old = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    mu = 1e-3
    inputs = [gram.copy(), rhs.copy(), x_old.copy(), beta.copy()]
    x = sylvester_solve(gram + mu * np.eye(k), np.diag(beta), rhs + mu * x_old)
    ref = kron_oracle(gram + mu * np.eye(k), beta, rhs + mu * x_old)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    for before, after in zip(inputs, [gram, rhs, x_old, beta]):
        assert np.array_equal(before, after)


def test_sylvester_solve_is_backward_stable_on_an_ill_conditioned_gram():
    rng = np.random.default_rng(7)
    k, n = 25, 15
    u = np.linalg.qr(rng.standard_normal((k, k)))[0]
    m = (u * np.logspace(-6, 6, k)) @ u.T
    m = (m + m.T) / 2
    beta = np.sort(rng.random(n))
    beta[0] = 0.0
    q = rng.standard_normal((n, k))
    x = sylvester_solve(m, np.diag(beta), q)
    res = np.linalg.norm(x @ m + beta[:, None] * x - q)
    assert res <= 1e-14 * (np.linalg.norm(q) + np.linalg.norm(x) * np.linalg.norm(m))


@pytest.mark.parametrize(
    "call, what",
    [
        (0, "Sylvester matrix m"), (1, "Sylvester matrix p"), (0, "penalty matrix 0"),
        (1, "penalty matrix 1"),
    ],
)
def test_eigendecomposition_failure_names_the_matrix(monkeypatch, call, what):
    # dsyev returns info 7 on its call-th call: on m or p of sylvester_solve,
    # or on the first or second penalty rotation of fit
    syev, calls = solver_mod._SYEV, itertools.count()

    def failing(*args, **kwargs):
        out = syev(*args, **kwargs)
        return out[:-1] + (7,) if next(calls) == call else out

    monkeypatch.setattr(solver_mod, "_SYEV", failing)
    rng = np.random.default_rng(8)
    with pytest.raises(NumericalError) as err:
        if what.startswith("Sylvester"):
            w = rng.standard_normal((6, 3))
            sylvester_solve(w.T @ w + 1e-8 * np.eye(3), psd(rng, 4), rng.standard_normal((4, 3)))
        else:
            cfg = SolverConfig(rank=2, lambda_marginal=0.1, max_outer_iters=2, seed=1)
            fit(rng.standard_normal((4, 3, 5)), [psd(rng, 4), psd(rng, 3)], cfg)
    assert str(err.value) == f"eigendecomposition of {what} failed (LAPACK dsyev info 7)"


@pytest.mark.parametrize(
    "dims, n_subj, k, coef_penalty",
    [((10, 8), 100, 30, "ridge"), ((15, 15, 15), 5, 25, "ridge"), ((10, 8), 40, 20, "lasso")],
)
def test_fit_runs_no_sylvester_kernel(monkeypatch, dims, n_subj, k, coef_penalty):
    # the benchmark workloads' compressed shapes and ranks: every factor step
    # of the sweep is a Cholesky solve, and the only eigendecompositions are
    # the penalty rotations
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep ran a Sylvester solve")

    eigs, eig = [], solver_mod._eig_sym
    monkeypatch.setattr(solver_mod, "_eig_sym", lambda a, what: eigs.append(what) or eig(a, what))
    monkeypatch.setattr(solver_mod, "sylvester_solve", forbidden)
    rng = np.random.default_rng(61)
    g = rank_k_tensor(rng, dims, n_subj, 8) + 0.05 * rng.standard_normal(dims + (n_subj,))
    cfg = SolverConfig(
        rank=k, lambda_marginal=1e-3, lambda_coef=1e-3, coef_penalty=coef_penalty,
        max_outer_iters=3, outer_tol=1e-300, seed=5,
    )
    assert fit(g, [psd(rng, m) for m in dims], cfg).iters == 3
    assert eigs and all(what.startswith("penalty matrix") for what in eigs)


@pytest.mark.parametrize("bad", ["m", "p"])
def test_sylvester_solve_non_finite_matrix_raises_numerical_error(bad):
    rng = np.random.default_rng(41)
    m, p, q = spd(rng, 3), psd(rng, 4), rng.standard_normal((4, 3))
    (m if bad == "m" else p)[0, 1] = np.inf
    with pytest.raises(NumericalError, match=f"Sylvester matrix {bad} is not finite"):
        sylvester_solve(m, p, q)


# ------------------------------------------------------------- soft threshold


def test_soft_threshold_definition_cases():
    assert soft_threshold(np.array([1.5]), 1.0)[0] == pytest.approx(0.5)
    assert soft_threshold(np.array([-0.3]), 1.0)[0] == 0.0
    assert soft_threshold(np.array([-2.0]), 0.5)[0] == pytest.approx(-1.5)


def test_soft_threshold_zero_kappa_is_identity():
    x = np.random.default_rng(4).standard_normal((3, 5))
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_minimizes_scalar_prox():
    # argmin_b kappa |b| + 0.5 (b - v)^2 against a grid search
    grid = np.linspace(-4, 4, 200_001)
    for v in (-2.3, -0.4, 0.0, 0.7, 3.1):
        for kappa in (0.0, 0.5, 1.7):
            ref = grid[np.argmin(kappa * np.abs(grid) + 0.5 * (grid - v) ** 2)]
            got = soft_threshold(np.array([v]), kappa)[0]
            assert abs(got - ref) < 1e-4  # grid resolution 4e-5
            assert kappa * abs(got) + 0.5 * (got - v) ** 2 <= (
                kappa * abs(ref) + 0.5 * (ref - v) ** 2 + 1e-12
            )



@pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e-300, 0.7, 1.0, 1e300, np.inf])
def test_soft_threshold_matches_sign_formula(kappa):
    mags = np.concatenate([10.0 ** np.arange(-300, 301, 5), [5e-324, 1.0, 1e308]])
    x = np.concatenate([
        mags, -mags, [0.0, -0.0, kappa, -kappa, np.inf, -np.inf, np.nan],
        np.nextafter(kappa, [np.inf, 0.0]), -np.nextafter(kappa, [np.inf, 0.0]),
    ])
    with np.errstate(invalid="ignore"):  # inf - inf at kappa = inf, in both forms
        ref = np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)
        got = soft_threshold(x, kappa)
    # assert_array_equal counts NaNs in the same place as equal and 0.0 == -0.0
    np.testing.assert_array_equal(got, ref)

# -------------------------------------------------------------- factor update


def test_update_factor_unpenalized_matches_least_squares():
    rng = np.random.default_rng(5)
    dims, n_subj, k = (6, 5), 7, 3
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    cfg = SolverConfig(rank=k, lambda_marginal=0.0, proximal_mu=0.0)
    t_d = np.zeros((6, 6))
    got = factor_step(g, state, 0, t_d, cfg)
    w = T.khatri_rao([state.b, state.c_tilde[1]])
    ref = T.unfold(g, 0) @ w @ np.linalg.inv(w.T @ w)
    assert np.abs(got - ref).max() < 1e-9


def test_factor_block_minimizer_penalty_dominated_limit():
    rng = np.random.default_rng(6)
    dims, n_subj, k = (5, 4), 6, 2
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    cfg = SolverConfig(rank=k, lambda_marginal=1e12, proximal_mu=0.0)
    t_d = spd(rng, 5)
    got = exact_factor_step(g, state, 0, t_d, cfg)
    assert np.linalg.norm(got) < 1e-6


def test_update_factor_never_increases_conditional_objective():
    rng = np.random.default_rng(7)
    for trial in range(20):
        dims = tuple(rng.integers(3, 7, size=2))
        n_subj, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        g = rng.standard_normal((*dims, n_subj))
        state = make_state(rng, dims, n_subj, k)
        t_mats = [psd(rng, m) for m in dims]
        cfg = SolverConfig(
            rank=k, lambda_marginal=float(rng.uniform(0, 0.5)), proximal_mu=1e-8
        )
        d = int(rng.integers(0, 2))
        before = objective(g, state, t_mats, cfg)
        state.c_tilde[d] = factor_step(g, state, d, t_mats[d], cfg)
        after = objective(g, state, t_mats, cfg)
        assert after <= before + 1e-10


@pytest.mark.parametrize("mu", [1e-8, 0.5])
def test_factor_block_minimizer_satisfies_gradient_equation(mu):
    # at mu = 0.5 the proximal pull towards the old factor is far above the
    # tolerance, so a solve that drops it fails
    rng = np.random.default_rng(8)
    dims, n_subj, k = (6, 4), 5, 3
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    lam = 0.3
    cfg = SolverConfig(rank=k, lambda_marginal=lam, proximal_mu=mu)
    t_d = psd(rng, 6)
    old = state.c_tilde[0].copy()
    x = exact_factor_step(g, state, 0, t_d, cfg)
    others = [state.c_tilde[1], state.b]
    gram = T.gram_of_khatri_rao(others)
    rhs = T.mttkrp(g, others, 0) + mu * old
    res = x @ (gram + mu * np.eye(k)) + lam * t_d @ x - rhs
    assert np.linalg.norm(res) < 1e-8 * max(np.linalg.norm(rhs), 1.0)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sylvester_solve_matches_kronecker_oracle_in_eigenbasis(k):
    # X (M + mu I) + diag(beta) X = Q + mu X_old, vectorized row-major
    rng = np.random.default_rng(44 + k)
    n, mu = 7, 0.25
    gram, beta = psd(rng, k), np.abs(rng.standard_normal(n))
    q, x_old = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    inputs = [gram.copy(), q.copy(), x_old.copy(), beta.copy()]
    x = sylvester_solve(gram + mu * np.eye(k), np.diag(beta), q + mu * x_old)
    a = np.kron(np.eye(n), (gram + mu * np.eye(k)).T) + np.kron(np.diag(beta), np.eye(k))
    ref = np.linalg.solve(a, (q + mu * x_old).reshape(-1)).reshape(n, k)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    for before, after in zip(inputs, [gram, q, x_old, beta]):
        assert np.array_equal(before, after)


def block_value(gram, rhs, beta, x):
    """A factor block's objective in its penalty's eigenbasis, less the
    constant ``|G|^2``: ``tr(X M X') - 2 tr(X Q') + sum_i beta_i |x_i|^2`` for
    the Gram ``M`` and the MTTKRP ``Q``; and the sum of its terms' magnitudes,
    the scale of its rounding."""
    terms = [np.sum(x * (x @ gram)), -2.0 * np.sum(x * rhs), beta @ np.sum(x * x, axis=1)]
    return float(sum(terms)), float(sum(abs(t) for t in terms))


def test_update_factor_never_raises_the_block_objective():
    # random Grams, shifts and penalty spectra, some of whose smallest
    # entries are negative at rounding level, as dsyev can return them for a
    # PSD penalty: the majorized step lowers the block objective or keeps it
    rng = np.random.default_rng(70)
    negatives = 0
    for trial in range(300):
        k, n = int(rng.integers(1, 31)), int(rng.integers(1, 41))
        w = rng.standard_normal((k + int(rng.integers(1, 20)), k))
        gram = w.T @ w
        scale = gram.trace() / k
        beta = np.sort(rng.random(n)) * scale * 10 ** rng.uniform(-6, 3)
        m = int(rng.integers(0, n + 1))
        beta[:m] = -1e-16 * scale * rng.random(m)
        negatives += m > 0
        mu = (0.0, 1e-8 * scale, 0.5 * scale)[trial % 3]
        rhs, x_old = scale * rng.standard_normal((n, k)), rng.standard_normal((n, k))
        x = update_factor(gram, rhs, x_old, beta, mu, 0)
        before, size_before = block_value(gram, rhs, beta, x_old)
        after, size_after = block_value(gram, rhs, beta, x)
        assert after <= before + 1e-13 * max(size_before, size_after)
    assert negatives >= 200


@pytest.mark.parametrize("k, n", [(1, 3), (5, 40), (25, 15), (30, 10)])
@pytest.mark.parametrize("mu", [0.0, 1e-3])
def test_update_factor_without_penalty_is_the_exact_block_minimizer(k, n, mu):
    # beta = 0: the majorizer is the objective itself, and the step solves
    # the block exactly
    rng = np.random.default_rng(200 + k + n)
    w = rng.standard_normal((2 * k + 10, k))
    gram, beta = w.T @ w, np.zeros(n)
    rhs, x_old = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    inputs = [gram.copy(), rhs.copy(), x_old.copy(), beta.copy()]
    x = update_factor(gram, rhs, x_old, beta, mu, 0)
    ref = sylvester_solve(gram + mu * np.eye(k), np.zeros((n, n)), rhs + mu * x_old)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # the Gram may be one of the sweep's cached per-factor Grams: never mutated
    for before, after in zip(inputs, [gram, rhs, x_old, beta]):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("k, n", [(1, 4), (3, 8), (8, 3), (25, 10)])
@pytest.mark.parametrize("mu", [0.0, 1e-2])
def test_update_factor_fixed_point_is_the_exact_block_minimizer(k, n, mu):
    # at its fixed point the step's shift and linearization cancel: the
    # factor solves X M + diag(beta) X = Q, the block's exact minimizer
    rng = np.random.default_rng(300 + k + n)
    w = rng.standard_normal((2 * k + 10, k))
    gram = w.T @ w
    beta = np.sort(rng.random(n)) * gram.trace() / k
    beta[0] = 0.0
    rhs = rng.standard_normal((n, k))
    x = np.zeros((n, k))
    for _ in range(1000):
        x = update_factor(gram, rhs, x, beta, mu, 0)
    ref = sylvester_solve(gram, np.diag(beta), rhs)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_update_factor_refuses_an_unshifted_singular_gram_by_mode():
    # a Gram of two equal columns with no penalty and proximal_mu = 0: nothing
    # shifts it, and the Cholesky guard refuses it where the Sylvester
    # overlap guard did, naming the mode
    rng = np.random.default_rng(4)
    w = rng.standard_normal((6, 3))
    w[:, 2] = w[:, 0]
    with pytest.raises(NumericalError) as err:
        update_factor(w.T @ w, rng.standard_normal((5, 3)), np.zeros((5, 3)), np.zeros(5), 0.0, 1)
    assert str(err.value).startswith(
        "singular factor Gram W'W + (mu + L) I of mode 1; raise proximal_mu (Cholesky"
    )
    # in a fit: a start whose two components are equal in every factor gives
    # the first factor step, mode 0, a singular Gram
    g = rng.standard_normal((6, 5, 4))
    start = make_state(rng, (6, 5), 4, 1)
    start = SolverState([np.hstack([c, c]) for c in start.c_tilde], np.hstack([start.b, start.b]))
    cfg = SolverConfig(rank=2, proximal_mu=0.0, max_outer_iters=3)
    lead = re.escape("singular factor Gram W'W + (mu + L) I of mode 0;")
    with pytest.raises(NumericalError, match=f"^{lead}"):
        fit(g, [np.zeros((6, 6)), np.zeros((5, 5))], cfg, initial_state=start)


def test_update_factor_lapack_failure_names_the_mode(monkeypatch):
    potrf = solver_mod._POTRF
    monkeypatch.setattr(solver_mod, "_POTRF", lambda *a, **kw: potrf(*a, **kw)[:-1] + (7,))
    rng = np.random.default_rng(8)
    w = rng.standard_normal((6, 3))
    args = (w.T @ w, rng.standard_normal((4, 3)), np.zeros((4, 3)), np.arange(4.0), 1e-8, 2)
    with pytest.raises(NumericalError) as err:
        update_factor(*args)
    msg = str(err.value)
    assert "factor Gram W'W + (mu + L) I of mode 2" in msg
    assert "LAPACK dpotrf info 7" in msg


# ------------------------------------------------------------- subject update


def test_update_b_ridge_orthonormal_design():
    rng = np.random.default_rng(9)
    dims, n_subj, k = (8, 5), 6, 3
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    # orthonormalize the Khatri-Rao columns through a joint QR trick:
    # use orthonormal per-mode factors with matching column pairings
    q1 = np.linalg.qr(rng.standard_normal((8, k)))[0]
    q2 = np.linalg.qr(rng.standard_normal((5, k)))[0]
    state.c_tilde = [q1, q2]
    w = T.khatri_rao([state.c_tilde[1], state.c_tilde[0]])
    gram = w.T @ w
    if np.abs(gram - np.eye(k)).max() > 1e-12:
        pytest.skip("random draw did not give orthonormal Khatri-Rao columns")
    cfg = SolverConfig(rank=k, lambda_coef=0.0)
    got = ridge_step(g, state, cfg)
    ref = T.unfold(g, 2) @ T.khatri_rao([state.c_tilde[1], state.c_tilde[0]])
    assert np.abs(got - ref).max() < 1e-10


def test_update_b_ridge_matches_dense_oracle():
    rng = np.random.default_rng(10)
    dims, n_subj, k = (6, 7), 5, 3
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    lam = 0.37
    cfg = SolverConfig(rank=k, lambda_coef=lam)
    got = ridge_step(g, state, cfg)
    w = T.khatri_rao([state.c_tilde[1], state.c_tilde[0]])
    ref = np.linalg.solve(w.T @ w + lam * np.eye(k), w.T @ T.unfold(g, 2).T).T
    assert np.abs(got - ref).max() < 1e-9


def test_update_b_ridge_shrinks_to_zero():
    rng = np.random.default_rng(11)
    dims, n_subj, k = (5, 4), 3, 2
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    cfg = SolverConfig(rank=k, lambda_coef=1e12)
    assert np.linalg.norm(ridge_step(g, state, cfg)) < 1e-8


def test_update_b_ridge_singular_raises():
    rng = np.random.default_rng(12)
    dims, n_subj, k = (5, 4), 3, 2
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    state.c_tilde[0][:, 1] = state.c_tilde[0][:, 0]
    state.c_tilde[1][:, 1] = state.c_tilde[1][:, 0]
    cfg = SolverConfig(rank=k, lambda_coef=0.0)
    with pytest.raises(NumericalError, match="singular"):
        ridge_step(g, state, cfg)


def lasso_coordinate_descent(w, y, lam, iters=3000):
    """Oracle for min_b ||y - W b||^2 + lam ||b||_1 (note: unhalved loss)."""
    k = w.shape[1]
    b = np.zeros(k)
    col_sq = (w**2).sum(axis=0)
    for _ in range(iters):
        for j in range(k):
            r = y - w @ b + w[:, j] * b[j]
            rho = w[:, j] @ r
            b[j] = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / col_sq[j]
    return b


def test_update_b_admm_penalty_free_matches_ridge_path():
    rng = np.random.default_rng(13)
    dims, n_subj, k = (6, 5), 4, 3
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    cfg = SolverConfig(
        rank=k,
        lambda_coef=0.0,
        coef_penalty="lasso",
    )
    b, z, a, ok, _ = lasso_step(g, state, cfg)
    assert ok
    ref = ridge_step(g, state, SolverConfig(rank=k, lambda_coef=0.0))
    assert np.abs(b - ref).max() < 1e-6


def test_update_b_admm_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(14)
    dims, n_subj, k = (4, 5), 6, 3
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    lam = 0.8
    cfg = SolverConfig(
        rank=k,
        lambda_coef=lam,
        coef_penalty="lasso",
    )
    b, z, a, ok, it = lasso_step(g, state, cfg)
    assert ok
    w = T.khatri_rao([state.c_tilde[1], state.c_tilde[0]])
    gmat = T.unfold(g, 2)
    assert kkt_violation(w, gmat, state.b, b, cfg) <= KKT_TOL
    for i in range(n_subj):
        ref = lasso_coordinate_descent(w, gmat[i], lam)
        assert np.abs(b[i] - ref).max() < 1e-5


def test_update_b_admm_full_shrinkage():
    rng = np.random.default_rng(15)
    dims, n_subj, k = (5, 4), 3, 2
    g = rng.standard_normal((*dims, n_subj))
    state = make_state(rng, dims, n_subj, k)
    cfg = SolverConfig(rank=k, lambda_coef=1e10, coef_penalty="lasso")
    b, _, _, _, _ = lasso_step(g, state, cfg)
    assert np.array_equal(b, np.zeros_like(b))



def lasso_block(w, gmat, b_old, config):
    """``(A, C, tau)`` of the proximal lasso block, formed from the Khatri-Rao
    product ``w`` and the subject unfolding ``gmat``: every row minimizes
    ``b'A b / 2 - c'b + tau |b|_1``."""
    mu = config.proximal_mu
    a = w.T @ w + mu * np.eye(w.shape[1])
    return a, gmat @ w + mu * b_old, config.lambda_coef / 2.0


def kkt_violation(w, gmat, b_old, b, config):
    """Largest breach of the lasso KKT conditions at ``b``, relative to the
    rounding scale ``|b||A| + |c| + tau`` of the gradient ``g = b A - c``:
    ``g_j = -tau sign(b_j)`` where ``b_j != 0`` and ``|g_j| <= tau`` elsewhere."""
    return kkt_breach(*lasso_block(w, gmat, b_old, config), b)


def kkt_breach(a, c, tau, b):
    """:func:`kkt_violation` of the rows ``b`` of the lasso block ``(A, C, tau)``."""
    g = b @ a - c
    breach = np.where(b != 0, np.abs(g + tau * np.sign(b)), np.maximum(np.abs(g) - tau, 0.0))
    return float(np.max(breach / (np.abs(b) @ np.abs(a) + np.abs(c) + tau)))


#: Largest relative KKT breach accepted: a few hundred rounding errors.
KKT_TOL = 1e-13


def block_values(w, gmat, b_old, b, config):
    """Row values ``b'A b / 2 - c'b + tau |b|_1`` of the proximal lasso block."""
    a, c, tau = lasso_block(w, gmat, b_old, config)
    quad = 0.5 * np.einsum("ij,ij->i", b @ a, b)
    return quad - np.einsum("ij,ij->i", c, b) + tau * np.abs(b).sum(1)


def enumerated_lasso(w, gmat, b_old, config):
    """Exact lasso block by enumeration of sign patterns (small K): each
    pattern's stationary point is kept when its signs agree with the pattern,
    and the kept point of lowest value is the minimizer."""
    return enumerated_rows(*lasso_block(w, gmat, b_old, config))


def enumerated_rows(a, c, tau):
    """:func:`enumerated_lasso` of the lasso block ``(A, C, tau)``."""
    k = a.shape[0]
    out = np.zeros_like(c)
    for i in range(c.shape[0]):
        best, best_val = np.zeros(k), 0.0
        for signs in itertools.product((-1.0, 0.0, 1.0), repeat=k):
            s = np.flatnonzero(signs)
            if not s.size:
                continue
            x = np.zeros(k)
            x[s] = np.linalg.solve(a[np.ix_(s, s)], c[i, s] - tau * np.asarray(signs)[s])
            if np.all(np.sign(x[s]) == np.asarray(signs)[s]):
                val = 0.5 * x @ a @ x - c[i] @ x + tau * np.abs(x).sum()
                if val < best_val:
                    best, best_val = x, val
        out[i] = best
    return out


def grid_design(state):
    """Khatri-Rao product of the grid factors, first mode fastest."""
    return T.khatri_rao(state.c_tilde[::-1])


def admm_case(name):
    """(g_hat, state, config) for one case of the lasso coefficient block."""
    rng = np.random.default_rng(16)
    dims = (6, 5)
    if name == "warm":
        # a fitted state: the compared call starts near its solution
        g = rank_k_tensor(rng, dims, 8, 3) + 0.05 * rng.standard_normal(dims + (8,))
        cfg = SolverConfig(rank=3, lambda_coef=0.05, coef_penalty="lasso", max_outer_iters=5)
        return g, fit(g, [np.zeros((m, m)) for m in dims], cfg), cfg
    n_subj, k = {"k1": (8, 1), "n1": (1, 3), "singular": (8, 3)}[name]
    g = rng.standard_normal(dims + (n_subj,))
    state = make_state(rng, dims, n_subj, k)
    mu = SolverConfig.proximal_mu
    if name == "singular":
        # nearly equal columns make W'W numerically singular, unshifted
        for c in state.c_tilde:
            c[:, 1] = c[:, 0]
        state.c_tilde[0][:, 1] += 3e-8 * rng.standard_normal(dims[0])
        mu = 0.0
    return g, state, SolverConfig(rank=k, lambda_coef=0.5, coef_penalty="lasso", proximal_mu=mu)


@pytest.mark.parametrize("name", ["warm", "k1", "n1", "singular"])
def test_update_b_admm_matches_per_iteration_cho_solve(name):
    g, state, cfg = admm_case(name)
    w, gmat = grid_design(state), T.unfold(g, g.ndim - 1)
    if name == "singular":
        with pytest.raises(NumericalError, match="lasso block") as info:
            lasso_step(g, state, cfg)
        msg = str(info.value)
        ratio = re.search(r"diagonal ratio (\S+) is at or below the threshold 1e-07", msg)
        assert ratio and 0.0 < float(ratio.group(1)) <= solver_mod.CHOL_DIAG_RATIO_TOL
        return
    b = enumerated_lasso(w, gmat, state.b, cfg)
    ref = (b, b.T, np.zeros_like(b), True)
    got = lasso_step(g, state, cfg)
    for x, y in zip(got[:3], ref[:3]):
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)
    assert got[3:4] == ref[3:]


@pytest.mark.parametrize(
    "corrupt, quantity",
    [("g_hat", "W'G"), ("b", "warm-start"), ("c_tilde", "Cholesky")],
)
def test_update_b_admm_non_finite_raises_numerical_error(corrupt, quantity):
    rng = np.random.default_rng(17)
    g = rng.standard_normal((6, 5, 4))
    state = make_state(rng, (6, 5), 4, 2)
    cfg = SolverConfig(rank=2, lambda_coef=0.1, coef_penalty="lasso")
    if corrupt == "g_hat":
        g[2, 3, 1] = np.nan
    elif corrupt == "b":
        state.b[1, 0] = np.nan
    else:
        # one grid mode with entries whose Gram overflows while W'G stays finite
        g = rng.standard_normal((6, 4))
        state = make_state(rng, (6,), 4, 2)
        state.c_tilde[0] *= 1e160
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match=quantity
    ):
        lasso_step(g, state, cfg)


def ill_conditioned_case(rng, n_subj=30, k=4):
    """One grid mode whose factor has singular values 1 to 10^-3.5, so W'W
    has condition number 1e7, and noisy data from dense coefficients."""
    u = np.linalg.qr(rng.standard_normal((40, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    c = (u * np.logspace(0.0, -3.5, k)) @ v.T
    b_true = rng.standard_normal((n_subj, k))
    g = c @ b_true.T + 1e-3 * rng.standard_normal((40, n_subj))
    state = make_state(rng, (40,), n_subj, k)
    state.c_tilde = [c]
    return g, state


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 0.5])
def test_update_b_admm_exact_on_ill_conditioned_gram(lam):
    rng = np.random.default_rng(40)
    g, state = ill_conditioned_case(rng)
    w = state.c_tilde[0]
    assert np.linalg.cond(w.T @ w) >= 1e6
    cfg = SolverConfig(rank=4, lambda_coef=lam, coef_penalty="lasso")
    ref = enumerated_lasso(w, g.T, state.b, cfg)
    if lam == 0.5:
        assert np.mean(ref == 0) >= 0.2
    b, z, a_star, ok, n_iters = lasso_step(g, state, cfg)
    assert ok and 1 <= n_iters <= solver_mod._LASSO_MAX_STEPS
    assert np.array_equal(z, b.T) and not a_star.any()
    f_got = block_values(w, g.T, state.b, b, cfg).sum()
    f_ref = block_values(w, g.T, state.b, ref, cfg).sum()
    assert abs(f_got - f_ref) <= 1e-10 * abs(f_ref)
    assert np.array_equal(b == 0, ref == 0)
    assert kkt_violation(w, g.T, state.b, b, cfg) <= KKT_TOL


def test_update_b_admm_wrong_sign_warm_start_converges():
    rng = np.random.default_rng(41)
    g, state = ill_conditioned_case(rng)
    w = state.c_tilde[0]
    cfg = SolverConfig(rank=4, lambda_coef=1e-2, coef_penalty="lasso")
    # the solution with every sign reversed, and every zero made nonzero
    ref = enumerated_lasso(w, g.T, state.b, cfg)
    state.b = np.where(ref == 0, 1.0, -ref)
    ref = enumerated_lasso(w, g.T, state.b, cfg)
    b, _, _, ok, _ = lasso_step(g, state, cfg)
    assert ok
    assert np.array_equal(b == 0, ref == 0)
    assert np.linalg.norm(b - ref) <= 1e-10 * np.linalg.norm(ref)
    assert kkt_violation(w, g.T, state.b, b, cfg) <= KKT_TOL


@pytest.mark.parametrize("lam", [1e-2, 0.5])
def test_update_b_admm_feature_sign_search_alone_is_exact(monkeypatch, lam):
    # no active-set passes: every row the warm-start pattern leaves
    # uncertified is finished by feature-sign search
    monkeypatch.setattr(solver_mod, "_PDAS_PASSES", 0)
    rng = np.random.default_rng(43)
    g, state = ill_conditioned_case(rng)
    w = state.c_tilde[0]
    cfg = SolverConfig(rank=4, lambda_coef=lam, coef_penalty="lasso")
    ref = enumerated_lasso(w, g.T, state.b, cfg)
    b, _, _, ok, n_iters = lasso_step(g, state, cfg)
    assert ok and n_iters > 2
    assert np.array_equal(b == 0, ref == 0)
    f_got = block_values(w, g.T, state.b, b, cfg).sum()
    f_ref = block_values(w, g.T, state.b, ref, cfg).sum()
    assert abs(f_got - f_ref) <= 1e-10 * abs(f_ref)
    assert kkt_violation(w, g.T, state.b, b, cfg) <= KKT_TOL


def test_update_b_admm_step_cap_warns_and_does_not_raise_the_block(monkeypatch):
    monkeypatch.setattr(solver_mod, "_LASSO_MAX_STEPS", 1)
    rng = np.random.default_rng(42)
    g, state = ill_conditioned_case(rng)
    w = state.c_tilde[0]
    cfg = SolverConfig(rank=4, lambda_coef=1e-2, coef_penalty="lasso")
    # the first half starts on its solution's sign pattern, the rest on the reverse
    ref = enumerated_lasso(w, g.T, state.b, cfg)
    half = ref.shape[0] // 2
    state.b = np.vstack([ref[:half], 0.5 - ref[half:]])
    ref = enumerated_lasso(w, g.T, state.b, cfg)
    with pytest.warns(RuntimeWarning, match="coefficient ADMM hit 1 "):
        b, _, _, ok, n_iters = lasso_step(g, state, cfg)
    assert not ok and n_iters == 1
    before = block_values(w, g.T, state.b, state.b, cfg)
    after = block_values(w, g.T, state.b, b, cfg)
    assert np.all(after <= before)
    assert np.linalg.norm(b[:half] - ref[:half]) <= 1e-10 * np.linalg.norm(ref[:half])


def pattern_system(rng, n_subj=40, k=20):
    """``A = W'W + I`` at the benchmark's lasso shape (N = 40, K = 20), its
    factor from the guarded Cholesky and N right-hand sides."""
    w = rng.standard_normal((60, k))
    a = w.T @ w + np.eye(k)
    return a, solver_mod._cholesky(a.copy(), "A"), rng.standard_normal((n_subj, k))


def test_solve_on_patterns_mixed_rows_match_independent_solves(monkeypatch):
    rng = np.random.default_rng(44)
    a, chol, r = pattern_system(rng)
    act = np.ones(r.shape, dtype=bool)
    act[[30, 31], ::3] = False  # two rows sharing one partial pattern
    act[32, 5:] = False  # a partial pattern of its own
    act[33] = False  # an empty active set
    factored, cholesky = [], solver_mod._cholesky
    monkeypatch.setattr(
        solver_mod, "_cholesky", lambda m, what: factored.append(m.shape) or cholesky(m, what)
    )
    x = solver_mod._solve_on_patterns(a, chol, r, act, "A")
    # full rows are solved off the given factor, and a shared pattern is factored once
    assert sorted(factored) == [(5, 5), (13, 13)]
    for i, s in enumerate(act):
        ref = np.linalg.solve(a[np.ix_(s, s)], r[i, s]) if s.any() else np.zeros(0)
        assert np.abs(x[i, s] - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=1.0)
        assert not x[i, ~s].any()


def test_solve_on_patterns_all_full_rows_is_one_factor_solve():
    rng = np.random.default_rng(45)
    a, chol, r = pattern_system(rng)
    x = solver_mod._solve_on_patterns(a, chol, r, np.ones(r.shape, dtype=bool), "A")
    ref = cho_solve((chol, False), r.T).T
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert x.flags.c_contiguous
    cfg = SolverConfig(rank=20, lambda_coef=0.0)
    b = update_b_admm(a, r, np.ones_like(r), cfg, cfg.proximal_mu)[0]
    assert b.flags.c_contiguous


def test_update_b_admm_non_finite_sub_pattern_raises_numerical_error(monkeypatch):
    # update_b_admm refuses a non-finite W'W + mu I before any solve, so the
    # guard on a partial pattern's system is reached only through a corrupted
    # copy of A: corrupt an entry that the first partial pattern keeps. Row 1
    # starts at zero with c_3 = 0, so its first pattern, sign(c) thresholded
    # at tau, drops entry 3 alone
    rng = np.random.default_rng(46)
    a, _, r = pattern_system(rng, n_subj=4, k=5)
    b_old = rng.standard_normal(r.shape)
    b_old[1] = 0.0
    r[1, 3] = 0.0
    assert np.flatnonzero(np.abs(r[1]) <= 0.05).tolist() == [3]
    solve = solver_mod._solve_on_patterns

    def corrupt(a, chol, r, act, what):
        a = a.copy()
        a[0, 1] = np.nan
        return solve(a, chol, r, act, what)

    monkeypatch.setattr(solver_mod, "_solve_on_patterns", corrupt)
    cfg = SolverConfig(rank=5, lambda_coef=0.1, coef_penalty="lasso")
    with pytest.raises(NumericalError, match=r"^coefficient lasso block.*not finite"):
        update_b_admm(a, r, b_old, cfg, cfg.proximal_mu)


def warm_start_rule(a, c, tau, b_old, config):
    """``(b, steps)`` of the lasso block ``(A, C, tau)`` when the first pass
    solves every row on the warm start's sign pattern, the rule the first
    pattern of :func:`update_b_admm` replaced: the same passes and
    feature-sign search after them, and no step cap."""
    chol = solver_mod._cholesky(a.copy(), "A")
    solve = functools.partial(solver_mod._solve_on_patterns, a, chol, what="A")
    abs_a, diag_a = np.abs(a), np.diag(a)
    b, steps = np.zeros_like(c), np.zeros(len(c), dtype=int)
    todo, sign, flipped = np.arange(len(c)), np.sign(b_old), np.zeros(c.shape, dtype=bool)
    for _ in range(1 + solver_mod._PDAS_PASSES):
        b[todo] = x = solve(c[todo] - tau * sign, sign != 0)
        steps[todo] += 1
        bad, g = solver_mod._lasso_kkt(a, abs_a, c[todo], np.abs(c[todo]), tau, x, sign)
        new = np.sign(soft_threshold(x * diag_a - g, tau))
        flip = new * sign < 0
        new[flip & flipped] = 0.0
        keep = bad.any(axis=1)
        todo, sign, flipped = todo[keep], new[keep], (flipped | flip)[keep]
    for i in todo:
        value = functools.partial(solver_mod._b_conditional_value, a, c[i], config=config)
        x = b_old[i] if value(b_old[i]) <= value(b[i]) else b[i]
        b[i], n, ok = solver_mod._feature_sign(a, abs_a, c[i], tau, x, solve, config, 10_000)
        assert ok
        steps[i] += n
    return b, steps


def recorded_lasso_calls(monkeypatch, g, t_mats, cfg):
    """``(A, C, tau, b_old, result)`` of every lasso block of one fit, with
    ``A`` and ``C`` shifted by the proximal shift that the sweep gave it."""
    calls, step = [], solver_mod.update_b_admm

    def recording(gram, rhs, b_old, config, shift):
        out = step(gram, rhs, b_old, config, shift)
        a, c = gram + shift * np.eye(len(gram)), rhs + shift * b_old
        calls.append((a, c, config.lambda_coef / 2, b_old, out))
        return out

    monkeypatch.setattr(solver_mod, "update_b_admm", recording)
    fit(g, t_mats, cfg)
    return calls


def test_update_b_admm_first_pattern_on_a_sparse_design(monkeypatch):
    # half the true coefficients are zero; at lambda_coef = 3 about half of
    # every block's solution is, and each block is enumerated exactly
    rng = np.random.default_rng(0)
    dims, n_subj, k = (9, 8), 30, 5
    cs = [np.linalg.qr(rng.standard_normal((m, k)))[0] for m in dims]
    b_true = 3.0 * rng.standard_normal((n_subj, k)) * (rng.random((n_subj, k)) < 0.5)
    g = np.einsum("ik,jk,nk->ijn", cs[0], cs[1], b_true)
    g += 0.1 * rng.standard_normal(g.shape)
    cfg = SolverConfig(rank=k, lambda_coef=3.0, coef_penalty="lasso", max_outer_iters=4)
    calls = recorded_lasso_calls(monkeypatch, g, [np.zeros((m, m)) for m in dims], cfg)
    assert len(calls) == 4
    new_steps = old_steps = 0
    for a, c, tau, b_old, (b, _, _, ok, n_iters) in calls:
        ref = enumerated_rows(a, c, tau)
        assert ok and np.mean(ref == 0) >= 0.3
        assert np.linalg.norm(b - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.array_equal(b == 0, ref == 0)
        new_steps += n_iters
        old_steps += warm_start_rule(a, c, tau, b_old, cfg)[1].max()
    assert new_steps <= old_steps


@pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2])
def test_update_b_admm_first_pattern_on_dense_cv_lasso_blocks(monkeypatch, lam):
    # the cv_lasso benchmark's design on a coarser grid: K = 20, 40 subjects,
    # cond(W'W) about 1e6, five sweeps, so every block's warm start is stale
    s = sim.generate_gp2d_sample(
        sim.Gp2dSimConfig(ranks=(10, 8), grid_size=(40, 40), n_train=40, n_test=0, seed=7),
        replication=3,
    )
    prepared = prepare(s.train, s.grids, s.bases, [2, 2])
    cfg = SolverConfig(
        rank=20, lambda_marginal=1e-6, lambda_coef=lam, coef_penalty="lasso", max_outer_iters=5,
        seed=3,
    )
    calls = recorded_lasso_calls(monkeypatch, prepared.g_hat, prepared.t_mats, cfg)
    assert len(calls) == 5
    for a, c, tau, b_old, (b, _, _, ok, _) in calls:
        assert ok and kkt_breach(a, c, tau, b) <= KKT_TOL
        ref = warm_start_rule(a, c, tau, b_old, cfg)[0]
        assert np.linalg.norm(b - ref) <= 1e-10 * np.linalg.norm(ref)


# ----------------------------------------------------------------- objective


def test_objective_zero_state_is_data_norm():
    rng = np.random.default_rng(16)
    g = rng.standard_normal((4, 5, 3))
    state = make_state(rng, (4, 5), 3, 2, zero_b=True)
    cfg = SolverConfig(rank=2)
    t_mats = [np.zeros((4, 4)), np.zeros((5, 5))]
    assert objective(g, state, t_mats, cfg) == pytest.approx(np.sum(g**2), rel=1e-12)


def test_objective_perfect_fit_is_zero():
    rng = np.random.default_rng(17)
    state = make_state(rng, (4, 5), 3, 2)
    g = T.cp_to_tensor(state.factors())
    cfg = SolverConfig(rank=2)
    t_mats = [np.zeros((4, 4)), np.zeros((5, 5))]
    assert objective(g, state, t_mats, cfg) <= 1e-10 * np.sum(g**2)


def _cp_by_outer_products(factors):
    # term-by-term reconstruction: equal to the solver's up to roundoff
    out = 0.0
    for k in range(factors[0].shape[1]):
        term = factors[0][:, k]
        for f in factors[1:]:
            term = np.multiply.outer(term, f[:, k])
        out = out + term
    return out


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_objective_chunked_route_accurate_for_in_span_data(scale):
    # an exact fit leaves a residual of roundoff size eps |g|; the expanded
    # square |g|^2 - 2<g, X> + |X|^2 would leave sqrt(eps) |g| of it
    cfg = SolverConfig(rank=3)
    t_mats = [np.zeros((6, 6)), np.zeros((5, 5))]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state = make_state(rng, (6, 5), 4, 3)
        state.b *= scale
        g = _cp_by_outer_products(state.factors())
        res = np.sqrt(objective(g, state, t_mats, cfg))
        assert res <= 1e-8 * np.linalg.norm(g), f"seed {seed}"


def test_objective_chunked_route_matches_materialized():
    # the data term is each subject's residual against the materialized CP tensor
    rng = np.random.default_rng(20)
    g = rng.standard_normal((5, 4, 5))
    state = make_state(rng, (5, 4), 5, 3)
    cfg = SolverConfig(rank=3, lambda_marginal=0.2, lambda_coef=0.1)
    t_mats = [psd(rng, 5), psd(rng, 4)]
    diff = g - _cp_by_outer_products(state.factors())
    per_subject = np.sum(diff**2, axis=(0, 1))
    assert np.allclose(residual_sq(g, state.factors()), per_subject, rtol=1e-12, atol=0.0)
    pen = sum(0.2 * np.sum(c * (t @ c)) for c, t in zip(state.c_tilde, t_mats))
    whole = per_subject.sum() + pen + 0.1 * np.sum(state.b**2)
    got = objective(g, state, t_mats, cfg)
    assert abs(got - whole) < 1e-12 * whole


def test_update_b_ridge_message_states_ratio_and_threshold():
    rng = np.random.default_rng(25)
    # Cholesky factor with diagonal (2, 1, 3e-8): a diagonal ratio of 1.5e-8
    r = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3e-8]])
    gram = r.T @ r
    diag = np.diag(cho_factor(gram)[0])
    ratio = diag.min() / diag.max()
    assert 0.0 < ratio <= solver_mod.CHOL_DIAG_RATIO_TOL
    b_old = np.zeros((2, 3))  # unshifted steps do not read it
    with pytest.raises(NumericalError) as info:
        update_b_ridge(gram, rng.standard_normal((2, 3)), b_old, SolverConfig(rank=3), 0.0)
    msg = str(info.value)
    assert msg.startswith("singular normal matrix in the coefficient update")
    assert f"{ratio:.3e}" in msg and "1e-07" in msg
    # a ridge weight that restores a healthy ratio gives the shifted solve
    rhs = rng.standard_normal((2, 3))
    got = update_b_ridge(gram, rhs, b_old, SolverConfig(rank=3, lambda_coef=1.0), 0.0)
    assert np.allclose(got, np.linalg.solve(gram + np.eye(3), rhs.T).T, rtol=1e-12)


@pytest.mark.parametrize("k, n, shift", [(1, 4, 0.0), (3, 7, 0.5), (25, 40, 0.0), (30, 5, 1e-3)])
def test_update_b_ridge_matches_numpy_solve(k, n, shift):
    rng = np.random.default_rng(26 + k)
    w = rng.standard_normal((3 * k + 5, k))
    gram, rhs = w.T @ w, rng.standard_normal((n, k))
    inputs, b_old = [gram.copy(), rhs.copy()], np.zeros((n, k))
    got = update_b_ridge(gram, rhs, b_old, SolverConfig(rank=k, lambda_coef=shift), 0.0)
    ref = np.linalg.solve(gram + shift * np.eye(k), rhs.T).T
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    for before, after in zip(inputs, [gram, rhs]):
        assert np.array_equal(before, after)


def test_update_b_ridge_shift_makes_a_rank_deficient_gram_solvable():
    # W'W of rank 10 at K = 30 with lambda_coef = 1e-10, as in criterion 3's
    # rank-60 fits: unshifted the guard refuses it; with the sweep's shift
    # the guard clears it by a wide margin, and b solves the proximal normal
    # equations b (W'W + (lambda_coef + s) I) = rhs + s b_old to rounding
    rng = np.random.default_rng(70)
    w = 10.0 * rng.standard_normal((100, 10)) @ rng.standard_normal((10, 30))
    gram, cfg = w.T @ w, SolverConfig(rank=30, lambda_coef=1e-10)
    rhs, b_old = rng.standard_normal((100, 30)), rng.standard_normal((100, 30))
    with pytest.raises(NumericalError, match="Cholesky diagonal ratio .* is at or below"):
        update_b_ridge(gram, rhs, b_old, cfg, 0.0)
    shift = sweep_shift(cfg, gram)
    b = update_b_ridge(gram, rhs, b_old, cfg, shift)
    a, r = gram + (cfg.lambda_coef + shift) * np.eye(30), rhs + shift * b_old
    scale = np.linalg.norm(b) * np.linalg.norm(a) + np.linalg.norm(r)
    assert np.linalg.norm(b @ a - r) <= 1e-12 * scale
    diag = np.diag(solver_mod._cholesky(solver_mod._shifted(gram, cfg.lambda_coef + shift), "A"))
    assert diag.min() / diag.max() >= 100 * solver_mod.CHOL_DIAG_RATIO_TOL


def test_update_b_ridge_zero_shift_reads_no_b_old():
    # a zero shift adds nothing to the right-hand side: not even a NaN b_old
    # reaches the solve, and the step is the plain ridge solve bit for bit
    rng = np.random.default_rng(72)
    w = rng.standard_normal((8, 3))
    gram, rhs, cfg = w.T @ w, rng.standard_normal((4, 3)), SolverConfig(rank=3, lambda_coef=0.1)
    got = update_b_ridge(gram, rhs, np.full((4, 3), np.nan), cfg, 0.0)
    assert np.array_equal(got, update_b_ridge(gram, rhs, np.zeros((4, 3)), cfg, 0.0))
    ref = np.linalg.solve(gram + 0.1 * np.eye(3), rhs.T).T
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_update_b_admm_solves_at_the_given_shift_not_proximal_mu(shift):
    # the lasso step takes its shift from the caller alone: the result meets
    # the KKT conditions of the block shifted by ``shift`` and not those of
    # the block shifted by the config's proximal_mu
    rng = np.random.default_rng(73)
    w = rng.standard_normal((8, 3))
    gram, rhs, b_old = w.T @ w, rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    cfg = SolverConfig(rank=3, lambda_coef=0.4, coef_penalty="lasso", proximal_mu=1.0)
    b = update_b_admm(gram, rhs, b_old, cfg, shift)[0]
    tau = cfg.lambda_coef / 2
    for mu, holds in ((shift, True), (cfg.proximal_mu, False)):
        breach = kkt_breach(gram + mu * np.eye(3), rhs + mu * b_old, tau, b)
        assert (breach <= KKT_TOL) == holds, mu


@pytest.mark.parametrize("k", [20, 25, 30])
@pytest.mark.parametrize("n", [5, 40, 100])
def test_update_b_ridge_triangular_solves_match_a_dense_solve(n, k):
    # the benchmark workloads' N and K: two right-side dtrsm calls on the
    # Cholesky factor against one dense solve of the shifted system
    rng = np.random.default_rng(71 + n + k)
    w = rng.standard_normal((4 * k, k))
    gram, cfg = w.T @ w, SolverConfig(rank=k, lambda_coef=1e-3)
    rhs, b_old = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    inputs = [gram.copy(), rhs.copy(), b_old.copy()]
    shift = sweep_shift(cfg, gram)
    got = update_b_ridge(gram, rhs, b_old, cfg, shift)
    a = gram + (cfg.lambda_coef + shift) * np.eye(k)
    ref = np.linalg.solve(a, (rhs + shift * b_old).T).T
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    for before, after in zip(inputs, [gram, rhs, b_old]):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("bad", ["gram", "rhs"])
def test_update_b_ridge_non_finite_raises_numerical_error(bad):
    rng = np.random.default_rng(27)
    gram, rhs = spd(rng, 3), rng.standard_normal((2, 3))
    if bad == "gram":
        gram[0, 1] = gram[1, 0] = np.inf
    else:
        rhs[1, 2] = np.nan
    with pytest.raises(NumericalError, match="not finite") as info:
        update_b_ridge(gram, rhs, np.zeros_like(rhs), SolverConfig(rank=3), 0.0)
    assert str(info.value).startswith("singular normal matrix in the coefficient update")


def test_fit_factor_gram_overflow_raises_numerical_error():
    # finite factors whose Gram overflows: the represented tensor stays finite
    # because the coefficients are tiny, so the objective does not catch it
    rng = np.random.default_rng(28)
    g = rng.standard_normal((6, 5, 4))
    start = make_state(rng, (6, 5), 4, 2)
    start.c_tilde[0] *= 1e160
    start.b *= 1e-160
    cfg = SolverConfig(rank=2, max_outer_iters=3)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"), pytest.raises(
        NumericalError, match="Gram .* of mode 1 is not finite"
    ):
        fit(g, [np.zeros((6, 6)), np.zeros((5, 5))], cfg, initial_state=start)


def test_objective_non_finite_raises():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((4, 3, 2))
    state = make_state(rng, (4, 3), 2, 2)
    state.b[0, 0] = np.inf
    cfg = SolverConfig(rank=2)
    with pytest.raises(NumericalError, match="finite"):
        objective(g, state, [np.zeros((4, 4)), np.zeros((3, 3))], cfg)


# ------------------------------------------------------------------------ fit


def rank_k_tensor(rng, dims, n_subj, k, weights=None):
    cols = [rng.standard_normal((m, k)) for m in dims]
    cols = [c / np.linalg.norm(c, axis=0) for c in cols]
    b = rng.standard_normal((n_subj, k))
    b /= np.linalg.norm(b, axis=0)
    if weights is not None:
        b = b * np.asarray(weights)
    return T.cp_to_tensor(cols + [b])


def test_fit_noiseless_rank_one():
    rng = np.random.default_rng(20)
    g = rank_k_tensor(rng, (6, 5, 4), 3, 1)
    cfg = SolverConfig(rank=1, max_outer_iters=50, seed=0)
    t_mats = [np.zeros((m, m)) for m in (6, 5, 4)]
    state = fit(g, t_mats, cfg)
    rel = np.linalg.norm(g - T.cp_to_tensor(state.factors())) / np.linalg.norm(g)
    assert rel < 1e-8


def test_fit_noiseless_rank_three_separated_weights():
    rng = np.random.default_rng(21)
    g = rank_k_tensor(rng, (7, 6, 5), 8, 3, weights=[1.0, 0.5, 0.25])
    cfg = SolverConfig(rank=3, max_outer_iters=500, outer_tol=1e-14, seed=1)
    t_mats = [np.zeros((m, m)) for m in (7, 6, 5)]
    state = fit(g, t_mats, cfg)
    rel = np.linalg.norm(g - T.cp_to_tensor(state.factors())) / np.linalg.norm(g)
    assert rel < 1e-6


def test_fit_rank_zero_rejected():
    with pytest.raises(ValueError, match="rank"):
        SolverConfig(rank=0)


@pytest.mark.parametrize("field", ["max_outer_iters"])
@pytest.mark.parametrize("value", [0, -1])
def test_iteration_caps_below_one_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        SolverConfig(rank=2, **{field: value})


@pytest.mark.parametrize("field", ["outer_tol", "lambda_coef", "proximal_mu", "lambda_marginal"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_settings_rejected(field, value):
    # NaN passes every sign check; outer_tol=NaN would run a fit to its cap
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SolverConfig(rank=2, **{field: value}).marginal_weights(2)


@pytest.mark.parametrize("n_grid", [1, 3])
def test_warm_start_with_wrong_grid_factor_count_rejected(n_grid):
    rng = np.random.default_rng(19)
    g = rng.standard_normal((4, 3, 5))
    start = make_state(rng, (4, 3, 2)[:n_grid], 5, 2)
    with pytest.raises(ValueError, match=f"warm start has {n_grid} grid factors, expected 2"):
        fit(g, [np.zeros((4, 4)), np.zeros((3, 3))], SolverConfig(rank=2), initial_state=start)


@pytest.mark.parametrize(
    "rank, edit, message",
    [
        (2, lambda s: None, "warm start has rank 3, above the fit's rank 2"),
        (3, lambda s: s.c_tilde.__setitem__(1, np.ones((4, 3))),
         "warm-start c_tilde[1] has shape (4, 3), expected (3, 3)"),
        (3, lambda s: s.c_tilde.__setitem__(0, np.ones((4, 2))),
         "warm-start c_tilde[0] has shape (4, 2), expected (4, 3)"),
        (3, lambda s: setattr(s, "b", np.ones((4, 3))),
         "warm-start b has shape (4, 3), expected (5, 3)"),
    ],
    ids=["rank_above", "grid_rows", "grid_columns", "subject_rows"],
)
def test_warm_start_of_higher_rank_or_mismatched_shape_rejected(rank, edit, message):
    rng = np.random.default_rng(19)
    g = rng.standard_normal((4, 3, 5))
    start = make_state(rng, (4, 3), 5, 3)
    edit(start)
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(g, [np.zeros((4, 4)), np.zeros((3, 3))], SolverConfig(rank=rank), initial_state=start)


def test_lower_rank_warm_start_starts_at_its_residual():
    # a rank-2 fit warm-starts a rank-4 fit: the start keeps the rank-2 tensor
    # (its two extra components are zero in grid factor 0) and the other
    # factors' random columns, so with both penalties 0 the first objective is
    # the warm fit's residual
    rng = np.random.default_rng(36)
    dims = (6, 5, 4)
    g = rank_k_tensor(rng, dims, 7, 4) + 0.05 * rng.standard_normal(dims + (7,))
    t_mats = [psd(rng, m) for m in dims]
    warm = fit(g, t_mats, SolverConfig(rank=2, max_outer_iters=20, seed=1))
    cfg = SolverConfig(rank=4, max_outer_iters=20, seed=2)
    start = solver_mod._initialize(g, cfg, warm)
    for f, w in zip(start.factors(), warm.factors()):
        assert np.array_equal(f[:, :2], w)
    assert not start.c_tilde[0][:, 2:].any() and np.all(start.b[:, 2:] != 0)
    state = fit(g, t_mats, cfg, initial_state=warm)
    assert state.objective_trace[0] == pytest.approx(warm.residual_sq, rel=1e-12)
    assert np.all(np.diff(state.objective_trace) <= 1e-10 * state.objective_trace[0])
    assert state.residual_sq < warm.residual_sq


def test_lasso_fit_takes_gram_and_mttkrp_from_the_sweep(monkeypatch):
    # the lasso block uses the sweep's cached Grams and half-tensor partial,
    # never a Gram or MTTKRP of its own
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep formed a Gram or MTTKRP of its own")

    monkeypatch.setattr(solver_mod, "mttkrp", forbidden)
    monkeypatch.setattr(solver_mod, "gram_of_khatri_rao", forbidden)
    rng = np.random.default_rng(18)
    g = rng.standard_normal((5, 4, 6))
    cfg = SolverConfig(
        rank=2, lambda_marginal=0.05, lambda_coef=0.2, coef_penalty="lasso",
        max_outer_iters=10, seed=4,
    )
    state = fit(g, [psd(rng, 5), psd(rng, 4)], cfg)
    assert state.iters == 10 and state.lasso_certified
    assert np.all(np.diff(state.objective_trace) <= 1e-10)


@pytest.mark.parametrize("coef_penalty", ["ridge", "lasso"])
def test_fit_runs_one_library_step_per_block_and_sweep(monkeypatch, coef_penalty):
    # the sweep's blocks are update_factor per grid mode, in ascending order,
    # then update_b_ridge or update_b_admm, each looked up on the module and
    # handed the sweep's Gram and MTTKRP, never a full-tensor one
    calls = []

    def counted(name):
        func = getattr(solver_mod, name)

        def wrapper(*args, **kwargs):
            calls.append(args[5] if name == "update_factor" else name)
            return func(*args, **kwargs)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep formed a Gram or MTTKRP of its own")

    for name in ("update_factor", "update_b_ridge", "update_b_admm"):
        monkeypatch.setattr(solver_mod, name, counted(name))
    monkeypatch.setattr(solver_mod, "mttkrp", forbidden)
    monkeypatch.setattr(solver_mod, "gram_of_khatri_rao", forbidden)
    rng = np.random.default_rng(35)
    dims = (5, 4, 3)
    g = rng.standard_normal(dims + (6,))
    cfg = SolverConfig(
        rank=2, lambda_marginal=0.05, lambda_coef=0.1, coef_penalty=coef_penalty,
        max_outer_iters=7, outer_tol=1e-300, seed=2,
    )
    state = fit(g, [psd(rng, m) for m in dims], cfg)
    assert state.iters == 7
    assert calls == [0, 1, 2, f"update_b_{'ridge' if coef_penalty == 'ridge' else 'admm'}"] * 7


def test_fit_takes_one_eigendecomposition_per_distinct_weighted_penalty(monkeypatch):
    # modes 0, 1 and 3 share one penalty array, mode 3 at another weight; the
    # shared rotations are read-only and change no bit of the fit
    rng = np.random.default_rng(36)
    t = psd(rng, 3)
    t_mats = [t, t, psd(rng, 3), t]
    g = rng.standard_normal((3, 3, 3, 3, 4))
    cfg = SolverConfig(
        rank=2, lambda_marginal=[0.1, 0.1, 0.1, 0.2], lambda_coef=0.1, max_outer_iters=5, seed=3
    )
    eigs, eig = [], solver_mod._eig_sym

    def counted(a, what):
        eigs.append((what, eig(a, what)))
        return eigs[-1][1]

    monkeypatch.setattr(solver_mod, "_eig_sym", counted)
    shared = fit(g, t_mats, cfg)
    assert [what for what, _ in eigs] == [f"penalty matrix {d}" for d in (0, 2, 3)]
    assert not any(a.flags.writeable for _, pair in eigs for a in pair)
    # a copy per mode: equal values are not the same array, so nothing is shared
    alone = fit(g, [m.copy() for m in t_mats], cfg)
    assert len(eigs) == 3 + 4
    for a, b in zip(shared.factors(), alone.factors()):
        assert np.array_equal(a, b)
    assert np.array_equal(shared.objective_trace, alone.objective_trace)


@pytest.mark.parametrize("problem", ["prepared", "subjects", "centered"])
def test_fit_shares_one_eigendecomposition_between_equal_prepared_marginals(
    monkeypatch, problem
):
    # fit shares a decomposition between modes whose penalty is the same
    # array; prepare gives equal marginals one array, and the subject
    # selection and the centered problem keep it, so three equal marginals
    # at one weight take one decomposition
    bases = [FourierBasis((0.0, 1.0), 7) for _ in range(3)]
    grids = [np.linspace(0.0, 1.0, 10) for _ in range(3)]
    y = np.random.default_rng(37).standard_normal((10, 10, 10, 5))
    prepared = prepare(y, grids, bases, [2, 2, 2])
    if problem == "subjects":
        prepared = prepared.subjects([0, 2, 3])
    elif problem == "centered":
        prepared = prepared.centered(y)
    t = prepared.t_mats
    assert t[0] is t[1] is t[2]
    eigs, eig = [], solver_mod._eig_sym
    monkeypatch.setattr(solver_mod, "_eig_sym", lambda a, what: eigs.append(what) or eig(a, what))
    fit(prepared.g_hat, t, SolverConfig(rank=2, lambda_marginal=0.1, max_outer_iters=3, seed=1))
    assert eigs == ["penalty matrix 0"]


def test_fit_zero_tensor_gives_zero_model():
    # each block step pulls towards its last iterate with a shift relative to
    # its Gram, so the model is not zero after one sweep: it shrinks by about
    # 1e-48 a sweep (the data term) until the objective underflows to 0
    cfg = SolverConfig(rank=1, seed=2, max_outer_iters=10)
    g = np.zeros((4, 3, 2))
    state = fit(g, [np.zeros((4, 4)), np.zeros((3, 3))], cfg)
    assert np.abs(state.b).max() <= 1e-150
    assert np.abs(T.cp_to_tensor(state.factors())).max() <= 1e-150
    assert state.objective_trace[-1] == 0.0


def test_lasso_fit_above_lambda_max_keeps_a_zero_model():
    # a lasso weight above lambda_max sets every coefficient to zero at the
    # first sweep; the next sweep's factor Grams are then zero, with no trace
    # for the shift to scale to, and take proximal_mu itself: the fit runs on
    # and keeps b = 0, as an absolute shift did
    rng = np.random.default_rng(73)
    dims = (6, 5)
    g = rank_k_tensor(rng, dims, 7, 2)
    cfg = SolverConfig(
        rank=2, lambda_marginal=1e-3, lambda_coef=1e6 * float(np.abs(g).max()) ** 2,
        coef_penalty="lasso", max_outer_iters=4, outer_tol=1e-300, seed=3,
    )
    # penalties with a null space, where beta is 0
    state = fit(g, [psd(rng, m, rank=m - 2) for m in dims], cfg)
    assert state.iters == 4
    assert np.array_equal(state.b, np.zeros((7, 2)))


@pytest.mark.parametrize("scale", [1e-155, 1e-158])
def test_fit_from_a_tiny_singular_gram_stays_finite(scale):
    # b tiny and every factor with two equal columns: mode 0's Gram is
    # singular, with a trace so small that mu tr / K is subnormal. Shifted by
    # that, the step divided rounding noise by it and mode 1's Gram
    # overflowed; shifted by proximal_mu, the fit runs on
    rng = np.random.default_rng(74)
    g = rng.standard_normal((6, 5, 4))
    c1, b = rng.standard_normal((5, 1)), rng.standard_normal((4, 1))
    start = SolverState(
        c_tilde=[rng.standard_normal((6, 2)), np.hstack([c1, c1])], b=scale * np.hstack([b, b])
    )
    cfg = SolverConfig(rank=2, max_outer_iters=3)
    with np.errstate(under="ignore"):
        state = fit(g, [np.zeros((6, 6)), np.zeros((5, 5))], cfg, initial_state=start)
    assert state.iters == 3
    assert all(np.isfinite(f).all() for f in state.factors())


@pytest.mark.parametrize("k", [8, 10, 30])
def test_fit_hosvd_start_on_the_gp2d_design_does_not_overlap(k):
    # the HOSVD start's mode-1 Gram has eigenvalues from about 3e-10 to 2.3e6;
    # an absolute shift of 1e-8 left its smallest denominator below the guard's
    # 1e-14 x scale, and the first sweep raised "Sylvester spectra overlap".
    # The start: the seed's random unit columns, overwritten by each
    # unfolding's leading left singular vectors
    cfg = sim.Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=0, seed=42)
    s = sim.generate_gp2d_sample(cfg, replication=0)
    prepared = prepare(s.train, s.grids, s.bases, [2, 2])
    fit_cfg = SolverConfig(
        rank=k, lambda_marginal=1e-10, lambda_coef=1e-10, max_outer_iters=20, seed=0
    )
    g, rng, start = prepared.g_hat, np.random.default_rng(fit_cfg.seed), []
    for d, n in enumerate(g.shape):
        f = rng.standard_normal((n, k))
        f /= np.linalg.norm(f, axis=0)
        u = np.linalg.svd(T.unfold(g, d), full_matrices=False)[0][:, :k]
        f[:, : u.shape[1]] = u
        start.append(f)
    hosvd = SolverState(c_tilde=start[:-1], b=start[-1])
    state = fit(g, prepared.t_mats, fit_cfg, initial_state=hosvd)
    assert state.iters == 20
    assert state.objective_trace[-1] < state.objective_trace[0]


def test_fit_objective_trace_nonincreasing_with_proximal():
    rng = np.random.default_rng(22)
    g = rng.standard_normal((6, 5, 7)) * 1.5
    t_mats = [psd(rng, 6), psd(rng, 5)]
    cfg = SolverConfig(
        rank=3, lambda_marginal=[0.1, 0.02], lambda_coef=0.05,
        proximal_mu=1e-8, max_outer_iters=60, seed=3,
    )
    state = fit(g, t_mats, cfg)
    diffs = np.diff(state.objective_trace)
    assert np.all(diffs <= 1e-10)


def test_fit_objective_trace_nonincreasing_lasso():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((5, 4, 6))
    t_mats = [psd(rng, 5), psd(rng, 4)]
    cfg = SolverConfig(
        rank=2, lambda_marginal=0.05, lambda_coef=0.2, coef_penalty="lasso",
        proximal_mu=1e-8, max_outer_iters=40, seed=4,
    )
    state = fit(g, t_mats, cfg)
    assert np.all(np.diff(state.objective_trace) <= 1e-10)


def test_fit_deterministic_for_fixed_seed():
    rng = np.random.default_rng(24)
    g = rng.standard_normal((5, 4, 3))
    t_mats = [np.zeros((5, 5)), np.zeros((4, 4))]
    cfg = SolverConfig(rank=2, seed=7, max_outer_iters=30)
    s1 = fit(g, t_mats, cfg)
    s2 = fit(g, t_mats, cfg)
    for a, b in zip(s1.factors(), s2.factors()):
        assert np.array_equal(a, b)
    assert np.array_equal(s1.objective_trace, s2.objective_trace)


def test_fit_gauge_convention():
    rng = np.random.default_rng(25)
    g = rank_k_tensor(rng, (6, 5), 7, 3, weights=[2.0, 1.0, 0.5])
    cfg = SolverConfig(rank=3, seed=5, max_outer_iters=200)
    state = fit(g, [np.zeros((6, 6)), np.zeros((5, 5))], cfg)
    for c in state.c_tilde:
        assert np.abs(np.linalg.norm(c, axis=0) - 1.0).max() < 1e-12
    lead = state.c_tilde[0]
    peaks = lead[np.argmax(np.abs(lead), axis=0), np.arange(3)]
    assert np.all(peaks > 0)
    weights = np.linalg.norm(state.b, axis=0)
    assert np.all(np.diff(weights) <= 1e-12)


def test_objective_invariant_under_permutation_regauge():
    # residual and penalties are column-permutation invariant; pure rescalings
    # preserve the residual term, checked at zero penalty
    rng = np.random.default_rng(26)
    g = rng.standard_normal((5, 4, 6))
    t_mats = [psd(rng, 5), psd(rng, 4)]
    cfg = SolverConfig(rank=3, lambda_marginal=0.1, lambda_coef=0.1, seed=6, max_outer_iters=20)
    state = fit(g, t_mats, cfg)
    f0 = objective(g, state, t_mats, cfg)
    perm = np.array([2, 0, 1])
    permuted = SolverState(
        c_tilde=[c[:, perm] for c in state.c_tilde],
        b=state.b[:, perm],
    )
    assert objective(g, permuted, t_mats, cfg) == pytest.approx(f0, rel=1e-12)

    cfg0 = SolverConfig(rank=3, seed=6)
    f0 = objective(g, state, t_mats, cfg0)
    scales = np.array([0.5, 2.0, 3.0])
    regauged = SolverState(
        c_tilde=[state.c_tilde[0] * scales, state.c_tilde[1].copy()],
        b=state.b / scales,
    )
    assert objective(g, regauged, t_mats, cfg0) == pytest.approx(f0, rel=1e-10)


def test_fit_recovers_model_class_data_at_true_rank():
    rng = np.random.default_rng(27)
    g = rank_k_tensor(rng, (8, 7, 6), 10, 2, weights=[1.0, 0.4])
    cfg = SolverConfig(rank=2, seed=8, max_outer_iters=500, outer_tol=1e-15)
    state = fit(g, [np.zeros((m, m)) for m in (8, 7, 6)], cfg)
    rel = np.linalg.norm(g - T.cp_to_tensor(state.factors())) / np.linalg.norm(g)
    assert rel < 1e-7


def test_fit_warns_on_overparameterized_rank():
    # a ridge weight keeps the degenerate coefficient system solvable
    rng = np.random.default_rng(28)
    g = rng.standard_normal((2, 2, 3))
    cfg = SolverConfig(rank=5, seed=9, max_outer_iters=5, lambda_coef=1e-6)
    with pytest.warns(RuntimeWarning, match="overparameterized"):
        fit(g, [np.zeros((2, 2)), np.zeros((2, 2))], cfg)


def test_fit_single_subject_supported():
    rng = np.random.default_rng(29)
    g = rank_k_tensor(rng, (6, 5), 1, 1)
    cfg = SolverConfig(rank=1, seed=10, max_outer_iters=50)
    state = fit(g, [np.zeros((6, 6)), np.zeros((5, 5))], cfg)
    assert state.b.shape == (1, 1)
    rel = np.linalg.norm(g - T.cp_to_tensor(state.factors())) / np.linalg.norm(g)
    assert rel < 1e-8


# ------------------------------------------- hoisted per-fit work, equivalence


def einsum_mttkrp(t, mats, mode):
    """Reference mttkrp: one einsum with contraction-path search."""
    letters = "abcdefgh"[: t.ndim]
    inputs = [letters] + [letters[d] + "z" for d in range(t.ndim) if d != mode]
    return np.einsum(",".join(inputs) + "->" + letters[mode] + "z", t, *mats, optimize=True)


def einsum_cp_to_tensor(factors):
    letters = "abcdefgh"[: len(factors)]
    spec = ",".join(c + "z" for c in letters) + "->" + letters
    return np.einsum(spec, *factors, optimize=True)


def reference_trace(g, t_mats, config, n_sweeps, monkeypatch):
    """Objective trace of a reference sweep with no per-fit hoisting.

    Every block step forms its MTTKRP with einsum on the whole tensor, and
    every factor step (:func:`factor_step`) eigendecomposes ``lambda_d T_d``
    again on every call; the objective's reconstruction is the einsum one for
    the whole run. Each block takes the sweep's shift, :func:`sweep_shift`.
    """
    monkeypatch.setattr(solver_mod, "cp_to_tensor", einsum_cp_to_tensor)
    n_dims = g.ndim - 1
    state = solver_mod._initialize(g, config)
    trace = [objective(g, state, t_mats, config)]
    for _ in range(n_sweeps):
        for d in range(n_dims):
            state.c_tilde[d] = factor_step(
                g, state, d, t_mats[d], config, einsum_mttkrp, relative=True
            )
        if config.coef_penalty == "ridge":
            state.b = ridge_step(g, state, config, einsum_mttkrp, relative=True)
        else:
            gram = T.gram_of_khatri_rao(state.c_tilde)
            rhs = einsum_mttkrp(g, state.c_tilde, n_dims)
            before = solver_mod._b_conditional_value(gram, rhs, state.b, config)
            b_new = update_b_admm(gram, rhs, state.b, config, sweep_shift(config, gram))[0]
            after = solver_mod._b_conditional_value(gram, rhs, b_new, config)
            if after <= before + 1e-12 * max(1.0, abs(before)):
                state.b = b_new
        trace.append(objective(g, state, t_mats, config))
    monkeypatch.undo()
    return np.asarray(trace)


@pytest.mark.parametrize("coef_penalty", ["ridge", "lasso"])
def test_fit_matches_per_call_eigendecomposition_sweep(monkeypatch, coef_penalty):
    rng = np.random.default_rng(30)
    dims = (7, 6)
    g = rank_k_tensor(rng, dims, 9, 3) + 0.1 * rng.standard_normal(dims + (9,))
    t_mats = [psd(rng, 7), psd(rng, 6, rank=4)]
    cfg = SolverConfig(
        rank=3, lambda_marginal=[0.05, 0.2], lambda_coef=0.02, coef_penalty=coef_penalty,
        max_outer_iters=30, outer_tol=1e-300, seed=11,
    )
    ref = reference_trace(g, t_mats, cfg, 30, monkeypatch)
    got = fit(g, t_mats, cfg).objective_trace
    assert got.shape == (31,)
    assert np.max(np.abs(got - ref) / ref) <= 1e-10


# ------------------------------------- dimension-tree sweep, per-mode reference


def kr_mttkrp(t, mats, mode):
    """Reference mttkrp: the unfolding times the Khatri-Rao product of all
    the other factors, one matrix product."""
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1) @ T.khatri_rao(mats)


def per_mode_fit(g, t_mats, config, n_sweeps, initial_state=None):
    """Gauge-normalized state after a sweep with one MTTKRP per block.

    Every block forms its Gram with ``gram_of_khatri_rao`` and its MTTKRP
    with :func:`kr_mttkrp` on the whole tensor and hands both, with the
    sweep's shift (:func:`sweep_shift`), to its library step; each factor
    step runs in a penalty eigenbasis of its own.
    """
    n_dims = g.ndim - 1
    if initial_state is None:
        state = solver_mod._initialize(g, config)
    else:
        state = copy.deepcopy(initial_state)
    trace = [objective(g, state, t_mats, config)]
    for _ in range(n_sweeps):
        for d in range(n_dims):
            state.c_tilde[d] = factor_step(g, state, d, t_mats[d], config, kr_mttkrp, relative=True)
        if config.coef_penalty == "ridge":
            state.b = ridge_step(g, state, config, kr_mttkrp, relative=True)
        else:
            gram = T.gram_of_khatri_rao(state.c_tilde)
            rhs, shift = kr_mttkrp(g, state.c_tilde, n_dims), sweep_shift(config, gram)
            state.b = update_b_admm(gram, rhs, state.b, config, shift)[0]
        trace.append(objective(g, state, t_mats, config))
    state.objective_trace = np.asarray(trace)
    solver_mod._gauge_normalize(state)
    return state


TREE_CASES = [
    # (grid dims, subjects, K, warm start)
    ((7,), 6, 3, False),
    ((7, 6), 9, 3, False),
    ((5, 4, 3), 6, 1, False),
    ((4, 1, 3, 5), 5, 2, False),
    ((3, 2, 3, 2, 3), 4, 2, False),
    ((6, 5), 7, 3, True),
]


@pytest.mark.parametrize("coef_penalty", ["ridge", "lasso"])
def test_fit_matches_per_mode_mttkrp_sweep(coef_penalty):
    for dims, n_subj, k, warm in TREE_CASES:
        rng = np.random.default_rng(31)
        g = rank_k_tensor(rng, dims, n_subj, k) + 0.1 * rng.standard_normal(dims + (n_subj,))
        t_mats = [psd(rng, m) for m in dims]
        cfg = SolverConfig(
            rank=k, lambda_marginal=0.002, lambda_coef=0.02, coef_penalty=coef_penalty,
            max_outer_iters=30, outer_tol=1e-300, seed=12,
        )
        start = None
        if warm:
            start = fit(g, t_mats, SolverConfig(rank=k, max_outer_iters=5, seed=3))
        got = fit(g, t_mats, cfg, initial_state=start)
        ref = per_mode_fit(g, t_mats, cfg, 30, initial_state=start)
        case = f"dims {dims}, K={k}, warm={warm}"
        assert got.objective_trace.shape == (31,), case
        rel = np.abs(got.objective_trace - ref.objective_trace) / ref.objective_trace
        assert rel.max() <= 1e-10, case
        for a, b in zip(got.factors(), ref.factors()):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), case


def spread_penalty(rng, n, low, high):
    """Symmetric n x n matrix with eigenvalues log-spaced over [low, high]."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (q * np.logspace(np.log10(low), np.log10(high), n)) @ q.T


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("coef_penalty", ["ridge", "lasso"])
def test_fit_matches_per_mode_sweep_with_widely_spread_penalty(coef_penalty, warm):
    # lambda_d T_d has eigenvalues over 12 decades, so the penalty eigenbasis
    # is far from the identity and every rotation of the sweep is exercised
    for dims, n_subj, k in [((11, 6), 7, 3), ((5, 4, 3), 6, 2)]:
        rng = np.random.default_rng(32)
        g = rank_k_tensor(rng, dims, n_subj, k) + 0.1 * rng.standard_normal(dims + (n_subj,))
        t_mats = [spread_penalty(rng, m, 1e-8, 1e4) for m in dims]
        cfg = SolverConfig(
            rank=k, lambda_marginal=1.0, lambda_coef=0.02, coef_penalty=coef_penalty,
            max_outer_iters=30, outer_tol=1e-300, seed=13,
        )
        start = None
        if warm:
            start = fit(g, t_mats, SolverConfig(rank=k, max_outer_iters=5, seed=4))
        got = fit(g, t_mats, cfg, initial_state=start)
        ref = per_mode_fit(g, t_mats, cfg, 30, initial_state=start)
        case = f"dims {dims}, K={k}"
        rel = np.abs(got.objective_trace - ref.objective_trace) / ref.objective_trace
        assert rel.max() <= 1e-10, case
        for a, b in zip(got.factors(), ref.factors()):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), case


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("start", ["random", "warm"])
def test_fit_refuses_a_non_finite_compressed_tensor_by_name(start, value):
    # it used to fail as diverged factors, after a RuntimeWarning for an inf;
    # a warm start is refused the same way, before any sweep reads it
    rng = np.random.default_rng(24)
    g = rng.standard_normal((5, 4, 6))
    g[2, 1, 3] = value
    t_mats = [np.zeros((m, m)) for m in (5, 4)]
    warm = make_state(rng, (5, 4), 6, 2) if start == "warm" else None
    with pytest.raises(ValueError, match=re.escape("compressed data tensor has non-finite values")):
        fit(g, t_mats, SolverConfig(rank=2), initial_state=warm)


@pytest.mark.parametrize(
    "block, what",
    [("update_factor", "mode-0 factor"), ("update_b_ridge", "subject-coefficient")],
)
def test_fit_refuses_a_non_finite_block_update_by_name(monkeypatch, block, what):
    # the sweep's guard after each block update: the first non-finite block is
    # named, mode 0 first in the sweep and the coefficients last
    def non_finite(gram, rhs, *rest):
        return np.full(rhs.shape, np.nan)

    monkeypatch.setattr(solver_mod, block, non_finite)
    g = np.random.default_rng(26).standard_normal((5, 4, 6))
    t_mats = [np.eye(5), np.eye(4)]
    with pytest.raises(NumericalError, match=f"^{what} update produced non-finite values$"):
        fit(g, t_mats, SolverConfig(rank=2, max_outer_iters=3))


def test_a_float32_coefficient_weight_is_applied_in_double_precision():
    # a np.float32 weight used to turn the objective, and with it the stopping
    # test, into float32: this fit stopped "converged" at sweep 148 instead of 331
    g = np.random.default_rng(0).standard_normal((6, 5, 8))
    t_mats = [np.eye(6), np.eye(5)]
    settings = dict(rank=3, lambda_marginal=0.1, outer_tol=1e-10, max_outer_iters=2000, seed=0)
    cfg = SolverConfig(lambda_coef=np.float32(0.1), **settings)
    assert type(cfg.lambda_coef) is float
    got = fit(g, t_mats, cfg)
    ref = fit(g, t_mats, SolverConfig(lambda_coef=float(np.float32(0.1)), **settings))
    assert got.objective_trace.dtype == np.float64
    assert got.iters == ref.iters
    assert np.array_equal(got.objective_trace, ref.objective_trace)
    assert np.array_equal(got.b, ref.b)


# ------------------------------------------- bit-identical plain reference sweep


def plain_sweep_fit(g, t_mats, config, n_sweeps):
    """Gauge-normalized state and objective trace of ``n_sweeps`` plain sweeps
    with :func:`fit`'s arithmetic as first written: the penalty eigenbases by
    ``_eig_sym`` per mode and the tensor rotated by ``mode_multiply``, the modes
    cut at ``half_split``, each block's Gram as ``reduce(np.multiply, ...)`` of
    the other Grams, its MTTKRP by ``partial_mttkrp_core``, its proximal shift
    ``proximal_mu tr(Gram) / K``, the three public block steps, and the
    objective's terms as per-column and per-row sums."""
    n_dims = g.ndim - 1
    lam = config.marginal_weights(n_dims)
    state = solver_mod._initialize(g, config)
    eigs = [solver_mod._eig_sym(lam[d] * t_mats[d], "penalty") for d in range(n_dims)]
    betas, rots = [w for w, _ in eigs], [v for _, v in eigs]
    g_rot = g
    for d, p in enumerate(rots):
        g_rot = T.mode_multiply(g_rot, p.T, d)
    factors = [p.T @ c for p, c in zip(rots, state.c_tilde)] + [state.b]
    split = T.half_split(g.shape)
    halves = ((0, split), (split, n_dims + 1))
    g_mat = np.ascontiguousarray(g_rot).reshape(int(np.prod(g.shape[:split])), -1)
    views = (g_mat, g_mat.T)

    def value():
        res = g_mat - T.khatri_rao(factors[:split]) @ T.khatri_rao(factors[split:]).T
        val = float(np.einsum("ij,ij->j", res, res).sum())
        rows = [np.einsum("ik,ik->i", c, c) for c in factors[:n_dims]]
        val += sum(float(b @ r) for b, r, w in zip(betas, rows, lam) if w > 0)
        b = factors[-1]
        if config.lasso_block:
            return val + config.lambda_coef * float(np.sum(np.abs(b)))
        return val + config.lambda_coef * float(np.sum(b**2))

    trace = [value()]
    for _ in range(n_sweeps):
        for h, (lo, hi) in enumerate(halves):
            part = views[h] @ T.khatri_rao(factors[split:] if h == 0 else factors[:split])
            part = part.reshape(g.shape[lo:hi] + (-1,))
            for d in range(lo, hi):
                grams = [f.T @ f for f in factors]
                gram = functools.reduce(np.multiply, grams[:d] + grams[d + 1 :])
                rhs = T.partial_mttkrp_core(part, factors[lo:d] + factors[d + 1 : hi], d - lo)
                s = config.proximal_mu * gram.trace() / config.rank
                if d < n_dims:
                    factors[d] = update_factor(gram, rhs, factors[d], betas[d], s, d)
                elif config.lasso_block:
                    factors[d] = update_b_admm(gram, rhs, factors[d], config, s)[0]
                else:
                    factors[d] = update_b_ridge(gram, rhs, factors[d], config, s)
        trace.append(value())
    state.c_tilde, state.b = [p @ c for p, c in zip(rots, factors)], factors[-1]
    solver_mod._gauge_normalize(state)
    return state, np.asarray(trace)


@pytest.mark.parametrize(
    "dims, n_subj, k, coef_penalty",
    [
        ((10, 8), 100, 30, "ridge"),  # gp2d's compressed shape and rank
        ((15, 15, 15), 5, 25, "ridge"),  # product3d's
        ((10, 8), 40, 20, "lasso"),  # cv_lasso's
    ],
)
def test_fit_is_bit_identical_to_the_plain_sweep(dims, n_subj, k, coef_penalty):
    # the sweep's per-call trims (buffers, hoisted constants, in-place kernels)
    # change no bit of an iterate; the objective only in rounding
    rng = np.random.default_rng(60)
    g = rank_k_tensor(rng, dims, n_subj, 8) + 0.05 * rng.standard_normal(dims + (n_subj,))
    t_mats = [psd(rng, m) for m in dims]
    cfg = SolverConfig(
        rank=k, lambda_marginal=1e-3, lambda_coef=1e-3, coef_penalty=coef_penalty,
        max_outer_iters=3, outer_tol=1e-300, seed=5,
    )
    got = fit(g, t_mats, cfg)
    ref, trace = plain_sweep_fit(g, t_mats, cfg, 3)
    assert got.iters == 3
    for a, b in zip(got.factors(), ref.factors()):
        assert np.array_equal(a, b)
    assert np.max(np.abs(got.objective_trace - trace) / trace) <= 1e-14
