"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 reproduce simulation-study numbers at desk scale; criteria 4-12
pin the identity, oracle and constraint tolerances that must hold on every
run. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import warnings

import numpy as np

from mpbasis import tensors as T
from mpbasis.basis import (
    BSplineBasis,
    FourierBasis,
    gram_matrix,
    penalty_matrix,
)
from mpbasis.fpca import run_fpca
from mpbasis.model import MPBModel
from mpbasis.pipeline import fit_mpb
from mpbasis.reduction import (
    back_transform,
    compress,
    factorize,
    forward_transform,
    penalty_transform,
)
from mpbasis.sim import (
    Gp2dSimConfig,
    ProductSimConfig,
    generate_gp2d_sample,
    generate_product_sample,
    gp2d_eigensystem,
    mise,
)
from mpbasis.solver import (
    SolverConfig,
    fit,
    sylvester_solve,
    update_b_admm,
)


def decompress(g, facs):
    """Reference: compressed coordinates mapped back to the grid, ``U_d`` per mode."""
    for d, f in enumerate(facs):
        g = T.mode_multiply(g, f.u, d)
    return g


def report(num, label, ok, detail):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------------------
# 1. separable-product design, small setting: moMISE over 20 replications
# --------------------------------------------------------------------------


def test_criterion_01_product_design_momise():
    cfg = ProductSimConfig(
        n_dims=3, marginal_rank=11, true_rank=10, coef_sd=0.3, noise_var=0.5,
        grid_size=30, n_subjects=5, seed=20_240_501,
    )
    # rank-15 Fourier marginals: the smallest rank-15 systems containing the
    # generating function class (see notes in the repository docs); rank-15
    # cubic splines cannot reach the target, their span misses ~2.5% of the
    # truth energy
    bases = [FourierBasis((0.0, 1.0), 15) for _ in range(3)]
    fit_cfg = SolverConfig(
        rank=25, lambda_marginal=1e-8, lambda_coef=1e-8, max_outer_iters=400,
        outer_tol=1e-8, seed=0,
    )
    values = []
    for r in range(20):
        sample = generate_product_sample(cfg, replication=r)
        model, _, _ = fit_mpb(sample.noisy, sample.grids, bases, [2, 2, 2], fit_cfg)
        est = model.evaluate_subjects(sample.grids)
        values.append(mise(sample.truth, est, sample.grids) / cfg.n_subjects)
    momise = float(np.mean(values))
    report(1, "small-setting moMISE <= 0.01", momise <= 0.01, f"moMISE {momise:.5f}")


# --------------------------------------------------------------------------
# 2. 2-d Gaussian process: test MISE at K=30 and monotone decay in K
# --------------------------------------------------------------------------


def test_criterion_02_gp2d_generalization():
    cfg = Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=50, seed=42)
    k_grid = (5, 10, 20, 30)
    sums = {k: [] for k in k_grid}
    for r in range(10):
        sample = generate_gp2d_sample(cfg, replication=r)
        for k in k_grid:
            fit_cfg = SolverConfig(
                rank=k, lambda_marginal=1e-10, lambda_coef=1e-10,
                max_outer_iters=300, outer_tol=1e-10, seed=r,
            )
            model, _, _ = fit_mpb(sample.train, sample.grids, sample.bases, [2, 2], fit_cfg)
            coefs, _ = model.project(sample.test, sample.grids)
            xis = model.marginal_values(sample.grids)
            est = np.einsum("ik,jk,nk->ijn", xis[0], xis[1], coefs, optimize=True)
            sums[k].append(mise(sample.test, est, sample.grids))
    means = {k: float(np.mean(v)) for k, v in sums.items()}
    detail = ", ".join(f"K={k}: {means[k]:.5f}" for k in k_grid)
    report(2, "test MISE at K=30 <= 0.06", means[30] <= 0.06, detail)
    monotone = means[5] > means[10] > means[20] > means[30]
    report(2, "test MISE decreases over K=5,10,20,30", monotone, detail)


# --------------------------------------------------------------------------
# 3. two-stage FPCA recovers the leading true eigen-subspace
# --------------------------------------------------------------------------


def test_criterion_03_fpca_subspace_recovery():
    cfg = Gp2dSimConfig(ranks=(10, 8), grid_size=(200, 200), n_train=100, n_test=50, seed=314)
    bases, true_coefs, _ = gp2d_eigensystem(cfg)
    j_kron = np.kron(gram_matrix(bases[0]), gram_matrix(bases[1]))
    averages = []
    for r in range(3):
        sample = generate_gp2d_sample(cfg, replication=r)
        fit_cfg = SolverConfig(
            rank=60, lambda_marginal=1e-10, lambda_coef=1e-10,
            max_outer_iters=200, outer_tol=1e-10, seed=r,
        )
        model, _, _ = fit_mpb(sample.train, sample.grids, sample.bases, [2, 2], fit_cfg)
        with warnings.catch_warnings():
            # a rank-60 fit of effectively lower-rank data is overcomplete by
            # design; the eigen solve reduces to the independent subspace
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_fpca(model, lam=0.0, k_keep=5)
        coef_tensors = np.empty((true_coefs.shape[0], 5))
        for j in range(5):
            coef_tensors[:, j] = np.einsum(
                "ak,bk->ab", model.coefs[0] * res.s[:, j], model.coefs[1]
            ).reshape(-1)
        cross = true_coefs[:, :5].T @ j_kron @ coef_tensors
        averages.append(float(np.sqrt((cross**2).sum(axis=0)).mean()))
    worst = min(averages)
    report(
        3,
        "first-5 eigenfunction projection onto true span >= 0.95",
        worst >= 0.95,
        f"per-replication averages {np.round(averages, 4)}",
    )


# --------------------------------------------------------------------------
# 4. compression objective-equivalence identity
# --------------------------------------------------------------------------


def test_criterion_04_objective_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        n_dims = 2 if trial % 2 == 0 else 3
        dims = [int(rng.integers(6, 10)) for _ in range(n_dims)]
        ranks = [int(rng.integers(3, 6)) for _ in range(n_dims)]
        n_subj, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        phis = [rng.standard_normal((n, m)) for n, m in zip(dims, ranks)]
        facs = [factorize(p) for p in phis]
        y = rng.standard_normal((*dims, n_subj))
        c_tilde = [rng.standard_normal((m, k)) for m in ranks]
        b = rng.standard_normal((n_subj, k))
        cs = [back_transform(f, ct) for f, ct in zip(facs, c_tilde)]
        lhs = np.sum((y - T.cp_to_tensor([p @ c for p, c in zip(phis, cs)] + [b])) ** 2)
        g = compress(y, facs)
        rhs = np.sum((g - T.cp_to_tensor(c_tilde + [b])) ** 2)
        rhs += np.sum((y - decompress(g, facs)) ** 2)
        worst = max(worst, abs(lhs - rhs) / lhs)
    report(4, "objective equivalence within 1e-8", worst <= 1e-8, f"worst rel dev {worst:.2e}")


# --------------------------------------------------------------------------
# 5. penalty-transport identity against dense quadrature
# --------------------------------------------------------------------------


def test_criterion_05_penalty_identity():
    rng = np.random.default_rng(5)
    x = np.linspace(0, 1, 100_000)
    worst = 0.0
    for basis in [BSplineBasis((0.0, 1.0), 9), FourierBasis((0.0, 1.0), 7)]:
        grid = np.linspace(0, 1, 40)
        fac = factorize(basis.evaluate(grid))
        r = penalty_matrix(basis, 2)
        t_mat = penalty_transform(fac, r)
        for lam in (0.3, 1.7):
            c = rng.standard_normal((basis.rank, 3))
            c_tilde = forward_transform(fac, c)
            lhs = lam * np.trace(c_tilde.T @ t_mat @ c_tilde)
            d2 = basis.evaluate(x, 2) @ c
            rhs = lam * float(np.trapezoid((d2**2).sum(axis=1), x))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(5, "penalty identity within 1e-6", worst <= 1e-6, f"worst rel dev {worst:.2e}")


# --------------------------------------------------------------------------
# 6. Sylvester solve against the Kronecker-vectorized oracle
# --------------------------------------------------------------------------


def test_criterion_06_sylvester_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        k, n = int(rng.integers(2, 8)), int(rng.integers(2, 12))
        a = rng.standard_normal((k, k))
        m = a @ a.T + 0.05 * np.eye(k)
        bmat = rng.standard_normal((n, max(1, n - 2)))
        p = bmat @ bmat.T
        q = rng.standard_normal((n, k))
        x = sylvester_solve(m, p, q)
        oracle = np.linalg.solve(
            np.kron(np.eye(n), m.T) + np.kron(p, np.eye(k)), q.reshape(-1)
        ).reshape(n, k)
        denom = np.linalg.norm(q) + np.linalg.norm(oracle) * np.linalg.norm(m)
        worst = max(worst, np.linalg.norm(x - oracle) / denom)
        resid = np.linalg.norm(x @ m + p @ x - q) / denom
        worst = max(worst, resid)
    report(6, "Sylvester residual within 1e-9", worst <= 1e-9, f"worst residual {worst:.2e}")


# --------------------------------------------------------------------------
# 7. Lasso coefficient block against a coordinate-descent oracle
# --------------------------------------------------------------------------


def cd_lasso(w, y, lam, iters=4000):
    k = w.shape[1]
    b = np.zeros(k)
    col_sq = (w**2).sum(axis=0)
    for _ in range(iters):
        for j in range(k):
            rho = w[:, j] @ (y - w @ b + w[:, j] * b[j])
            b[j] = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / col_sq[j]
    return b


def test_criterion_07_admm_lasso_oracle():
    rng = np.random.default_rng(7)
    dims, n_subj, k = (5, 4), 6, 3
    worst = 0.0
    for lam in (0.2, 1.0, 4.0):
        g = rng.standard_normal((*dims, n_subj))
        c_tilde = [rng.standard_normal((m, k)) for m in dims]
        b0 = rng.standard_normal((n_subj, k))
        cfg = SolverConfig(rank=k, lambda_coef=lam, coef_penalty="lasso")
        gram, rhs = T.gram_of_khatri_rao(c_tilde), T.mttkrp(g, c_tilde, 2)
        b, z, _, converged, _ = update_b_admm(gram, rhs, b0, cfg, cfg.proximal_mu)
        assert converged
        w = T.khatri_rao([c_tilde[1], c_tilde[0]])
        gmat = T.unfold(g, 2)
        # KKT certificate of the proximal block b'A b / 2 - c'b + (lam / 2)|b|_1
        mu = cfg.proximal_mu
        a, c = w.T @ w + mu * np.eye(k), gmat @ w + mu * b0
        grad = b @ a - c
        breach = np.where(b != 0, np.abs(grad + lam / 2 * np.sign(b)), np.abs(grad) - lam / 2)
        assert np.all(breach <= 1e-13 * (np.abs(b) @ np.abs(a) + np.abs(c) + lam / 2))
        for i in range(n_subj):
            worst = max(worst, np.abs(b[i] - cd_lasso(w, gmat[i], lam)).max())
    report(7, "lasso block matches coordinate descent within 1e-5", worst <= 1e-5,
           f"worst entry dev {worst:.2e}")


# --------------------------------------------------------------------------
# 8. objective trace monotone on every fit exercised here
# --------------------------------------------------------------------------


def test_criterion_08_monotone_objective_traces():
    rng = np.random.default_rng(8)
    worst = -np.inf
    configs = [
        dict(coef_penalty="ridge", lambda_marginal=0.05, lambda_coef=0.02),
        dict(coef_penalty="ridge", lambda_marginal=[0.3, 0.0, 0.1], lambda_coef=0.0),
        dict(coef_penalty="lasso", lambda_marginal=0.01, lambda_coef=0.3),
    ]
    for i, extra in enumerate(configs):
        dims = (6, 5, 4)
        g = rng.standard_normal((*dims, 7))
        t_mats = []
        for m in dims:
            a = rng.standard_normal((m, m))
            t_mats.append(a @ a.T)
        cfg = SolverConfig(rank=3, proximal_mu=1e-8, max_outer_iters=80, seed=i, **extra)
        state = fit(g, t_mats, cfg)
        worst = max(worst, float(np.diff(state.objective_trace).max()))
    report(8, "objective traces nonincreasing (slack 1e-10)", worst <= 1e-10,
           f"largest increase {worst:.2e}")


# --------------------------------------------------------------------------
# 9. analytic Gram / Laplacian penalty against quadrature oracles (D=2)
# --------------------------------------------------------------------------


def test_criterion_09_analytic_matrices_vs_quadrature():
    rng = np.random.default_rng(9)
    bases = [FourierBasis((0.0, 1.0), 7), FourierBasis((0.0, 1.0), 5)]
    coefs = [rng.standard_normal((7, 3)), rng.standard_normal((5, 3))]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=rng.standard_normal((4, 3)))
    n = 200
    gx = np.linspace(0, 1, n)
    gy = np.linspace(0, 1, n)
    xi_x = bases[0].evaluate(gx) @ coefs[0]
    xi_y = bases[1].evaluate(gy) @ coefs[1]
    h = 1e-5

    def fd2(basis, c, pts):
        f = lambda p: basis.evaluate(p) @ c
        out = np.empty((pts.size, c.shape[1]))
        inner = (pts >= h) & (pts <= 1 - h)
        xi = pts[inner]
        out[inner] = (f(xi + h) - 2 * f(xi) + f(xi - h)) / h**2
        xl = pts[pts < h]
        out[pts < h] = (2 * f(xl) - 5 * f(xl + h) + 4 * f(xl + 2 * h) - f(xl + 3 * h)) / h**2
        xr = pts[pts > 1 - h]
        out[pts > 1 - h] = (2 * f(xr) - 5 * f(xr - h) + 4 * f(xr - 2 * h) - f(xr - 3 * h)) / h**2
        return out

    lap = np.einsum("ik,jk->ijk", fd2(bases[0], coefs[0], gx), xi_y)
    lap += np.einsum("ik,jk->ijk", xi_x, fd2(bases[1], coefs[1], gy))
    zeta = np.einsum("ik,jk->ijk", xi_x, xi_y)
    j_mat = model.gram_zeta()
    r_mat = model.laplacian_penalty_zeta()
    worst_j = worst_r = 0.0
    for a in range(3):
        for b in range(a, 3):
            ref_j = np.trapezoid(np.trapezoid(zeta[:, :, a] * zeta[:, :, b], x=gy, axis=1), x=gx)
            ref_r = np.trapezoid(np.trapezoid(lap[:, :, a] * lap[:, :, b], x=gy, axis=1), x=gx)
            worst_j = max(worst_j, abs(j_mat[a, b] - ref_j) / max(abs(ref_j), 1.0))
            worst_r = max(worst_r, abs(r_mat[a, b] - ref_r) / max(abs(ref_r), np.abs(r_mat).max()))
    report(9, "analytic Gram within 1e-6 of quadrature", worst_j <= 1e-6, f"dev {worst_j:.2e}")
    report(9, "analytic Laplacian penalty within 1e-4 of quadrature", worst_r <= 1e-4,
           f"dev {worst_r:.2e}")


# --------------------------------------------------------------------------
# 10. FPCA constraint suite and score-variance identity
# --------------------------------------------------------------------------


def test_criterion_10_fpca_constraints():
    rng = np.random.default_rng(10)
    worst_norm = worst_orth = worst_var = 0.0
    for trial in range(8):
        k = int(rng.integers(2, 6))
        bases = [BSplineBasis((0.0, 1.0), 8), BSplineBasis((0.0, 1.0), 6)]
        model = MPBModel(
            bases=bases,
            coefs=[rng.standard_normal((8, k)), rng.standard_normal((6, k))],
            subject_coefs=rng.standard_normal((20, k)),
        )
        lam = float(rng.uniform(0, 1e-2))
        res = run_fpca(model, lam=lam, k_keep=k)
        j = model.gram_zeta()
        r = model.laplacian_penalty_zeta()
        worst_norm = max(
            worst_norm, np.abs(np.einsum("ij,ij->j", res.s, j @ res.s) - 1.0).max()
        )
        pen = res.s.T @ (j + lam * r) @ res.s
        worst_orth = max(worst_orth, np.abs(pen - np.diag(np.diag(pen))).max())
        res0 = run_fpca(model, lam=0.0, k_keep=k)
        dev = np.abs(res0.scores.var(axis=0, ddof=1) - res0.nu)
        worst_var = max(worst_var, float(dev.max() / max(res0.nu.max(), 1e-300)))
    ok = worst_norm <= 1e-8 and worst_orth <= 1e-8 and worst_var <= 1e-8
    report(10, "FPCA normalization/orthogonality/score-variance within 1e-8", ok,
           f"norm {worst_norm:.2e}, orth {worst_orth:.2e}, var {worst_var:.2e}")


# --------------------------------------------------------------------------
# 11. noiseless in-class recovery at the true rank
# --------------------------------------------------------------------------


def test_criterion_11_noiseless_recovery():
    rng = np.random.default_rng(11)

    def run(k, weights, seed):
        dims = (7, 6, 5)
        cols = [rng.standard_normal((m, k)) for m in dims]
        cols = [c / np.linalg.norm(c, axis=0) for c in cols]
        b = rng.standard_normal((8, k))
        b = b / np.linalg.norm(b, axis=0) * np.asarray(weights)
        g = T.cp_to_tensor(cols + [b])
        cfg = SolverConfig(rank=k, seed=seed, max_outer_iters=500, outer_tol=1e-15)
        state = fit(g, [np.zeros((m, m)) for m in dims], cfg)
        return np.linalg.norm(g - T.cp_to_tensor(state.factors())) / np.linalg.norm(g)

    rel1 = run(1, [1.0], seed=0)
    rel3 = run(3, [1.0, 0.5, 0.25], seed=1)
    ok = rel1 < 1e-6 and rel3 < 1e-6
    report(11, "noiseless rank-1/rank-3 recovery below 1e-6", ok,
           f"rank-1 {rel1:.2e}, rank-3 {rel3:.2e}")


# --------------------------------------------------------------------------
# 12. tensor kernels against explicit-loop oracles
# --------------------------------------------------------------------------


def test_criterion_12_tensor_kernels_vs_loops():
    rng = np.random.default_rng(12)
    t = rng.standard_normal((3, 4, 2, 5))
    worst = 0.0
    # unfolding
    for d in range(4):
        other = [j for j in range(4) if j != d]
        ref = np.zeros((t.shape[d], int(np.prod([t.shape[j] for j in other]))))
        for idx in np.ndindex(*t.shape):
            col, stride = 0, 1
            for j in other:
                col += idx[j] * stride
                stride *= t.shape[j]
            ref[idx[d], col] = t[idx]
        worst = max(worst, np.abs(T.unfold(t, d) - ref).max() / np.abs(ref).max())
    # mode product
    m = rng.standard_normal((6, 4))
    ref = np.zeros((3, 6, 2, 5))
    for i, j, a, b in np.ndindex(3, 4, 2, 5):
        for r in range(6):
            ref[i, r, a, b] += m[r, j] * t[i, j, a, b]
    got = T.mode_multiply(t, m, 1)
    worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
    # khatri-rao and its Gram
    mats = [rng.standard_normal((n, 3)) for n in (4, 5)]
    kr_ref = np.zeros((20, 3))
    for col in range(3):
        for i in range(4):
            for j in range(5):
                kr_ref[i * 5 + j, col] = mats[0][i, col] * mats[1][j, col]
    worst = max(worst, np.abs(T.khatri_rao(mats) - kr_ref).max() / np.abs(kr_ref).max())
    gram_ref = kr_ref.T @ kr_ref
    worst = max(
        worst, np.abs(T.gram_of_khatri_rao(mats) - gram_ref).max() / np.abs(gram_ref).max()
    )
    # mttkrp
    mats4 = [rng.standard_normal((n, 2)) for n in t.shape]
    for d in range(4):
        others = [mats4[j] for j in range(4) if j != d]
        ref = np.zeros((t.shape[d], 2))
        for idx in np.ndindex(*t.shape):
            for col in range(2):
                val = t[idx]
                for j in range(4):
                    if j != d:
                        val *= mats4[j][idx[j], col]
                ref[idx[d], col] += val
        worst = max(worst, np.abs(T.mttkrp(t, others, d) - ref).max() / np.abs(ref).max())
    report(12, "tensor kernels match loop oracles within 1e-12", worst <= 1e-12,
           f"worst rel dev {worst:.2e}")
