"""Data reduction: SVD guards, compression isometry, penalty transport."""

from dataclasses import replace

import numpy as np
import pytest

from mpbasis import basis as basis_mod
from mpbasis import reduction, solver
from mpbasis import tensors as T
from mpbasis.basis import BSplineBasis, FourierBasis, penalty_matrix
from mpbasis.errors import NumericalError
from mpbasis.model import MPBModel
from mpbasis.pipeline import fit_mpb
from mpbasis.reduction import (
    QR_DIAG_RATIO_TOL,
    MarginalFactorization,
    back_transform,
    compress,
    factorize,
    forward_transform,
    lstsq_compressed,
    out_of_span_sq,
    penalty_transform,
    prepare,
)
from mpbasis.selection import cv_lambda_grid, select_marginal_rank, sweep_global_rank
from mpbasis.solver import SolverConfig


def decompress(g, facs):
    """Reference: compressed coordinates mapped back to the grid, ``U_d`` per mode."""
    for d, f in enumerate(facs):
        g = T.mode_multiply(g, f.u, d)
    return g


def test_factorize_identity():
    fac = factorize(np.eye(4))
    assert np.allclose(fac.s, np.ones(4))
    assert np.allclose(np.abs(fac.u), np.eye(4), atol=1e-14)
    assert np.allclose(fac.u @ fac.vt, np.eye(4), atol=1e-14)


def test_factorize_reconstruction():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((50, 10))
    fac = factorize(phi)
    rec = fac.u @ (fac.s[:, None] * fac.vt)
    assert np.linalg.norm(rec - phi) < 1e-10 * np.linalg.norm(phi)
    assert np.all(np.diff(fac.s) <= 0)
    assert np.abs(fac.u.T @ fac.u - np.eye(10)).max() < 1e-12
    assert np.abs(fac.vt @ fac.vt.T - np.eye(10)).max() < 1e-12


def test_factorize_fourier_singular_values_clustered():
    # sampled orthonormal functions: every singular value close to sqrt(n)
    basis = FourierBasis((0.0, 1.0), 9)
    n = 200
    phi = basis.evaluate(np.linspace(0, 1, n))
    fac = factorize(phi)
    assert np.abs(fac.s / np.sqrt(n) - 1.0).max() < 0.05


def test_factorize_rank_deficient_names_dimension():
    phi = np.ones((10, 2))  # duplicate columns
    with pytest.raises(NumericalError, match="dimension 1"):
        factorize(phi, dim=1)


def test_compress_recovers_core_on_the_range():
    rng = np.random.default_rng(1)
    facs = [factorize(rng.standard_normal((n, m))) for n, m in [(12, 4), (10, 3)]]
    x = rng.standard_normal((4, 3, 5))
    y = T.mode_multiply(T.mode_multiply(x, facs[0].u, 0), facs[1].u, 1)
    assert np.abs(compress(y, facs) - x).max() < 1e-12


def test_compress_pythagoras():
    rng = np.random.default_rng(2)
    facs = [factorize(rng.standard_normal((n, m))) for n, m in [(15, 5), (12, 4)]]
    y = rng.standard_normal((15, 12, 6))
    g = compress(y, facs)
    proj = decompress(g, facs)
    lhs = np.sum(y**2)
    rhs = np.sum(g**2) + np.sum((y - proj) ** 2)
    assert abs(lhs - rhs) < 1e-9 * lhs


def test_compress_zero_tensor():
    rng = np.random.default_rng(3)
    facs = [factorize(rng.standard_normal((8, 3)))]
    assert np.array_equal(compress(np.zeros((8, 2)), facs), np.zeros((3, 2)))


def test_compress_dimension_mismatch():
    rng = np.random.default_rng(4)
    facs = [factorize(rng.standard_normal((8, 3)))]
    with pytest.raises(ValueError, match="size"):
        compress(np.zeros((7, 2)), facs)
    with pytest.raises(ValueError, match="modes"):
        compress(np.zeros((8, 2, 3)), facs)


def test_compress_order_is_irrelevant():
    rng = np.random.default_rng(5)
    facs = [factorize(rng.standard_normal((n, 3))) for n in (9, 8, 7)]
    y = rng.standard_normal((9, 8, 7, 4))
    ref = compress(y, facs)
    out = y
    for d in (2, 0, 1):  # arbitrary order
        out = T.mode_multiply(out, facs[d].u.T, d)
    assert np.abs(out - ref).max() < 1e-12


def test_penalty_transform_zero():
    fac = factorize(np.random.default_rng(6).standard_normal((9, 4)))
    assert np.array_equal(penalty_transform(fac, np.zeros((4, 4))), np.zeros((4, 4)))


def test_penalty_transform_scaled_orthonormal():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    s = 2.5
    fac = factorize(s * q)
    t = penalty_transform(fac, np.eye(4))
    assert np.abs(t - np.eye(4) / s**2).max() < 1e-12


def test_penalty_transform_trace_identity():
    rng = np.random.default_rng(8)
    phi = rng.standard_normal((20, 6))
    fac = factorize(phi)
    r = rng.standard_normal((6, 6))
    r = r @ r.T
    t = penalty_transform(fac, r)
    c = rng.standard_normal((6, 3))
    c_tilde = forward_transform(fac, c)
    lhs = np.trace(c_tilde.T @ t @ c_tilde)
    rhs = np.trace(c.T @ r @ c)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_back_transform_round_trip():
    rng = np.random.default_rng(9)
    fac = factorize(rng.standard_normal((15, 5)))
    c = rng.standard_normal((5, 4))
    assert np.abs(back_transform(fac, forward_transform(fac, c)) - c).max() < 1e-12


@pytest.mark.parametrize("shape", [(15, 5), (5, 8)], ids=["tall", "coarser_grid"])
def test_forward_transform_equals_compressed_evaluation(shape):
    # diag(s) V' c = U'(Phi c), also for a grid with fewer points than the
    # basis rank, where V' has more columns than there are singular values
    rng = np.random.default_rng(39)
    phi = rng.standard_normal(shape)
    fac = MarginalFactorization(*np.linalg.svd(phi, full_matrices=False))
    c = rng.standard_normal((shape[1], 3))
    ref = fac.u.T @ (phi @ c)
    assert np.abs(forward_transform(fac, c) - ref).max() <= 1e-13 * np.abs(ref).max()
    with pytest.raises(ValueError, match=f"expected {shape[1]}"):
        forward_transform(fac, c[:-1])


def test_back_transform_orthonormal_phi():
    rng = np.random.default_rng(10)
    q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    fac = factorize(q)
    c_tilde = rng.standard_normal((4, 2))
    assert np.allclose(back_transform(fac, c_tilde), fac.vt.T @ c_tilde, atol=1e-12)


def test_evaluation_identity():
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((18, 6))
    fac = factorize(phi)
    c = rng.standard_normal((6, 3))
    c_tilde = forward_transform(fac, c)
    assert np.abs(phi @ c - fac.u @ c_tilde).max() < 1e-10


def test_objective_equivalence_identity():
    # || Y - model ||^2 == || G - compressed model ||^2 + || Y - proj Y ||^2
    rng = np.random.default_rng(12)
    for n_dims in (2, 3):
        dims = [9, 8, 7][:n_dims]
        ranks = [4, 3, 3][:n_dims]
        n_subj, k = 5, 2
        phis = [rng.standard_normal((n, m)) for n, m in zip(dims, ranks)]
        facs = [factorize(p) for p in phis]
        y = rng.standard_normal((*dims, n_subj))
        c_tilde = [rng.standard_normal((m, k)) for m in ranks]
        b = rng.standard_normal((n_subj, k))
        cs = [back_transform(f, ct) for f, ct in zip(facs, c_tilde)]
        model_grid = T.cp_to_tensor([p @ c for p, c in zip(phis, cs)] + [b])
        lhs = np.sum((y - model_grid) ** 2)
        g = compress(y, facs)
        mid = np.sum((g - T.cp_to_tensor(c_tilde + [b])) ** 2)
        resid = np.sum((y - decompress(g, facs)) ** 2)
        assert abs(lhs - (mid + resid)) < 1e-8 * lhs


def test_penalty_equivalence_against_dense_quadrature():
    # tr(Ct' T Ct) matches the trapezoid value of the integrated squared
    # second derivative of each represented marginal function
    rng = np.random.default_rng(13)
    basis = BSplineBasis((0.0, 1.0), 8)
    grid = np.linspace(0, 1, 30)
    phi = basis.evaluate(grid)
    fac = factorize(phi)
    r = penalty_matrix(basis, 2)
    t_mat = penalty_transform(fac, r)
    c = rng.standard_normal((8, 3))
    c_tilde = forward_transform(fac, c)
    lhs = np.trace(c_tilde.T @ t_mat @ c_tilde)
    x = np.linspace(0, 1, 100_000)
    d2 = basis.evaluate(x, 2) @ c
    rhs = float(np.trapezoid((d2**2).sum(axis=1), x))
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


def count_calls(monkeypatch, owner, name, when=lambda *args, **kwargs: True):
    """Wrap ``owner.name``: returns the list of the arguments of each call ``when`` accepts."""
    calls, func = [], getattr(owner, name)

    def counted(*args, **kwargs):
        if when(*args, **kwargs):
            calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_set_up(monkeypatch):
    """Counters of the grid evaluations (derivative order 0), the penalty
    quadratures and the SVDs that follow."""
    on_grid = lambda self, x, deriv=0: deriv == 0  # noqa: E731
    evals = [count_calls(monkeypatch, c, "evaluate", on_grid) for c in (BSplineBasis, FourierBasis)]
    quads = count_calls(monkeypatch, basis_mod, "penalty_matrix")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    return lambda: (sum(map(len, evals)), len(quads), len(svds))


EQUAL_SPECS = (  # three equal Fourier marginals, each its own basis and grid object
    [FourierBasis((0.0, 1.0), 7) for _ in range(3)],
    [np.linspace(0.0, 1.0, 10) for _ in range(3)],
    [2, 2, 2],
)


@pytest.mark.parametrize("bases, grids, orders, distinct", [
    (
        [BSplineBasis((0.0, 2.0), 7, degree=3), FourierBasis((-1.0, 1.0), 5)],
        [np.linspace(0.0, 2.0, 15), np.linspace(-1.0, 1.0, 12)],
        [2, 1],
        2,
    ),
    (*EQUAL_SPECS, 1),
], ids=["distinct", "equal"])
def test_prepare_matches_explicit_steps(monkeypatch, bases, grids, orders, distinct):
    # evaluate, factorize, transport each penalty at its own order, compress;
    # equal marginals share one evaluation, quadrature and SVD, bit for bit
    rng = np.random.default_rng(9)
    y = rng.standard_normal((*(g.size for g in grids), 4))
    counts = count_set_up(monkeypatch)
    prepared = prepare(y, grids, bases, orders)
    assert counts() == (distinct,) * 3
    monkeypatch.undo()
    facs, t_mats, g_hat = prepared.facs, prepared.t_mats, prepared.g_hat
    ref_facs = [factorize(b.evaluate(g), dim=d) for d, (b, g) in enumerate(zip(bases, grids))]
    for fac, ref in zip(facs, ref_facs):
        assert np.array_equal(fac.u, ref.u) and np.array_equal(fac.s, ref.s)
        assert np.array_equal(fac.vt, ref.vt)
    for d, (b, fac) in enumerate(zip(bases, ref_facs)):
        ref_t = penalty_transform(fac, penalty_matrix(b, orders[d]))
        assert np.array_equal(t_mats[d], ref_t)
    assert np.array_equal(g_hat, compress(y, ref_facs))
    flat = y.reshape(-1, y.shape[-1])
    assert np.array_equal(prepared.y_sq, np.einsum("ij,ij->j", flat, flat))
    assert len({id(f) for f in facs}) == len({id(t) for t in t_mats}) == distinct


OTHER_MARGINAL = {  # one change from BSplineBasis((0, 1), 6) on 12 points, order 2
    "grid points": (BSplineBasis((0.0, 1.0), 6), np.linspace(0.0, 1.0, 12) ** 2, 2),
    "penalty order": (BSplineBasis((0.0, 1.0), 6), np.linspace(0.0, 1.0, 12), 1),
    "rank": (BSplineBasis((0.0, 1.0), 7), np.linspace(0.0, 1.0, 12), 2),
    "domain": (BSplineBasis((-0.1, 1.0), 6), np.linspace(0.0, 1.0, 12), 2),
    "knots": (
        BSplineBasis((0.0, 1.0), 6, knots=[0, 0, 0, 0, 0.25, 0.5, 1, 1, 1, 1]),
        np.linspace(0.0, 1.0, 12),
        2,
    ),
}


@pytest.mark.parametrize("change", OTHER_MARGINAL)
def test_prepare_shares_nothing_between_different_marginals(monkeypatch, change):
    basis, grid, order = OTHER_MARGINAL[change]
    bases, grids = [BSplineBasis((0.0, 1.0), 6), basis], [np.linspace(0.0, 1.0, 12), grid]
    counts = count_set_up(monkeypatch)
    prepared = prepare(np.ones((12, 12, 2)), grids, bases, [2, order])
    assert counts() == (2, 2, 2)
    assert prepared.facs[0] is not prepared.facs[1]
    assert prepared.t_mats[0] is not prepared.t_mats[1]


def test_shared_set_up_is_read_only():
    bases, grids, orders = EQUAL_SPECS
    prepared = prepare(np.ones((10, 10, 10, 2)), grids, bases, orders)
    fac = prepared.facs[0]
    for a in (fac.u, fac.s, fac.vt, prepared.t_mats[0]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_model_evaluates_each_distinct_marginal_once(monkeypatch):
    # marginal_values, evaluate_subjects and project against per-dimension references
    bases, grids, _ = EQUAL_SPECS
    rng = np.random.default_rng(41)
    coefs = [rng.standard_normal((7, 3)) for _ in bases]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=rng.standard_normal((4, 3)))
    y = rng.standard_normal((10, 10, 10, 2))
    counts = count_set_up(monkeypatch)
    values = model.marginal_values(grids)
    assert counts() == (1, 0, 0)
    est = model.evaluate_subjects(grids)
    assert counts() == (2, 0, 0)
    proj, resid = model.project(y, grids)
    assert counts() == (3, 0, 1)
    monkeypatch.undo()
    refs = [b.evaluate(g) @ c for b, g, c in zip(bases, grids, coefs)]
    assert all(np.array_equal(v, r) for v, r in zip(values, refs))
    assert np.array_equal(est, T.cp_to_tensor(refs + [model.subject_coefs]))
    facs = [MarginalFactorization.of(b.evaluate(g)) for b, g in zip(bases, grids)]
    g = compress(y, facs)
    ref_proj, ref_sq = lstsq_compressed(
        g, [forward_transform(f, c) for f, c in zip(facs, coefs)],
        out_of_span_sq(y, facs, g), "dependent",
    )
    assert np.array_equal(proj, ref_proj) and np.array_equal(resid, np.sqrt(ref_sq))


def test_prepare_names_rank_deficient_dimension():
    # no grid point of dimension 1 reaches the support of the last splines
    bases = [FourierBasis((0.0, 1.0), 3), BSplineBasis((0.0, 1.0), 7)]
    grids = [np.linspace(0.0, 1.0, 10), np.linspace(0.0, 0.2, 10)]
    with pytest.raises(NumericalError, match="dimension 1"):
        prepare(np.ones((10, 10, 2)), grids, bases, [2, 2])


@pytest.mark.parametrize("dim", [0, 1])
def test_fit_refuses_a_non_finite_grid_point(dim):
    # refused by the basis evaluation, before the SVD fails on a NaN row
    bases = [BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 1.0), 5)]
    grids = [np.linspace(0.0, 1.0, 14), np.linspace(0.0, 1.0, 11)]
    grids[dim][3] = np.nan
    y = np.random.default_rng(39).standard_normal((14, 11, 4))
    with pytest.raises(ValueError, match=r"non-finite evaluation points: \[nan\]"):
        fit_mpb(y, grids, bases, [2, 2], SolverConfig(rank=2))


# ------------------------------------------------- checks and prepared problems


def small_problem(rng, n_subj=6):
    bases = [BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 1.0), 5)]
    grids = [np.linspace(0.0, 1.0, 14), np.linspace(0.0, 1.0, 11)]
    return bases, grids, rng.standard_normal((14, 11, n_subj))


def _prepare(y, grids, bases, orders):
    prepare(y, grids, bases, orders)


def _fit(y, grids, bases, orders):
    fit_mpb(y, grids, bases, orders, SolverConfig(rank=2, seed=0, max_outer_iters=5))


def _cv(y, grids, bases, orders):
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=5)
    cv_lambda_grid(y, grids, bases, orders, cfg, [(1e-6, 1e-6)], n_folds=2)


def _marginal(y, grids, bases, orders):
    select_marginal_rank(y, grids, [bases])


def _sweep(y, grids, bases, orders):
    sweep_global_rank(y, grids, bases, orders, SolverConfig(rank=1, seed=0, max_outer_iters=5), [1])


def _project(y, grids, bases, orders):
    rng = np.random.default_rng(34)
    coefs = [rng.standard_normal((b.rank, 2)) for b in bases]
    MPBModel(bases=bases, coefs=coefs, subject_coefs=np.ones((1, 2))).project(y, grids)


_CHECK_CASES = [
    ("modes", "data tensor has 4 modes, expected 3"),
    ("orders", "one grid and one penalty order per dimension"),
    # an order is a plain int, refused by penalty_matrix when it builds the penalty
    ("order-zero", "penalty order must be >= 1, got 0"),
    ("grids", "one grid and one penalty order per dimension"),
    ("length", "grid 1 has 10 points but the tensor mode has size 11"),
]
_ENTRIES = [
    (_prepare, "prepare"), (_fit, "fit_mpb"), (_cv, "cv"), (_marginal, "marginal_rank"),
    (_sweep, "global_rank"), (_project, "project"),
]


@pytest.mark.parametrize(
    "case, match, entry",
    [
        pytest.param(case, match, entry, id=f"{case}-{match}-{name}")
        for case, match in _CHECK_CASES
        for entry, name in _ENTRIES
        # the marginal-rank criterion and the projection take no penalty orders
        if not (entry in (_marginal, _project) and case.startswith("order"))
    ],
)
def test_input_checks_shared_by_every_entry_point(case, match, entry):
    bases, grids, y = small_problem(np.random.default_rng(30))
    orders = [2, 2]
    if case == "modes":
        y = y[..., None]
    elif case == "orders":
        orders = [2]  # two bases, one penalty order
    elif case == "order-zero":
        orders = [2, 0]
    elif case == "grids":
        grids = grids[:1]
    else:
        grids = [grids[0], grids[1][:10]]
    if entry in (_marginal, _project):  # no penalty orders: the message names grids only
        match = match.replace(" and one penalty order", "")
    with pytest.raises(ValueError, match=match):
        entry(y, grids, bases, orders)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [_fit, _cv, _marginal, _sweep, _project])
def test_non_finite_data_is_refused_naming_the_data_tensor(entry, bad):
    # checked on the compressed tensor, which every NaN or inf reaches
    bases, grids, y = small_problem(np.random.default_rng(35))
    y[7, 4, 2] = bad
    with pytest.raises(ValueError, match="data tensor has non-finite values"):
        entry(y, grids, bases, [2, 2])


def test_prepared_subjects_equal_preparing_them_alone():
    bases, grids, y = small_problem(np.random.default_rng(31))
    full = prepare(y, grids, bases, [2, 2])
    pick = np.array([True, False, True, True, False, True])
    part = full.subjects(pick)
    alone = prepare(y[..., pick], grids, bases, [2, 2])
    assert part.facs is full.facs and part.t_mats is full.t_mats
    scale = np.abs(alone.g_hat).max()
    assert np.abs(part.g_hat - alone.g_hat).max() <= 1e-14 * scale
    assert np.array_equal(full.subjects([4, 1]).g_hat, full.g_hat[..., [4, 1]])


def test_fit_mpb_accepts_a_prepared_problem():
    bases, grids, y = small_problem(np.random.default_rng(32))
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=20)
    prepared = prepare(y, grids, bases, [2, 1])
    model, state, report = fit_mpb(prepared, grids, bases, [2, 1], cfg)
    ref_model, ref_state, ref_report = fit_mpb(y, grids, bases, [2, 1], cfg)
    for a, b in zip(model.coefs + [model.subject_coefs], ref_model.coefs + [ref_model.subject_coefs]):
        assert np.array_equal(a, b)
    assert np.array_equal(state.objective_trace, ref_state.objective_trace)
    assert report.residual_ratio == ref_report.residual_ratio
    with pytest.raises(ValueError, match="center"):
        fit_mpb(prepared, grids, bases, [2, 1], cfg, center=True)
    for g, b, o in [
        ([grids[0] * 0.5, grids[1]], bases, [2, 1]),
        (grids, [BSplineBasis((0.0, 1.0), 7), bases[1]], [2, 1]),
        (grids, [bases[0], FourierBasis((0.0, 2.0), 5)], [2, 1]),
        (grids, bases, [2, 2]),
        (grids, bases, [2, 1, 1]),
        (grids[:1], bases, [2, 1]),
        (grids, bases[:1], [2, 1]),
    ]:
        with pytest.raises(ValueError, match="prepared problem was made from other"):
            fit_mpb(prepared, g, b, o, cfg)


def test_fit_mpb_accepts_a_prepared_problem_from_equal_bases():
    # equal specifications and grid points, other objects: the marginal_keys
    # rule of prepare, which these bases used to fail by object identity
    rng = np.random.default_rng(39)
    grid = np.linspace(0.0, 1.0, 20)
    y = rng.standard_normal((20, 20, 6))
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=10)
    prepared = prepare(y, [grid, grid], [FourierBasis((0, 1), 5), FourierBasis((0, 1), 5)], [2, 2])
    fresh = [FourierBasis((0, 1), 5), FourierBasis((0.0, 1.0), 5)]
    model, state, _ = fit_mpb(prepared, [list(grid), grid.copy()], fresh, [2, 2], cfg)
    ref_model, ref_state, _ = fit_mpb(y, [grid, grid], fresh, [2, 2], cfg)
    assert model.bases == fresh
    assert np.array_equal(state.objective_trace, ref_state.objective_trace)
    got, want = (m.coefs + [m.subject_coefs] for m in (model, ref_model))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_centered_prepared_problem_carries_its_mean_into_the_model():
    # the refusal's advice, followed: fitting a centered(y) problem is the
    # center=True fit, mean included (such a model used to have no mean)
    bases, grids, y = small_problem(np.random.default_rng(38))
    y = y + 3.0
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=20)
    prepared = prepare(y, grids, bases, [2, 2])
    with pytest.raises(ValueError, match=r"fit the prepared problem's centered\(y\) instead"):
        fit_mpb(prepared, grids, bases, [2, 2], cfg, center=True)
    model, _, _ = fit_mpb(prepared.centered(y), grids, bases, [2, 2], cfg)
    ref, _, _ = fit_mpb(y, grids, bases, [2, 2], cfg, center=True)
    got, want = (m.coefs + [m.subject_coefs, m.mean_values] + m.mean_grids for m in (model, ref))
    assert len(got) == len(want) == 6
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the offset of 3 over unit noise: without the mean the error is near |y|
    assert np.linalg.norm(y - model.evaluate_subjects(grids)) <= 0.5 * np.linalg.norm(y)


def test_a_prepared_problem_takes_penalty_orders_by_the_integer_rule():
    # a fractional order used to be truncated, so [2.7, 1] passed for [2, 1]
    bases, grids, y = small_problem(np.random.default_rng(34))
    prepared = prepare(y, grids, bases, [2, 1])
    assert prepared.penalty_orders == (2, 1)
    assert prepare(y, grids, bases, [2.0, np.int64(1)]).penalty_orders == (2, 1)
    prepared.check_source(grids, bases, [2.0, np.int64(1)])
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=2)
    for orders, match in [([2.7, 1], "2.7"), ([2, "1"], "'1'"), ([True, 1], "True")]:
        with pytest.raises(ValueError, match=f"penalty order must be an integer, got {match}"):
            fit_mpb(prepared, grids, bases, orders, cfg)


def test_prepare_without_penalty_orders_is_the_reduction_alone():
    bases, grids, y = small_problem(np.random.default_rng(36))
    full = prepare(y, grids, bases, [2, 1])
    bare = prepare(y, grids, bases)
    assert bare.t_mats == () and bare.penalty_orders == ()
    assert np.array_equal(bare.g_hat, full.g_hat)
    for f, h in zip(bare.facs, full.facs):
        assert np.array_equal(f.u, h.u) and np.array_equal(f.s, h.s)
    with pytest.raises(ValueError, match="prepared problem was made from other"):
        fit_mpb(bare, grids, bases, [2, 1], SolverConfig(rank=2))


def _in_span(rng, bases, grids, n_subj=6):
    coefs = [rng.standard_normal((b.rank, 2)) for b in bases]
    model = MPBModel(bases=bases, coefs=coefs, subject_coefs=rng.standard_normal((n_subj, 2)))
    return model.evaluate_subjects(grids)


@pytest.mark.parametrize("case", ["lasso", "noise-free"])
def test_fit_mpb_centers_the_compressed_tensor(case):
    # centering the compressed tensor equals compressing the centered data,
    # over whole fits: a lasso fit, and a ridge fit of data in the span of
    # the bases (no noise estimate), have no noise target and run their sweeps
    bases, grids, y = small_problem(np.random.default_rng(33))
    if case == "noise-free":
        y = _in_span(np.random.default_rng(33), bases, grids)
    y = y + 3.0
    penalty = "lasso" if case == "lasso" else "ridge"
    cfg = SolverConfig(rank=2, seed=0, max_outer_iters=20, lambda_coef=1e-3, coef_penalty=penalty)
    model, state, _ = fit_mpb(y, grids, bases, [2, 2], cfg, center=True)
    mean = y.mean(axis=-1)
    assert np.array_equal(model.mean_values, mean)
    _, ref, _ = fit_mpb(y - mean[..., None], grids, bases, [2, 2], cfg)
    assert state.stop_reason == ref.stop_reason != "noise level" and state.iters == ref.iters > 10
    scale = np.abs(ref.b).max()
    assert np.abs(state.b - ref.b).max() <= 1e-9 * scale
    assert np.allclose(state.objective_trace, ref.objective_trace, rtol=1e-9, atol=0)


def test_noise_target_of_a_centered_problem_counts_n_minus_1_subjects():
    # the centered target is its noise estimate times the residual freedom of
    # N - 1 subjects; a reduction of pre-centered data counts N and differs
    bases, grids, y = small_problem(np.random.default_rng(33))
    y = y + 3.0
    centered = prepare(y, grids, bases, [2, 2]).centered(y)
    pre = prepare(y - y.mean(axis=-1, keepdims=True), grids, bases, [2, 2])
    *ms, n = centered.g_hat.shape
    for k in (1, 2, 3):
        cfg = SolverConfig(rank=k)
        target = centered.noise_target(cfg)
        assert target == centered.noise_var * solver.residual_dof((*ms, n - 1), k)
        assert pre.noise_target(cfg) == pre.noise_var * solver.residual_dof((*ms, n), k)
        assert target != pytest.approx(pre.noise_target(cfg), rel=1e-3)
    # rank 11 on a 6 x 5 compressed grid: 150 entries and 154 parameters over
    # 5 centered subjects leave no residual freedom; 180 and 165 over 6 do
    cfg = SolverConfig(rank=11)
    assert centered.noise_target(cfg) is None and pre.noise_target(cfg) > 0
    # the lasso block's degrees of freedom differ: no target, unless at zero weight
    lasso = SolverConfig(rank=1, coef_penalty="lasso")
    assert centered.noise_target(lasso) == centered.noise_target(SolverConfig(rank=1))
    assert centered.noise_target(replace(lasso, lambda_coef=1e-3)) is None
    # no noise estimate: data in the span of the bases
    y = _in_span(np.random.default_rng(35), bases, grids)
    assert prepare(y, grids, bases, [2, 2]).noise_target(SolverConfig(rank=1)) is None


@pytest.mark.parametrize("slab", [None, 308])
def test_out_of_span_sq_is_the_direct_residual(monkeypatch, slab):
    if slab is not None:  # rows of 11 x 5 entries: slabs of 5, 5 and 4 of the 14 rows
        monkeypatch.setattr(reduction, "SLAB_ENTRIES", slab)
    bases, grids, y = small_problem(np.random.default_rng(34), n_subj=5)
    facs = prepare(y, grids, bases, [2, 2]).facs
    y = y + 3.0
    g = compress(y, facs)
    for centered in (False, True):
        # a centered CV fold: the training mean (subjects 0-2) comes off a
        # copy of the data and off its compressed tensor
        y_c, g_c = y.copy(), g.copy()
        if centered:
            y_c -= y[..., :3].mean(axis=-1, keepdims=True)
            g_c -= g[..., :3].mean(axis=-1, keepdims=True)
        got = out_of_span_sq(y_c, facs, g_c)
        r = y_c - decompress(compress(y_c, facs), facs)
        ref = np.sum(r**2, axis=(0, 1))
        assert np.allclose(got, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("rows", range(1, 8))
def test_out_of_span_sq_any_slab_size_matches_explicit_difference(monkeypatch, rows):
    # slabs of one row, of several rows with a short last slab, and of all 7
    # rows; three grid modes, so two are decompressed before the slab loop
    rng = np.random.default_rng(24)
    bases = [BSplineBasis((0.0, 1.0), 4), FourierBasis((0.0, 1.0), 3), BSplineBasis((0.0, 1.0), 4)]
    grids = [np.linspace(0.0, 1.0, n) for n in (7, 6, 5)]
    y = rng.standard_normal((7, 6, 5, 4))
    facs = prepare(y, grids, bases, [2, 2, 2]).facs
    g = compress(y, facs)
    expected = np.sum((y - decompress(g, facs)) ** 2, axis=(0, 1, 2))
    monkeypatch.setattr(reduction, "SLAB_ENTRIES", rows * 6 * 5 * 4)
    for data in (y, np.asfortranarray(y)):  # C order, and an order whose rows are not contiguous
        got = out_of_span_sq(data, facs, g)
        assert got.shape == (4,)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_out_of_span_sq_of_in_span_data_is_roundoff():
    # y - decompress(g) is formed directly: no cancellation of |y|^2 - |g|^2
    rng = np.random.default_rng(36)
    bases, grids, _ = small_problem(rng)
    facs = [factorize(b.evaluate(g)) for b, g in zip(bases, grids)]
    y = decompress(1e6 * rng.standard_normal((6, 5, 3)), facs)
    got = out_of_span_sq(y, facs, compress(y, facs))
    assert np.sqrt(got).max() <= 1e-13 * np.linalg.norm(y)


def test_lstsq_compressed_matches_numpy_lstsq():
    rng = np.random.default_rng(37)
    mats = [rng.standard_normal((6, 3)), rng.standard_normal((5, 3))]
    g = rng.standard_normal((6, 5, 4))
    out_sq = rng.uniform(size=4)
    coefs, resid_sq = lstsq_compressed(g, mats, out_sq, "unused")
    a = T.khatri_rao(mats)
    ref, res, *_ = np.linalg.lstsq(a, g.reshape(30, 4), rcond=None)
    assert np.abs(coefs - ref.T).max() <= 1e-12 * np.abs(ref).max()
    assert np.allclose(resid_sq, res + out_sq, rtol=1e-12, atol=0)


def test_lstsq_compressed_guards_the_r_diagonal():
    rng = np.random.default_rng(38)
    mats = [rng.standard_normal((6, 3)), rng.standard_normal((5, 3))]
    for m in mats:
        m[:, 2] = m[:, 1]
    with pytest.raises(NumericalError, match="basis is dependent") as info:
        lstsq_compressed(np.zeros((6, 5, 2)), mats, np.zeros(2), "basis is dependent")
    msg = str(info.value)
    assert "QR diagonal ratio" in msg and f"threshold {QR_DIAG_RATIO_TOL:g}" in msg
    with pytest.raises(NumericalError, match="4 product functions in 3"):
        lstsq_compressed(np.zeros((3, 1)), [rng.standard_normal((3, 4))], np.zeros(1), "wide")
    bad = np.zeros((6, 5, 2))
    bad[0, 0, 1] = np.nan
    with pytest.raises(NumericalError, match="not finite"):
        lstsq_compressed(bad, [rng.standard_normal((6, 2)), rng.standard_normal((5, 2))],
                         np.zeros(2), "nan")
