"""Command-line behavior: exit codes, file outputs, determinism."""

import csv
import dataclasses
import json
import logging
import struct
import tracemalloc

import numpy as np
import pytest

from mpbasis import basis as basis_mod
from mpbasis import fileio, reduction, selection, solver
from mpbasis.cli import main
from mpbasis.fpca import FPCAResult, run_fpca
from mpbasis.model import MPBModel
from mpbasis.sim import ProductSimConfig, generate_product_sample
from mpbasis.solver import SolverConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(n_dims=2, rank=1, **solver_extra):
    return {
        "domains": [[0.0, 1.0]] * n_dims,
        "bases": [{"kind": "fourier", "rank": 7}] * n_dims,
        "penalty_orders": [2] * n_dims,
        "solver": {"rank": rank, "lambda_marginal": 0.0, "lambda_coef": 0.0, **solver_extra},
        "seed": 3,
    }


def rewrite_header(path, edit):
    """Rewrite the JSON header of a model or eigen file in place."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[5:9])
    blob = json.dumps(edit(json.loads(raw[9 : 9 + hlen]))).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + hlen :])


@pytest.fixture()
def rank1_tensor(tmp_path):
    cfg = ProductSimConfig(
        n_dims=2, marginal_rank=7, true_rank=1, grid_size=20, n_subjects=4,
        noise_var=0.0, seed=9,
    )
    sample = generate_product_sample(cfg)
    path = tmp_path / "data.mpbt"
    fileio.write_tensor(path, sample.noisy)
    return path


def test_fit_noiseless_rank_one_reports_small_residual(tmp_path, rank1_tensor):
    cfg_path = write_json(tmp_path / "cfg.json", base_config())
    out = tmp_path / "out"
    code = main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["residual_ratio"] < 1e-8
    assert (out / "model.mpbm").exists()


def test_fit_bad_magic_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mpbt"
    bad.write_bytes(b"JUNK" + bytes(32))
    cfg_path = write_json(tmp_path / "cfg.json", base_config())
    code = main(["fit", "--config", cfg_path, "--tensor", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad magic" in capsys.readouterr().err


def test_fit_same_seed_is_byte_identical(tmp_path, rank1_tensor):
    cfg_path = write_json(tmp_path / "cfg.json", base_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out1)]) == 0
    assert main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out2)]) == 0
    assert (out1 / "model.mpbm").read_bytes() == (out2 / "model.mpbm").read_bytes()


def test_fit_seed_override_changes_output(tmp_path, rank1_tensor):
    # small ridge keeps the rank-2 fit of rank-1 data solvable
    cfg_path = write_json(tmp_path / "cfg.json", base_config(rank=2, lambda_coef=1e-10))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out1)])
    main(
        ["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out2), "--seed", "99"]
    )
    assert (out1 / "model.mpbm").read_bytes() != (out2 / "model.mpbm").read_bytes()


def test_fit_unknown_config_key_exits_2(tmp_path, rank1_tensor, capsys):
    cfg = base_config()
    cfg["mystery"] = 1
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    code = main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_fit_nonconvergence_exits_4_with_outputs(tmp_path):
    # 7 periodic points per mode and Fourier rank 7: the bases span the grid,
    # so there is no noise estimate and only the sweep cap can stop this fit
    rng = np.random.default_rng(0)
    noisy = tmp_path / "n.mpbt"
    fileio.write_tensor(noisy, rng.standard_normal((7, 7, 4)))
    run = base_config(rank=2, max_outer_iters=2)
    run["grids"] = [{"points": list(np.arange(7) / 7.0)}] * 2
    cfg_path = write_json(tmp_path / "cfg.json", run)
    out = tmp_path / "out"
    code = main(["fit", "--config", cfg_path, "--tensor", str(noisy), "--out", str(out)])
    assert code == 4
    assert (out / "model.mpbm").exists()
    report = json.loads((out / "fit_report.json").read_text())
    assert report["stop_reason"] == "sweep cap" and report["noise_var"] is None


def test_fit_on_pure_noise_stops_at_the_noise_level_and_exits_0(tmp_path, caplog):
    rng = np.random.default_rng(0)
    noisy = tmp_path / "n.mpbt"
    fileio.write_tensor(noisy, rng.standard_normal((20, 20, 4)))
    cfg_path = write_json(tmp_path / "cfg.json", base_config(rank=2, max_outer_iters=30))
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="mpbasis"):
        code = main(["fit", "--config", cfg_path, "--tensor", str(noisy), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["stop_reason"] == "noise level" and report["converged"]
    assert report["iters"] < 30
    assert report["noise_var"] == pytest.approx(1.0, rel=0.1)  # standard normal entries
    assert "fit stopped at the noise level" in caplog.text


def test_fpca_and_verify_round_trip(tmp_path):
    # rank-2 data so that a rank-2 fit yields independent product functions
    cfg = ProductSimConfig(
        n_dims=2, marginal_rank=7, true_rank=2, grid_size=20, n_subjects=6,
        noise_var=0.0, seed=21,
    )
    tensor_path = tmp_path / "data2.mpbt"
    fileio.write_tensor(tensor_path, generate_product_sample(cfg).noisy)
    cfg_path = write_json(tmp_path / "cfg.json", base_config(rank=2, lambda_coef=1e-10))
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", cfg_path, "--tensor", str(tensor_path), "--out", str(fit_out)]) == 0
    fp_out = tmp_path / "fpca"
    code = main(
        ["fpca", "--model", str(fit_out / "model.mpbm"), "--out", str(fp_out), "--components", "2"]
    )
    assert code == 0
    assert main(["verify", str(fp_out / "eigen.mpbe"), "--model", str(fit_out / "model.mpbm")]) == 0
    # unpenalized score variances equal the eigenvalues
    result = fileio.read_eigen(fp_out / "eigen.mpbe")
    var = result.scores.var(axis=0, ddof=1)
    assert np.abs(var - result.nu).max() < 1e-8 * max(result.nu.max(), 1e-12)
    with open(fp_out / "eigen.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["component", "eigenvalue", "cumulative_variance"]
    assert len(rows) == 3


def test_select_cv_single_point(tmp_path, rank1_tensor):
    cfg = base_config(rank=1)
    cfg["selection"] = {"lambda_grid": [[1e-9, 1e-9]], "n_folds": 2}
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sel"
    code = main(
        ["select", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out), "--mode", "cv"]
    )
    assert code == 0
    with open(out / "selection_cv.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + single candidate
    assert rows[1][-1] == "1"


def test_select_marginal_rank_row_count(tmp_path, rank1_tensor):
    cfg = base_config(rank=1)
    cfg["selection"] = {"marginal_rank_candidates": [[3, 3], [5, 5], [7, 7]]}
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sel"
    code = main(
        [
            "select",
            "--config",
            cfg_path,
            "--tensor",
            str(rank1_tensor),
            "--out",
            str(out),
            "--mode",
            "marginal-rank",
        ]
    )
    assert code == 0
    with open(out / "selection_marginal_rank.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert [row[-1] for row in rows[1:]].count("1") == 1


def test_select_global_rank_matches_sweep_on_explicit_reduction(tmp_path, rank1_tensor):
    cfg = base_config(rank=1, lambda_coef=1e-10, max_outer_iters=30)
    cfg["selection"] = {"rank_grid": [1, 2, 3]}
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sel"
    code = main(
        ["select", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(out),
         "--mode", "global-rank"]
    )
    assert code == 0
    with open(out / "selection_global_rank.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "criterion", "chosen"]
    # the reference reduction spelled out step by step
    y = fileio.read_tensor(rank1_tensor)
    bases = [basis_mod.FourierBasis((0.0, 1.0), 7)] * 2
    grids = [np.linspace(0.0, 1.0, 20)] * 2
    facs = [reduction.factorize(b.evaluate(g), dim=d) for d, (b, g) in enumerate(zip(bases, grids))]
    t_mats = [
        reduction.penalty_transform(fac, basis_mod.penalty_matrix(b, 2))
        for fac, b in zip(facs, bases)
    ]
    g_hat = reduction.compress(y, facs)
    # noise-free data in the span of the bases: no noise level to stop at, so
    # the rank is the first whose residual is at rounding level
    assert np.sum(y**2) - np.sum(g_hat**2) <= reduction.NOISE_FLOOR * np.sum(y**2)
    config, state, ref = SolverConfig(**cfg["solver"], seed=3), None, []
    for k in (1, 2, 3):  # each rank warm-started from the one before
        state = solver.fit(g_hat, t_mats, dataclasses.replace(config, rank=k), initial_state=state)
        ref.append(state.residual_sq / np.sum(g_hat**2))
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
    assert [float(r[1]) for r in rows[1:]] == pytest.approx(ref, rel=1e-12)
    chosen = next((k for k, c in zip((1, 2, 3), ref) if c <= reduction.NOISE_FLOOR), 3)
    assert chosen == 1
    assert [int(r[2]) for r in rows[1:]] == [int(k == chosen) for k in (1, 2, 3)]


def test_select_refuses_the_removed_rank_threshold(tmp_path, rank1_tensor, capsys):
    # the global rank is chosen at the noise level; the old threshold key is unexpected
    cfg = base_config()
    cfg["selection"] = {"rank_grid": [1, 2], "rank_threshold": 0.05}
    argv = ["select", "--config", write_json(tmp_path / "cfg.json", cfg), "--tensor",
            str(rank1_tensor), "--out", str(tmp_path / "sel"), "--mode", "global-rank"]
    assert main(argv) == 2
    assert "rank_threshold" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["marginal-rank", "global-rank", "cv"])
def test_select_honours_center(tmp_path, rank1_tensor, mode):
    offset = tmp_path / "offset.mpbt"
    fileio.write_tensor(offset, fileio.read_tensor(rank1_tensor) + 3.0)
    csv_text = {}
    for center in (False, True):
        cfg = base_config(rank=1, lambda_coef=1e-10, max_outer_iters=30)
        cfg["center"] = center
        cfg["selection"] = {
            "marginal_rank_candidates": [[3, 3], [5, 5]],
            "rank_grid": [1, 2],
            "lambda_grid": [[1e-9, 1e-9]],
            "n_folds": 2,
        }
        cfg_path = write_json(tmp_path / f"cfg_{center}.json", cfg)
        out = tmp_path / f"sel_{center}"
        argv = ["select", "--config", cfg_path, "--tensor", str(offset), "--out", str(out)]
        assert main(argv + ["--mode", mode]) == 0
        csv_text[center] = (out / f"selection_{mode.replace('-', '_')}.csv").read_text()
    assert csv_text[True] != csv_text[False]


def test_select_global_rank_centers_the_compressed_tensor(tmp_path):
    # center removes the mean from g_hat after the reduction, as fit does,
    # instead of from a copy of the grid tensor; compression is linear, so the
    # criteria are those of a reduction of the centered grid tensor
    rng = np.random.default_rng(40)
    grids = [np.linspace(0.0, 1.0, 60), np.linspace(0.0, 1.0, 50)]
    bases = [basis_mod.FourierBasis((0.0, 1.0), 7)] * 2
    y = MPBModel(
        bases=bases,
        coefs=[rng.standard_normal((7, 2)) for _ in grids],
        subject_coefs=rng.standard_normal((120, 2)),
    ).evaluate_subjects(grids)
    y += 3.0 + 0.01 * rng.standard_normal(y.shape)
    path = tmp_path / "data.mpbt"
    fileio.write_tensor(path, y)
    cfg = base_config(rank=1, lambda_coef=1e-10, max_outer_iters=30)
    cfg["center"] = True
    cfg["selection"] = {"rank_grid": [1, 2]}
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sel"
    argv = ["select", "--config", cfg_path, "--tensor", str(path), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv + ["--mode", "global-rank"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * y.nbytes
    with open(out / "selection_global_rank.csv") as fh:
        got = [float(row[1]) for row in list(csv.reader(fh))[1:]]
    ref = selection.sweep_global_rank(
        y - y.mean(axis=-1, keepdims=True), grids, bases, [2, 2],
        SolverConfig(**cfg["solver"], seed=3), [1, 2],
    )
    assert got == pytest.approx([r.criterion for r in ref.records], rel=1e-12)


def test_integral_float_settings_reach_the_solver_as_ints(tmp_path, rank1_tensor):
    # JSON numbers such as 2.0 are integers; fit and select used to pass them
    # on as floats and die with a TypeError
    cfg = base_config(rank=2.0, lambda_coef=1e-10, max_outer_iters=5.0)
    cfg["selection"] = {"lambda_grid": [[1e-9, 1e-9]], "n_folds": 3.0}
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    common = ["--config", cfg_path, "--tensor", str(rank1_tensor)]
    assert main(["fit", *common, "--out", str(tmp_path / "fit")]) in (0, 4)
    assert main(["select", *common, "--out", str(tmp_path / "sel"), "--mode", "cv"]) == 0


def test_simulate_refuses_a_key_of_the_other_design(tmp_path, capsys):
    # the gp2d design is noise-free: a noise_var used to be dropped silently
    cfg_path = write_json(tmp_path / "sim.json", {"design": "gp2d", "noise_var": 0.5})
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "'noise_var' was unexpected" in capsys.readouterr().err


def test_every_file_simulate_writes_verifies(tmp_path):
    # with n_test 0 there is no test tensor to write
    sim_cfg = {
        "design": "gp2d", "replications": 2, "ranks": [4, 5], "grid_size": [10, 12],
        "n_train": 3, "n_test": 0,
    }
    cfg_path = write_json(tmp_path / "sim.json", sim_cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    written = sorted(p.name for p in out.glob("*.mpbt"))
    assert written == ["eigen_coefs.mpbt", "eigen_values.mpbt", "train_000.mpbt", "train_001.mpbt"]
    for name in written:
        assert main(["verify", str(out / name)]) == 0


@pytest.mark.parametrize(
    "sim_cfg",
    [
        {"design": "product", "replications": 2, "n_dims": 2, "marginal_rank": 5,
         "true_rank": 2, "grid_size": 10, "n_subjects": 3},
        {"design": "gp2d", "replications": 2, "ranks": [5, 4], "grid_size": 12,
         "n_train": 3, "n_test": 1},
    ],
    ids=["product", "gp2d"],
)
def test_simulate_seed_override_equals_the_config_seed(tmp_path, sim_cfg):
    given = write_json(tmp_path / "given.json", {**sim_cfg, "seed": 5})
    default = write_json(tmp_path / "default.json", sim_cfg)
    assert main(["simulate", "--config", given, "--out", str(tmp_path / "given")]) == 0
    argv = ["simulate", "--config", default, "--out", str(tmp_path / "flag"), "--seed", "5"]
    assert main(argv) == 0
    assert main(["simulate", "--config", default, "--out", str(tmp_path / "seed0")]) == 0
    written = sorted(p.name for p in (tmp_path / "given").glob("*.mpbt"))
    assert written == sorted(p.name for p in (tmp_path / "flag").glob("*.mpbt"))
    assert len(written) >= 4
    for name in written:
        data = (tmp_path / "given" / name).read_bytes()
        assert (tmp_path / "flag" / name).read_bytes() == data, name
    first = next(n for n in written if n.startswith(("noisy", "train")))
    assert (tmp_path / "seed0" / first).read_bytes() != (tmp_path / "given" / first).read_bytes()


def test_select_cv_defaults_live_in_selection(tmp_path):
    # a config without lambda_grid and n_folds gets cv_lambda_grid's defaults:
    # the 5 x 5 grid of powers 10^-10, 10^-8, ..., 10^-2 and 5 folds
    cfg = ProductSimConfig(
        n_dims=2, marginal_rank=5, true_rank=1, grid_size=8, n_subjects=6, seed=4
    )
    tensor = tmp_path / "y.mpbt"
    fileio.write_tensor(tensor, generate_product_sample(cfg).noisy)
    run = base_config(max_outer_iters=2)
    run["bases"] = [{"kind": "fourier", "rank": 5}] * 2
    cfg_path = write_json(tmp_path / "cfg.json", run)
    out = tmp_path / "sel"
    argv = ["select", "--config", cfg_path, "--tensor", str(tensor), "--out", str(out)]
    assert main(argv + ["--mode", "cv"]) == 0
    y = fileio.read_tensor(tensor)
    grids = [np.linspace(0.0, 1.0, 8)] * 2
    bases = [basis_mod.FourierBasis((0.0, 1.0), 5)] * 2
    exps = np.linspace(-10, -2, 5)
    expected = selection.cv_lambda_grid(
        y, grids, bases, [2, 2], SolverConfig(rank=1, max_outer_iters=2, seed=3),
        [(10.0**a, 10.0**b) for a in exps for b in exps], n_folds=5, seed=3,
    )
    expected.write_csv(tmp_path / "expected.csv")
    assert (out / "selection_cv.csv").read_text() == (tmp_path / "expected.csv").read_text()


def test_simulate_noise_free_truth_equals_noisy(tmp_path):
    sim_cfg = {
        "design": "product",
        "replications": 2,
        "seed": 11,
        "n_dims": 2,
        "marginal_rank": 5,
        "true_rank": 2,
        "noise_var": 0.0,
        "grid_size": 12,
        "n_subjects": 3,
    }
    cfg_path = write_json(tmp_path / "sim.json", sim_cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    for r in range(2):
        t = (out / f"truth_{r:03d}.mpbt").read_bytes()
        n = (out / f"noisy_{r:03d}.mpbt").read_bytes()
        assert t == n
    arr = fileio.read_tensor(out / "truth_000.mpbt")
    assert arr.shape == (12, 12, 3)
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    values = [float(r[1]) for r in rows[1:-1]]
    assert rows[-1][0] == "mean"
    assert float(rows[-1][1]) == pytest.approx(np.mean(values), rel=1e-15)


def test_info_reports_kind(tmp_path, rank1_tensor, capsys):
    assert main(["info", str(rank1_tensor)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"kind": "tensor", "dims": [20, 20, 4]}


def test_info_reports_model_and_eigen_headers(tmp_path, capsys):
    bases = [basis_mod.BSplineBasis((0.0, 1.0), 6), basis_mod.FourierBasis((0.0, 2.0), 5)]
    rng = np.random.default_rng(6)
    model = MPBModel(
        bases=bases,
        coefs=[rng.standard_normal((6, 3)), rng.standard_normal((5, 3))],
        subject_coefs=rng.standard_normal((4, 3)),
    )
    fileio.write_model(tmp_path / "m.mpbm", model)
    result = FPCAResult(
        s=rng.standard_normal((3, 2)), nu=np.array([2.0, 1.0]), scores=np.ones((4, 2)),
        lam=0.5, var_explained=np.array([0.6, 0.9]),
    )
    fileio.write_eigen(tmp_path / "e.mpbe", result)
    assert main(["info", str(tmp_path / "m.mpbm")]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "model", "rank": 3, "n_subjects": 4, "centered": False,
        "bases": [b.to_dict() for b in bases],
    }
    assert main(["info", str(tmp_path / "e.mpbe")]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "eigen", "rank": 3, "n_components": 2, "lambda": 0.5,
    }


def test_info_on_a_model_header_without_rank_exits_2(tmp_path, capsys):
    model = MPBModel(
        bases=[basis_mod.FourierBasis((0.0, 1.0), 3)], coefs=[np.ones((3, 1))],
        subject_coefs=np.ones((2, 1)),
    )
    path = tmp_path / "m.mpbm"
    fileio.write_model(path, model)
    rewrite_header(path, lambda h: {k: v for k, v in h.items() if k != "rank"})
    assert main(["info", str(path)]) == 2
    assert "model header has no field 'rank'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["model", "tensor"])
def test_info_on_a_mistyped_header_exits_2(tmp_path, capsys, kind):
    # a basis rank given as a string, or a tensor dimension of 2**61 whose
    # payload would be 2**64 bytes: both are input errors, not tracebacks
    if kind == "model":
        model = MPBModel(
            bases=[basis_mod.FourierBasis((0.0, 1.0), 3)], coefs=[np.ones((3, 1))],
            subject_coefs=np.ones((2, 1)),
        )
        path = tmp_path / "m.mpbm"
        fileio.write_model(path, model)
        rewrite_header(path, lambda h: {**h, "bases": [{**h["bases"][0], "rank": "3"}]})
        message = "fourier basis specification field 'rank' is not an integer: '3'"
    else:
        path = tmp_path / "t.mpbt"
        path.write_bytes(b"MPBT" + struct.pack("<BBQ", 1, 1, 2**61) + bytes(16))
        message = "truncated file while reading tensor payload"
    assert main(["info", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "basis, key, value, message",
    [
        (basis_mod.FourierBasis((0.0, 1.0), 3), "domain", [0.0, float("inf")], "finite endpoints"),
        (basis_mod.BSplineBasis((0.0, 1.0), 4), "domain", [float("-inf"), 1.0], "finite endpoints"),
        (basis_mod.FourierBasis((0.0, 1.0), 3), "period", float("nan"), "period must be finite"),
    ],
)
def test_info_on_a_non_finite_basis_header_exits_2(tmp_path, capsys, basis, key, value, message):
    # JSON headers may hold NaN and Infinity; the basis constructors refuse them
    model = MPBModel(
        bases=[basis], coefs=[np.ones((basis.rank, 1))], subject_coefs=np.ones((2, 1))
    )
    path = tmp_path / "m.mpbm"
    fileio.write_model(path, model)
    rewrite_header(path, lambda h: {**h, "bases": [{**h["bases"][0], key: value}]})
    assert main(["info", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_verify_refuses_a_non_finite_eigen_lambda(tmp_path, capsys):
    # JSON headers may hold NaN and Infinity; a non-finite lambda would make
    # the deviations NaN, which every "> 1e-8" test lets pass
    rng = np.random.default_rng(8)
    model = MPBModel(
        bases=[basis_mod.FourierBasis((0.0, 1.0), 5), basis_mod.BSplineBasis((0.0, 1.0), 6)],
        coefs=[rng.standard_normal((5, 3)), rng.standard_normal((6, 3))],
        subject_coefs=rng.standard_normal((8, 3)),
    )
    fileio.write_model(tmp_path / "m.mpbm", model)
    fileio.write_eigen(tmp_path / "e.mpbe", run_fpca(model, 0.1, k_keep=2))
    argv = ["verify", str(tmp_path / "e.mpbe"), "--model", str(tmp_path / "m.mpbm")]
    assert main(argv) == 0
    for value in (float("nan"), float("inf")):
        rewrite_header(tmp_path / "e.mpbe", lambda h: {**h, "lambda": value})
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "eigen header field 'lambda' is not a number that is finite" in err


@pytest.mark.parametrize("design", ["product", "gp2d"])
def test_simulate_refuses_a_nan_decay_before_writing(tmp_path, capsys, design):
    # the data used to be generated first, and the tensor writer then refused
    # them without naming a setting, leaving an empty output directory
    cfg_path = write_json(tmp_path / "sim.json", {"design": design, "decay": float("nan")})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "decay must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--smoothing", "nan", "smoothing weight"),
        ("--smoothing", "inf", "smoothing weight"),
        ("--var-threshold", "nan", "var_threshold"),
        ("--var-threshold", "-1", "var_threshold"),
    ],
)
def test_fpca_refuses_an_out_of_range_setting(tmp_path, capsys, flag, value, message):
    rng = np.random.default_rng(2)
    model = MPBModel(
        bases=[basis_mod.FourierBasis((0.0, 1.0), 5)], coefs=[rng.standard_normal((5, 2))],
        subject_coefs=rng.standard_normal((6, 2)),
    )
    fileio.write_model(tmp_path / "m.mpbm", model)
    out = tmp_path / "fpca"
    argv = ["fpca", "--model", str(tmp_path / "m.mpbm"), "--out", str(out), flag, value]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_3(tmp_path, rank1_tensor, capsys):
    # no grid point of dimension 1 reaches the support of the last splines,
    # so its evaluation matrix is rank deficient
    cfg = base_config()
    cfg["bases"] = [{"kind": "fourier", "rank": 7}, {"kind": "bspline", "rank": 7}]
    cfg["grids"] = [{"equispaced": 20}, {"points": np.linspace(0.0, 0.2, 20).tolist()}]
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    code = main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "dimension 1 is rank deficient" in err


def test_verify_tensor_and_model(tmp_path, rank1_tensor, capsys):
    assert main(["verify", str(rank1_tensor)]) == 0
    cfg_path = write_json(tmp_path / "cfg.json", base_config())
    fit_out = tmp_path / "fit"
    main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(fit_out)])
    capsys.readouterr()
    assert main(["verify", str(fit_out / "model.mpbm")]) == 0
    assert "model ok" in capsys.readouterr().out


def test_grid_size_mismatch_exits_2(tmp_path, rank1_tensor, capsys):
    cfg = base_config()
    cfg["grids"] = [{"equispaced": 21}, {"equispaced": 20}]
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    code = main(["fit", "--config", cfg_path, "--tensor", str(rank1_tensor), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "grid 0" in capsys.readouterr().err


def test_fit_tensor_with_extra_mode_exits_2(tmp_path, rank1_tensor, capsys):
    y = fileio.read_tensor(rank1_tensor)
    extra = tmp_path / "extra.mpbt"
    fileio.write_tensor(extra, y[..., None])
    cfg_path = write_json(tmp_path / "cfg.json", base_config())
    code = main(["fit", "--config", cfg_path, "--tensor", str(extra), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "tensor has 3 grid modes, config has 2" in capsys.readouterr().err


def test_threads_flag_is_rejected(rank1_tensor, capsys):
    # BLAS reads its thread count when numpy loads it, so a flag parsed later
    # cannot set it; the count is set through OPENBLAS_NUM_THREADS instead
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "info", str(rank1_tensor)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_select_cv_seed_override_sets_the_folds_and_the_solver(tmp_path):
    # --seed is applied once, to the solver's seed, which the fold shuffle reads too
    cfg = ProductSimConfig(n_dims=2, marginal_rank=5, true_rank=2, grid_size=10, n_subjects=6)
    tensor = tmp_path / "y.mpbt"
    fileio.write_tensor(tensor, generate_product_sample(cfg).noisy)
    run = {**base_config(rank=2, lambda_coef=1e-8, max_outer_iters=5), "seed": 1}
    run["selection"] = {"lambda_grid": [[1e-8, 1e-8], [1e-3, 1e-3]], "n_folds": 3}
    cfg_path = write_json(tmp_path / "cfg.json", run)
    argv = ["select", "--config", cfg_path, "--tensor", str(tensor), "--mode", "cv"]
    assert main([*argv, "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    expected = selection.cv_lambda_grid(
        fileio.read_tensor(tensor), [np.linspace(0.0, 1.0, 10)] * 2,
        [basis_mod.FourierBasis((0.0, 1.0), 7)] * 2, [2, 2],
        SolverConfig(**run["solver"], seed=3), run["selection"]["lambda_grid"], n_folds=3, seed=3,
    )
    expected.write_csv(tmp_path / "expected.csv")
    got = (tmp_path / "a" / "selection_cv.csv").read_text()
    assert got == (tmp_path / "expected.csv").read_text()
    assert got != (tmp_path / "b" / "selection_cv.csv").read_text()


def test_select_global_rank_without_a_rank_grid_exits_2(tmp_path, rank1_tensor, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", base_config())
    argv = ["select", "--config", cfg_path, "--tensor", str(rank1_tensor), "--mode", "global-rank"]
    assert main([*argv, "--out", str(tmp_path / "sel")]) == 2
    assert "config is missing selection.rank_grid" in capsys.readouterr().err
