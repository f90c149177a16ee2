"""Command-line front end.

Subcommands: ``fit``, ``fpca``, ``select``, ``simulate``, ``verify``,
``info``. Exit codes: 0 on success, 2 for input or configuration problems,
3 for numerical failures, 4 when a solver finished without converging but
outputs were still written. Set ``MPB_LOG`` to a level name (DEBUG, INFO,
...) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, fpca, reduction, selection, sim
from .config import load_run_config, load_sim_config
from .errors import NumericalError
from .pipeline import fit_mpb

log = logging.getLogger("mpbasis")


def _setup_logging() -> None:
    level = os.environ.get("MPB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fit(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.solver = dataclasses.replace(cfg.solver, seed=args.seed)
    y = fileio.read_tensor(args.tensor)
    grids = cfg.build_grids(y.shape[:-1])
    model, state, report = fit_mpb(
        y, grids, cfg.bases, cfg.penalty_orders, cfg.solver, center=cfg.center
    )
    out = _outdir(args)
    fileio.write_model(out / "model.mpbm", model)
    with open(out / "fit_report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    log.info(
        "fit finished in %d sweeps (residual ratio %.3e)", report.iters, report.residual_ratio
    )
    print(f"model written to {out / 'model.mpbm'}")
    if not state.converged:
        print("warning: solver hit the sweep cap before reaching the tolerance", file=sys.stderr)
        return 4
    return 0


def cmd_fpca(args) -> int:
    model = fileio.read_model(args.model)
    result = fpca.run_fpca(
        model, lam=args.smoothing, k_keep=args.components, var_threshold=args.var_threshold
    )
    out = _outdir(args)
    fileio.write_eigen(out / "eigen.mpbe", result)
    with open(out / "eigen.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "eigenvalue", "cumulative_variance"])
        for j in range(result.n_components):
            writer.writerow([j + 1, repr(float(result.nu[j])), repr(float(result.var_explained[j]))])
    with open(out / "scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject"] + [f"score_{j + 1}" for j in range(result.n_components)])
        for i, row in enumerate(result.scores):
            writer.writerow([i + 1] + [repr(float(v)) for v in row])
    print("component  eigenvalue    cumulative variance")
    for j in range(result.n_components):
        print(f"{j + 1:9d}  {result.nu[j]:.6e}  {result.var_explained[j]:.6f}")
    return 0


def _given(settings: dict, **keys) -> dict:
    """Keyword arguments from the config keys that ``settings`` holds; an
    absent key leaves the argument's default in :mod:`selection`."""
    return {arg: settings[key] for arg, key in keys.items() if key in settings}


def cmd_select(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.solver = dataclasses.replace(cfg.solver, seed=args.seed)
    y = fileio.read_tensor(args.tensor)
    grids = cfg.build_grids(y.shape[:-1])
    out = _outdir(args)
    if cfg.center and args.mode == "marginal-rank":  # its denominator is the centered y energy
        y = y - y.mean(axis=-1, keepdims=True)
    sel = cfg.selection
    if args.mode == "marginal-rank":
        report = selection.select_marginal_rank(
            y, grids, cfg.candidate_bases(), **_given(sel, threshold="marginal_rank_threshold")
        )
    elif args.mode == "global-rank":
        if "rank_grid" not in sel:
            raise ValueError("config is missing selection.rank_grid")
        prepared = reduction.prepare(y, grids, cfg.bases, cfg.penalty_orders)
        g_hat = prepared.g_hat
        if cfg.center:  # compression is linear: center g_hat, as fit_mpb does
            g_hat = g_hat - g_hat.mean(axis=-1, keepdims=True)
        report = selection.sweep_global_rank(
            g_hat,
            prepared.t_mats,
            cfg.solver,
            sel["rank_grid"],
            **_given(sel, threshold="rank_threshold"),
        )
    else:  # cv
        report = selection.cv_lambda_grid(
            y,
            grids,
            cfg.bases,
            cfg.penalty_orders,
            cfg.solver,
            seed=cfg.seed,
            center=cfg.center,
            **_given(sel, lambda_grid="lambda_grid", n_folds="n_folds"),
        )
    path = out / f"selection_{args.mode.replace('-', '_')}.csv"
    report.write_csv(path)
    chosen = report.chosen
    print(f"selection report written to {path}")
    print(f"chosen: {chosen.params} (criterion {chosen.criterion:.6e})")
    return 0


def cmd_simulate(args) -> int:
    design, reps, sim_cfg = load_sim_config(args.config)
    if args.seed is not None:
        sim_cfg = dataclasses.replace(sim_cfg, seed=args.seed)
    out = _outdir(args)
    rows = []
    if design == "product":
        for r in range(reps):
            sample = sim.generate_product_sample(sim_cfg, replication=r)
            fileio.write_tensor(out / f"truth_{r:03d}.mpbt", sample.truth)
            fileio.write_tensor(out / f"noisy_{r:03d}.mpbt", sample.noisy)
            fileio.write_model(out / f"truth_model_{r:03d}.mpbm", sample.model)
            rows.append((r, sim.mise(sample.truth, sample.noisy, sample.grids)))
    else:
        for r in range(reps):
            sample = sim.generate_gp2d_sample(sim_cfg, replication=r)
            fileio.write_tensor(out / f"train_{r:03d}.mpbt", sample.train)
            if sim_cfg.n_test:
                fileio.write_tensor(out / f"test_{r:03d}.mpbt", sample.test)
            rows.append((r, 0.0))
        fileio.write_tensor(out / "eigen_coefs.mpbt", sample.eigen_coefs)
        fileio.write_tensor(out / "eigen_values.mpbt", sample.eigen_values)
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "noise_ise"])
        for r, v in rows:
            writer.writerow([r, repr(v)])
        writer.writerow(["mean", repr(float(np.mean([v for _, v in rows])))])
    print(f"wrote {reps} replications to {out}")
    return 0


def cmd_verify(args) -> int:
    kind = fileio.peek_kind(args.path)
    if kind == "tensor":
        arr = fileio.read_tensor(args.path)
        print(f"tensor ok: dims {arr.shape}")
        return 0
    if kind == "model":
        model = fileio.read_model(args.path)
        j = model.gram_zeta()
        eigs = np.linalg.eigvalsh(j)
        print(
            f"model ok: {model.n_dims} dims, rank {model.rank}, "
            f"{model.n_subjects} subjects, Gram eigenvalue range "
            f"[{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )
        if eigs[0] <= fpca.GRAM_RANK_TOL * max(eigs[-1], 1e-300):
            print(
                "warning: product basis functions are numerically dependent; "
                "downstream eigen solves will reduce to the independent subspace",
                file=sys.stderr,
            )
        return 0
    if args.model is None:
        raise ValueError("verifying an eigen file requires --model")
    result = fileio.read_eigen(args.path)
    model = fileio.read_model(args.model)
    j = model.gram_zeta()
    r = model.laplacian_penalty_zeta()
    norm_dev = np.abs(np.einsum("ij,ij->j", result.s, j @ result.s) - 1.0).max()
    pen = result.s.T @ (j + result.lam * r) @ result.s
    ortho_dev = np.abs(pen - np.diag(np.diag(pen))).max()
    print(f"normalization deviation {norm_dev:.3e}, orthogonality deviation {ortho_dev:.3e}")
    if not (norm_dev <= 1e-8 and ortho_dev <= 1e-8):  # NaN fails too
        raise NumericalError("eigen constraints violated beyond 1e-8")
    print("eigen ok")
    return 0


def cmd_info(args) -> int:
    kind = fileio.peek_kind(args.path)
    if kind == "tensor":
        arr = fileio.read_tensor(args.path)
        print(json.dumps({"kind": "tensor", "dims": list(arr.shape)}))
    elif kind == "model":
        model = fileio.read_model(args.path)
        print(
            json.dumps(
                {
                    "kind": "model",
                    "rank": model.rank,
                    "n_subjects": model.n_subjects,
                    "bases": [b.to_dict() for b in model.bases],
                    "centered": model.mean_values is not None,
                },
                sort_keys=True,
            )
        )
    else:
        result = fileio.read_eigen(args.path)
        print(
            json.dumps(
                {
                    "kind": "eigen",
                    "rank": result.s.shape[0],
                    "n_components": result.n_components,
                    "lambda": result.lam,
                },
                sort_keys=True,
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpbasis",
        description="Marginal product basis representations for gridded functional data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to a tensor of observations")
    p.add_argument("--config", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fpca", help="penalized FPCA of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoothing", type=float, default=0.0, help="global smoothing weight")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--components", type=int, default=None, help="number of components")
    group.add_argument(
        "--var-threshold",
        type=float,
        default=0.99,
        help="cumulative variance threshold for choosing the component count",
    )
    p.set_defaults(func=cmd_fpca, var_threshold=0.99)

    p = sub.add_parser("select", help="hyperparameter selection sweeps")
    p.add_argument("--config", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", required=True, choices=["marginal-rank", "global-rank", "cv"])
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="generate synthetic datasets")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="validate a written file and its invariants")
    p.add_argument("path")
    p.add_argument("--model", default=None, help="model file (required for eigen files)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("info", help="print header information of a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
