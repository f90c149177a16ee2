"""JSON run configurations: schema validation and construction of domain objects."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Sequence

import jsonschema
import numpy as np

from .basis import basis_from_dict
from .sim import Gp2dSimConfig, ProductSimConfig
from .solver import SolverConfig

__all__ = ["RunConfig", "load_run_config", "load_sim_config"]

_BASIS_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["bspline", "fourier"]},
        "rank": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 1},
        "knots": {"type": "array", "items": {"type": "number"}},
        "period": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind", "rank"],
    "additionalProperties": False,
}

_GRID_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"equispaced": {"type": "integer", "minimum": 2}},
            "required": ["equispaced"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"points": {"type": "array", "items": {"type": "number"}, "minItems": 1}},
            "required": ["points"],
            "additionalProperties": False,
        },
    ]
}

_SOLVER_SCHEMA = {
    "type": "object",
    "properties": {
        "rank": {"type": "integer", "minimum": 1},
        "lambda_marginal": {
            "oneOf": [
                {"type": "number", "minimum": 0},
                {"type": "array", "items": {"type": "number", "minimum": 0}},
            ]
        },
        "lambda_coef": {"type": "number", "minimum": 0},
        "coef_penalty": {"enum": ["ridge", "lasso"]},
        "max_outer_iters": {"type": "integer", "minimum": 1},
        "outer_tol": {"type": "number", "exclusiveMinimum": 0},
        "proximal_mu": {"type": "number", "minimum": 0},
        "init": {"enum": ["random", "hosvd"]},
    },
    "required": ["rank"],
    "additionalProperties": False,
}

_SELECTION_SCHEMA = {
    "type": "object",
    "properties": {
        "marginal_rank_candidates": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "minItems": 1,
        },
        "marginal_rank_threshold": {"type": "number", "minimum": 0, "maximum": 1},
        "rank_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "rank_threshold": {"type": "number", "minimum": 0},
        "lambda_grid": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
            "minItems": 1,
        },
        "n_folds": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}

RUN_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "domains": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
            "minItems": 1,
        },
        "bases": {"type": "array", "items": _BASIS_SCHEMA, "minItems": 1},
        "penalty_orders": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
        },
        "grids": {"type": "array", "items": _GRID_SCHEMA},
        "solver": _SOLVER_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "center": {"type": "boolean"},
        "selection": _SELECTION_SCHEMA,
    },
    "required": ["domains", "bases", "solver"],
    "additionalProperties": False,
}

_SIM_SCHEMA = {
    "type": "object",
    "properties": {
        "design": {"enum": ["product", "gp2d"]},
        "replications": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        # product design
        "n_dims": {"type": "integer", "minimum": 1},
        "marginal_rank": {"type": "integer", "minimum": 1},
        "true_rank": {"type": "integer", "minimum": 1},
        "coef_sd": {"type": "number", "exclusiveMinimum": 0},
        "decay": {"type": "number", "exclusiveMinimum": 0},
        "noise_var": {"type": "number", "minimum": 0},
        "grid_size": {
            "oneOf": [
                {"type": "integer", "minimum": 2},
                {"type": "array", "items": {"type": "integer", "minimum": 2}},
            ]
        },
        "n_subjects": {"type": "integer", "minimum": 1},
        "redraw_coefs": {"type": "boolean"},
        # gp2d design
        "ranks": {"type": "array", "items": {"type": "integer", "minimum": 4}},
        "n_train": {"type": "integer", "minimum": 1},
        "n_test": {"type": "integer", "minimum": 0},
    },
    "required": ["design"],
    "additionalProperties": False,
}


def _validate(instance: dict, schema: dict, what: str) -> None:
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ValueError(f"invalid {what}: {where}: {err.message}")


@dataclass
class RunConfig:
    """Validated run configuration with constructed domain objects."""

    bases: list
    penalty_orders: list[int]
    grid_specs: list[dict] | None
    solver: SolverConfig
    seed: int
    center: bool
    selection: dict = field(default_factory=dict)

    @property
    def n_dims(self) -> int:
        return len(self.bases)

    def build_grids(self, dims: Sequence[int]) -> list[np.ndarray]:
        """Materialize grids for a tensor of the given leading dimensions."""
        if len(dims) != self.n_dims:
            raise ValueError(f"tensor has {len(dims)} grid modes, config has {self.n_dims}")
        grids = []
        for d, n in enumerate(dims):
            a, b = self.bases[d].domain
            spec = self.grid_specs[d] if self.grid_specs else {"equispaced": int(n)}
            if "equispaced" in spec:
                if spec["equispaced"] != n:
                    raise ValueError(
                        f"grid {d}: config says {spec['equispaced']} points, tensor has {n}"
                    )
                grids.append(np.linspace(a, b, n))
            else:
                pts = np.asarray(spec["points"], dtype=float)
                if pts.size != n:
                    raise ValueError(
                        f"grid {d}: config lists {pts.size} points, tensor has {n}"
                    )
                grids.append(pts)
        return grids

    def candidate_bases(self) -> list[list]:
        """Basis systems for each marginal-rank candidate in the selection block."""
        cands = self.selection.get("marginal_rank_candidates")
        if not cands:
            raise ValueError("config is missing selection.marginal_rank_candidates")
        out = []
        for ranks in cands:
            if len(ranks) != self.n_dims:
                raise ValueError("each rank candidate needs one entry per dimension")
            # custom knots do not fit another rank: reset them to equispaced
            out.append(
                [
                    basis_from_dict({**b.to_dict(), "rank": r, "knots": None})
                    for b, r in zip(self.bases, ranks)
                ]
            )
        return out


def _build_bases(cfg: dict) -> list:
    domains = cfg["domains"]
    specs = cfg["bases"]
    if len(specs) != len(domains):
        raise ValueError(
            f"config lists {len(domains)} domains but {len(specs)} bases"
        )
    return [basis_from_dict({**spec, "domain": dom}) for dom, spec in zip(domains, specs)]


def parse_run_config(cfg: dict) -> RunConfig:
    _validate(cfg, RUN_CONFIG_SCHEMA, "run config")
    bases = _build_bases(cfg)
    n_dims = len(bases)
    orders = cfg.get("penalty_orders", [2] * n_dims)
    if len(orders) != n_dims:
        raise ValueError("penalty_orders needs one entry per dimension")
    grid_specs = cfg.get("grids")
    if grid_specs is not None and len(grid_specs) != n_dims:
        raise ValueError("grids needs one entry per dimension")
    seed = int(cfg.get("seed", 0))
    s = dict(cfg["solver"])
    s.setdefault("seed", seed)
    solver_cfg = SolverConfig(**s)
    return RunConfig(
        bases=bases,
        penalty_orders=[int(o) for o in orders],
        grid_specs=grid_specs,
        solver=solver_cfg,
        seed=seed,
        center=bool(cfg.get("center", False)),
        selection=cfg.get("selection", {}),
    )


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    return parse_run_config(cfg)


def load_sim_config(path) -> tuple[str, int, object]:
    """Parse a simulation config; returns (design, replications, config)."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    _validate(cfg, _SIM_SCHEMA, "simulation config")
    design = cfg["design"]
    reps = int(cfg.get("replications", 1))
    # only the keys the JSON gives: every other field keeps its dataclass default
    cls = ProductSimConfig if design == "product" else Gp2dSimConfig
    given = {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}
    grid = given.get("grid_size")
    if design == "product":
        if isinstance(grid, list):
            if len(set(grid)) != 1:
                raise ValueError("product design uses one shared grid size per dimension")
            given["grid_size"] = grid[0]
    else:
        if len(given.get("ranks", (0, 0))) != 2:
            raise ValueError("gp2d design needs exactly two spline ranks")
        if grid is not None and not isinstance(grid, list):
            given["grid_size"] = [grid, grid]
        if len(given.get("grid_size", (0, 0))) != 2:
            raise ValueError("gp2d design needs a 2-d grid size")
    # the schema's integers include integral floats such as 5.0: cast every
    # value to its field's type, and the gp2d lists to tuples of int
    defaults = {f.name: f.default for f in fields(cls)}
    for name, value in given.items():
        default = defaults[name]
        given[name] = (
            tuple(int(v) for v in value)
            if isinstance(default, tuple)
            else type(default)(value)
        )
    return design, reps, cls(**given)
