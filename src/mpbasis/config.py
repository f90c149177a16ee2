"""JSON run and simulation configurations: key tables for :mod:`jsonspec`
and construction of domain objects."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import basis_from_dict
from .jsonspec import (
    BOOLEAN, INTEGER, INTERVAL, NUMBER, OBJECT, STRING, Kind,
    check, check_tagged, either, integer, list_of, number, obj,
)
from .sim import Gp2dSimConfig, ProductSimConfig
from .solver import SolverConfig

__all__ = ["RunConfig", "load_run_config", "load_sim_config"]

_GRID_KEYS = {"equispaced": integer(2), "points": list_of(NUMBER, "a nonempty list of numbers", 1)}


def _grid(value, where: str) -> dict:
    spec = check(value, where, _GRID_KEYS)
    if len(spec) != 1:
        raise ValueError(f"{where} needs exactly one of 'equispaced' and 'points'")
    return spec


# ranges that SolverConfig, the basis classes and the simulation configs check
# are left to them; the tables check the ranges of what no constructor reads at
# load: penalty orders and the selection block, checked only when used or not at all
_SOLVER_KEYS = {
    "rank": INTEGER, "max_outer_iters": INTEGER, "coef_penalty": STRING,
    "lambda_coef": NUMBER, "outer_tol": NUMBER, "proximal_mu": NUMBER,
    "lambda_marginal": either(NUMBER, list_of(NUMBER, "a list of numbers")),
}
_RANKS = list_of(integer(1), "a nonempty list of integers >= 1", 1)
_SELECTION_KEYS = {
    "marginal_rank_candidates": list_of(_RANKS, "a nonempty list of rank lists", 1),
    "rank_grid": _RANKS,
    "lambda_grid": list_of(
        list_of(number(0), "a pair of numbers >= 0", 2, 2), "a nonempty list of weight pairs", 1
    ),
    "n_folds": integer(2),
}
_RUN_KEYS = {
    "domains": list_of(INTERVAL, "a nonempty list of intervals", 1),
    "bases": list_of(OBJECT, "a list of basis specifications"),
    "penalty_orders": list_of(integer(1), "a list of integers >= 1"),
    "grids": list_of(Kind("a grid", _grid), "a list of grids"),
    "solver": obj(_SOLVER_KEYS, ("rank",)), "selection": obj(_SELECTION_KEYS),
    "seed": INTEGER, "center": BOOLEAN,
}

# one key table per design: a key of the other design is refused, not dropped
_INTS = list_of(INTEGER, "a list of integers")
_SIZES = either(INTEGER, _INTS)  # one size, or one per dimension
_SIM_COMMON = {"replications": integer(1), "seed": INTEGER, "decay": NUMBER, "grid_size": _SIZES}
_SIM_KEYS = {
    "product": {
        **_SIM_COMMON, "n_dims": INTEGER, "marginal_rank": INTEGER, "true_rank": INTEGER,
        "coef_sd": NUMBER, "noise_var": NUMBER, "n_subjects": INTEGER, "redraw_coefs": BOOLEAN,
    },
    "gp2d": {**_SIM_COMMON, "ranks": _INTS, "n_train": INTEGER, "n_test": INTEGER},
}


@dataclass
class RunConfig:
    """Validated run configuration with constructed domain objects."""

    bases: list
    penalty_orders: list[int]
    grid_specs: list[dict] | None
    solver: SolverConfig
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
            # custom knots do not fit another rank: drop them for equispaced ones
            specs = [{k: v for k, v in b.to_dict().items() if k != "knots"} for b in self.bases]
            out.append([basis_from_dict({**spec, "rank": r}) for spec, r in zip(specs, ranks)])
        return out


def parse_run_config(raw: dict) -> RunConfig:
    cfg = check(raw, "run config", _RUN_KEYS, ("domains", "bases", "solver"))
    domains, specs = cfg["domains"], cfg["bases"]
    if len(specs) != len(domains):
        raise ValueError(f"config lists {len(domains)} domains but {len(specs)} bases")
    for d, spec in enumerate(specs):
        if "domain" in spec:
            raise ValueError(f"run config bases[{d}]: 'domain' was unexpected")
    bases = [basis_from_dict({**spec, "domain": dom}) for dom, spec in zip(domains, specs)]
    n_dims = len(bases)
    orders = cfg.get("penalty_orders", [2] * n_dims)
    if len(orders) != n_dims:
        raise ValueError("penalty_orders needs one entry per dimension")
    grid_specs = cfg.get("grids")
    if grid_specs is not None and len(grid_specs) != n_dims:
        raise ValueError("grids needs one entry per dimension")
    return RunConfig(
        bases=bases,
        penalty_orders=orders,
        grid_specs=grid_specs,
        solver=SolverConfig(**cfg["solver"], seed=cfg.get("seed", 0)),
        center=cfg.get("center", False),
        selection=cfg.get("selection", {}),
    )


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc


def load_run_config(path) -> RunConfig:
    return parse_run_config(_load_json(path))


def load_sim_config(path) -> tuple[str, int, object]:
    """Parse a simulation config; returns (design, replications, config)."""
    given = check_tagged(_load_json(path), "simulation config", "design", _SIM_KEYS)
    design, reps = given.pop("design"), given.pop("replications", 1)
    # only the keys the JSON gives: every other field keeps its dataclass default
    return design, reps, {"product": ProductSimConfig, "gp2d": Gp2dSimConfig}[design](**given)
