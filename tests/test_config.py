"""Run and simulation configurations loaded from JSON."""

import json

import numpy as np
import pytest

from mpbasis.basis import BSplineBasis, FourierBasis
from mpbasis.config import load_sim_config, parse_run_config
from mpbasis.sim import Gp2dSimConfig, ProductSimConfig

KNOTS = [0.0, 0.0, 0.0, 0.3, 0.5, 1.4, 2.0, 2.0, 2.0]


def custom_config():
    return {
        "domains": [[0.0, 2.0], [-1.0, 1.0]],
        "bases": [
            {"kind": "bspline", "rank": 6, "degree": 2, "knots": KNOTS},
            {"kind": "fourier", "rank": 5, "period": 3.0},
        ],
        "solver": {"rank": 1},
        "selection": {"marginal_rank_candidates": [[4, 3], [8, 7]]},
    }


def test_bases_match_explicit_constructors():
    cfg = parse_run_config(custom_config())
    expected = [
        BSplineBasis((0.0, 2.0), 6, degree=2, knots=KNOTS),
        FourierBasis((-1.0, 1.0), 5, period=3.0),
    ]
    assert [b.to_dict() for b in cfg.bases] == [b.to_dict() for b in expected]


def test_default_bspline_degree_and_fourier_period():
    raw = custom_config()
    raw["bases"] = [{"kind": "bspline", "rank": 6}, {"kind": "fourier", "rank": 5}]
    cfg = parse_run_config(raw)
    assert cfg.bases[0].degree == 3
    assert np.array_equal(cfg.bases[0].knots, BSplineBasis((0.0, 2.0), 6).knots)
    assert cfg.bases[1].period == 2.0


def test_candidate_bases_change_only_the_rank():
    # custom knots reset to equispaced; degree and period are kept
    cands = parse_run_config(custom_config()).candidate_bases()
    expected = [
        [BSplineBasis((0.0, 2.0), 4, degree=2), FourierBasis((-1.0, 1.0), 3, period=3.0)],
        [BSplineBasis((0.0, 2.0), 8, degree=2), FourierBasis((-1.0, 1.0), 7, period=3.0)],
    ]
    assert [[b.to_dict() for b in c] for c in cands] == [
        [b.to_dict() for b in c] for c in expected
    ]


@pytest.mark.parametrize("key", ["gamma", "admm_tol_primal", "admm_tol_dual", "admm_max_iters"])
def test_removed_admm_solver_keys_rejected(key):
    # the lasso block is solved exactly, so the ADMM weight and tolerances are
    # gone, and its step cap is a constant
    raw = custom_config()
    raw["solver"][key] = 1e-6
    with pytest.raises(ValueError, match=f"'{key}' was unexpected"):
        parse_run_config(raw)


def test_non_finite_solver_setting_rejected():
    # JSON NaN passes the schema's minimum; SolverConfig rejects it
    raw = custom_config()
    raw["solver"] = json.loads('{"rank": 1, "outer_tol": NaN}')
    with pytest.raises(ValueError, match="outer_tol must be finite"):
        parse_run_config(raw)


def test_hosvd_init_reaches_solver_config():
    raw = custom_config()
    raw["solver"]["init"] = "hosvd"
    assert parse_run_config(raw).solver.init == "hosvd"


def test_explicit_grid_points_are_used_and_checked():
    raw = custom_config()
    pts = [0.0, 0.1, 0.5, 1.7, 2.0]
    raw["grids"] = [{"points": pts}, {"equispaced": 4}]
    cfg = parse_run_config(raw)
    grids = cfg.build_grids((5, 4))
    assert np.array_equal(grids[0], pts)
    assert np.array_equal(grids[1], np.linspace(-1.0, 1.0, 4))
    with pytest.raises(ValueError, match="grid 0: config lists 5 points, tensor has 6"):
        cfg.build_grids((6, 4))


def test_domain_and_basis_counts_must_match():
    raw = custom_config()
    raw["domains"] = raw["domains"][:1]
    with pytest.raises(ValueError, match="1 domains but 2 bases"):
        parse_run_config(raw)


@pytest.mark.parametrize(
    "design, cls", [("product", ProductSimConfig), ("gp2d", Gp2dSimConfig)]
)
def test_sim_config_defaults_are_the_dataclass_defaults(tmp_path, design, cls):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"design": design, "seed": 9}))
    got_design, reps, sim_cfg = load_sim_config(path)
    assert (got_design, reps) == (design, 1)
    assert sim_cfg == cls(seed=9)


def test_sim_config_integral_floats_are_cast_to_field_types(tmp_path):
    # JSON Schema counts 40.0 as an integer, so it passes validation
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"design": "gp2d", "grid_size": 40.0, "n_test": 3.0}))
    _, _, sim_cfg = load_sim_config(path)
    assert sim_cfg == Gp2dSimConfig(grid_size=(40, 40), n_test=3)
    assert isinstance(sim_cfg.n_test, int) and isinstance(sim_cfg.grid_size[0], int)
