"""Run and simulation configurations loaded from JSON."""

import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

from mpbasis.basis import BSplineBasis, FourierBasis, penalty_matrix
from mpbasis.config import load_sim_config, parse_run_config
from mpbasis.selection import cv_lambda_grid, sweep_global_rank
from mpbasis.sim import Gp2dSimConfig, ProductSimConfig
from mpbasis.solver import SolverConfig

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
    # the config checker checks only the type of a solver setting; SolverConfig
    # rejects JSON NaN and names the setting
    raw = custom_config()
    raw["solver"] = json.loads('{"rank": 1, "outer_tol": NaN}')
    with pytest.raises(ValueError, match="outer_tol must be finite"):
        parse_run_config(raw)


@pytest.mark.parametrize("value", ["hosvd", "random", "svd", "x", None, True, 1, 3])
def test_removed_init_solver_key_rejected_by_name(value):
    # every start is random unit columns from the seed: the JSON key and the
    # SolverConfig setting are gone, and each refuses it by name whatever its
    # value, the two start names it once took included
    raw = custom_config()
    raw["solver"]["init"] = value
    with pytest.raises(ValueError, match="run config solver: 'init' was unexpected"):
        parse_run_config(raw)
    with pytest.raises(TypeError, match="'init'"):
        SolverConfig(rank=1, init=value)


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
    # 40.0 is an integral number, so it counts as an integer
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"design": "gp2d", "grid_size": 40.0, "n_test": 3.0}))
    _, _, sim_cfg = load_sim_config(path)
    assert sim_cfg == Gp2dSimConfig(grid_size=(40, 40), n_test=3)
    assert isinstance(sim_cfg.n_test, int) and isinstance(sim_cfg.grid_size[0], int)


# --- the checker's contract: mutated configs -------------------------------


def full_run_config():
    """A run config that sets every key."""
    return {
        "domains": [[0.0, 2.0], [-1.0, 1.0]],
        "bases": [
            {"kind": "bspline", "rank": 6, "degree": 2, "knots": KNOTS},
            {"kind": "fourier", "rank": 5, "period": 3.0},
        ],
        "penalty_orders": [2, 1],
        "grids": [{"points": [0.0, 0.5, 2.0]}, {"equispaced": 4}],
        "solver": {
            "rank": 2, "lambda_marginal": [0.1, 0.2], "lambda_coef": 0.01,
            "coef_penalty": "ridge", "max_outer_iters": 5, "outer_tol": 1e-6,
            "proximal_mu": 1e-8,
        },
        "seed": 3,
        "center": True,
        "selection": {
            "marginal_rank_candidates": [[4, 3], [8, 7]],
            "rank_grid": [1, 2],
            "lambda_grid": [[1e-6, 1e-6], [0, 1e-3]],
            "n_folds": 3,
        },
    }


BASE_CONFIGS = {
    "run": full_run_config,
    "product": lambda: {
        "design": "product", "replications": 2, "seed": 1, "n_dims": 2,
        "marginal_rank": 5, "true_rank": 3, "coef_sd": 0.3, "decay": 0.7,
        "noise_var": 0.5, "grid_size": 12, "n_subjects": 4, "redraw_coefs": False,
    },
    "gp2d": lambda: {
        "design": "gp2d", "replications": 1, "seed": 2, "ranks": [6, 5],
        "decay": 0.7, "grid_size": [10, 12], "n_train": 4, "n_test": 2,
    },
}


class _Drop:
    def __repr__(self):
        return "DROP"


DROP = _Drop()  # a row value that deletes the key


def mutated(base, path, value):
    doc = BASE_CONFIGS[base]()
    if not path:
        return value
    *head, last = path
    target = functools.reduce(operator.getitem, head, doc)
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


def parse(doc, tmp_path):
    """Parse ``doc`` as the loaders do: a run config, or a simulation config
    read from a file."""
    if isinstance(doc, dict) and "design" in doc:
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        return load_sim_config(path)
    return parse_run_config(doc)


def rows(base, path, *values):
    return [(base, path, v) for v in values]


NAN = float("nan")
INF = float("inf")

# refused by the JSON Schema checker and still refused; the one row that
# changed, a basis rank of 6.0, is test_integral_basis_rank_is_an_integer
REJECTED = [
    # run config: the document and its required keys
    *rows("run", (), [], "config", None, 3),
    *rows("run", ("mystery",), 1, None),
    *rows("run", ("domains",), DROP, [], "x", [[0.0, 1.0]], [[0.0], [0.0, 1.0]]),
    *rows("run", ("domains", 0), [0.0, 1.0, 2.0], ["a", 1.0], [True, 1.0], [None, 1.0], [2.0, 0.0]),
    *rows("run", ("bases",), DROP, [], "x", {}, [1, 2]),
    # basis specifications
    *rows("run", ("bases", 0), "bspline", None),
    *rows("run", ("bases", 0, "kind"), DROP, "spline", 3, None),
    *rows("run", ("bases", 0, "rank"), DROP, 0, -1, 2, "6", 6.5, True, None),
    *rows("run", ("bases", 0, "degree"), 0, "2", 2.5, None, False),
    *rows("run", ("bases", 0, "knots"), "x", None, [0.0, 2.0], ["a"] * 9, KNOTS[::-1]),
    *rows("run", ("bases", 0, "mystery"), 1),
    *rows("run", ("bases", 0, "domain"), [0.0, 2.0]),
    *rows("run", ("bases", 1, "rank"), 4, 0, "5", 5.5),
    *rows("run", ("bases", 1, "period"), 0, -1.0, "x", None),
    # penalty orders and grids
    *rows("run", ("penalty_orders",), "x", [2], [2, 1, 1], 2),
    *rows("run", ("penalty_orders", 0), 0, -1, "2", 1.5, True, None),
    *rows("run", ("grids",), "x", [{"equispaced": 4}], {}),
    *rows("run", ("grids", 0), 1, {}, {"mystery": 3}, {"equispaced": 3, "points": [0.0, 1.0, 2.0]}),
    *rows("run", ("grids", 1, "equispaced"), 1, 0, 2.5, "4", True, None),
    *rows("run", ("grids", 0, "points"), [], "x", ["a"], None, [0.0, True]),
    # solver
    *rows("run", ("solver",), DROP, "x", [], {}),
    *rows("run", ("solver", "rank"), DROP, 0, -1, "2", 2.5, True, None),
    *rows("run", ("solver", "lambda_marginal"), -1.0, "x", [0.1, -0.2], [0.1, "x"], None, True),
    *rows("run", ("solver", "lambda_coef"), -1.0, "x", None, INF),
    *rows("run", ("solver", "coef_penalty"), "elastic", 3, None),
    *rows("run", ("solver", "max_outer_iters"), 0, -1, 2.5, "5"),
    *rows("run", ("solver", "outer_tol"), 0, -1.0, "x", NAN, INF),
    *rows("run", ("solver", "proximal_mu"), -1.0, "x", NAN),
    *rows("run", ("solver", "init"), "svd", 1),
    *rows("run", ("solver", "seed"), 1),
    *rows("run", ("solver", "gamma"), 1.0),
    # seed and center
    *rows("run", ("seed",), -1, "3", 2.5, True, None),
    *rows("run", ("center",), 1, "true", None),
    # selection
    *rows("run", ("selection",), "x", [], {"folds": 3}),
    *rows(
        "run", ("selection", "marginal_rank_candidates"),
        [], "x", [[0, 3]], [["a", 3]], [[4.5, 3]], [4, 3],
    ),
    # the marginal- and global-rank rules read the noise estimate and take no threshold
    *rows("run", ("selection", "marginal_rank_threshold"), 0.9),
    *rows("run", ("selection", "rank_grid"), [], [0], "x", [1.5], [True]),
    *rows("run", ("selection", "rank_threshold"), 0.05, -1.0, "x"),
    *rows(
        "run", ("selection", "lambda_grid"),
        [], [[1e-6]], [[1e-6, 1e-6, 1e-6]], [[-1.0, 0.0]], [["a", 0.0]], "x", [1e-6, 1e-6],
    ),
    *rows("run", ("selection", "n_folds"), 1, 0, 2.5, "3", True),
    # simulation configs, both designs
    *rows("product", (), [], "x"),
    *rows("product", ("design",), DROP, "other", 3, None),
    *rows("product", ("mystery",), 1),
    *rows("product", ("replications",), 0, -1, "2", 1.5, True),
    *rows("product", ("seed",), -1, "1", 0.5),
    *rows("product", ("n_dims",), 0, "2", 2.5),
    *rows("product", ("marginal_rank",), 4, 0, "5"),
    *rows("product", ("true_rank",), 0, "3"),
    *rows("product", ("coef_sd",), 0, -1.0, "x"),
    *rows("product", ("decay",), 0, -0.5, None),
    *rows("product", ("noise_var",), -1.0, "x"),
    *rows("product", ("grid_size",), 1, 0, [12, 13], "12", [], 12.5, [1, 1]),
    *rows("product", ("n_subjects",), 0, "4"),
    *rows("product", ("redraw_coefs",), 1, "yes", None),
    *rows("gp2d", ("ranks",), [3, 5], [6], [6, 5, 4], "x", [6, 5.5], 6),
    *rows("gp2d", ("decay",), 0, "x"),
    *rows("gp2d", ("grid_size",), 1, [10], [10, 1], [10, 12, 14], "10"),
    *rows("gp2d", ("n_train",), 0, "4"),
    *rows("gp2d", ("n_test",), -1, 1.5, "2"),
    *rows("gp2d", ("mystery",), 1),
]

# accepted by the JSON Schema checker and refused now: a key of the other
# basis kind or simulation design was dropped silently, and NaN passed the
# schema's range checks
NEWLY_REJECTED = [
    *rows("run", ("bases", 1, "degree"), 3),
    *rows("run", ("bases", 1, "knots"), KNOTS),
    *rows("run", ("bases", 0, "period"), 2.0),
    *rows("run", ("solver", "lambda_marginal"), NAN, [0.1, NAN]),
    *rows("run", ("selection", "rank_threshold"), NAN),
    *rows("run", ("selection", "lambda_grid"), [[NAN, 0.0]]),
    *rows("product", ("ranks",), [6, 5]),
    *rows("product", ("n_train",), 4),
    *rows("product", ("n_test",), 2),
    *rows("gp2d", ("noise_var",), 0.5),
    *rows("gp2d", ("n_dims",), 2),
    *rows("gp2d", ("coef_sd",), 0.3),
    *rows("gp2d", ("redraw_coefs",), True),
]


# accepted before the constructors checked finiteness: NaN fails every range
# comparison, and an infinite domain endpoint, period or setting passed them
NON_FINITE_REJECTED = [
    (("run", ("domains", 0), [0.0, INF]), "finite endpoints"),
    (("run", ("domains", 1), [-INF, 1.0]), "finite endpoints"),
    (("run", ("bases", 1, "period"), NAN), "period must be finite"),
    (("run", ("bases", 1, "period"), INF), "period must be finite"),
    (("run", ("bases", 0, "knots"), [*KNOTS[:3], NAN, *KNOTS[4:]]), "nondecreasing"),
    *[((base, (key,), v), key) for base, key in (
        ("product", "coef_sd"), ("product", "decay"), ("product", "noise_var"), ("gp2d", "decay"),
    ) for v in (NAN, INF)],
]


def _row_id(row):
    base, path, value = row
    return f"{base}:{'.'.join(map(str, path)) or 'document'}={value!r}"


@pytest.mark.parametrize("row", REJECTED, ids=[_row_id(r) for r in REJECTED])
def test_mutated_config_rejected(tmp_path, row):
    with pytest.raises(ValueError):
        parse(mutated(*row), tmp_path)


@pytest.mark.parametrize("row", NEWLY_REJECTED, ids=[_row_id(r) for r in NEWLY_REJECTED])
def test_newly_rejected_config_names_the_key(tmp_path, row):
    with pytest.raises(ValueError, match=row[1][-1]):
        parse(mutated(*row), tmp_path)


@pytest.mark.parametrize(
    "row, match", NON_FINITE_REJECTED, ids=[_row_id(r) for r, _ in NON_FINITE_REJECTED]
)
def test_non_finite_config_value_rejected(tmp_path, row, match):
    with pytest.raises(ValueError, match=match):
        parse(mutated(*row), tmp_path)


@pytest.mark.parametrize("order", [0, -1, 0.0])
def test_penalty_order_below_one_is_refused_at_parse_time(order):
    raw = full_run_config()
    raw["penalty_orders"] = [2, order]
    with pytest.raises(ValueError, match="'penalty_orders' is not a list of integers >= 1"):
        parse_run_config(raw)


def test_integral_basis_rank_is_an_integer():
    raw = full_run_config()
    raw["bases"][0]["rank"] = 6.0
    rank = parse_run_config(raw).bases[0].rank
    assert rank == 6 and isinstance(rank, int)


def test_integral_numbers_become_ints():
    raw = full_run_config()
    raw["solver"].update(rank=2.0, max_outer_iters=5.0)
    raw["selection"].update(n_folds=3.0, rank_grid=[1.0, 2.0])
    raw["grids"][1]["equispaced"] = 4.0
    raw["penalty_orders"] = [2.0, 1.0]
    raw["seed"] = 3.0
    cfg = parse_run_config(raw)
    ints = [
        cfg.solver.rank, cfg.solver.max_outer_iters, cfg.selection["n_folds"],
        *cfg.selection["rank_grid"], cfg.grid_specs[1]["equispaced"], *cfg.penalty_orders,
        cfg.solver.seed,
    ]
    assert ints == [2, 5, 3, 1, 2, 4, 2, 1, 3]
    assert all(type(v) is int for v in ints)


@pytest.mark.parametrize(
    "make, name, whole",
    [
        (lambda v: penalty_matrix(BSplineBasis((0.0, 1.0), 6), v), "penalty order", 2),
        (lambda v: BSplineBasis((0.0, 1.0), v).rank, "rank", 6),
        (lambda v: BSplineBasis((0.0, 1.0), 6, degree=v).degree, "degree", 2),
        (lambda v: FourierBasis((0.0, 1.0), v).rank, "rank", 5),
        (lambda v: SolverConfig(rank=v).rank, "rank", 2),
        (lambda v: SolverConfig(rank=1, max_outer_iters=v).max_outer_iters, "max_outer_iters", 3),
    ],
    ids=["penalty_order", "bspline_rank", "bspline_degree", "fourier_rank", "solver_rank",
         "solver_max_outer_iters"],
)
def test_integer_settings_take_integral_numbers_and_refuse_others(make, name, whole):
    # the run config's rule, for callers of the Python API: 5.0 is 5, and a
    # non-integral value is refused by name instead of truncated or passed on
    got, ref = make(float(whole)), make(whole)
    if isinstance(ref, np.ndarray):
        assert np.array_equal(got, ref)
    else:
        assert got == whole and type(got) is int
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {whole + 0.5}")):
        make(whole + 0.5)


@pytest.mark.parametrize(
    "make, name, whole",
    [
        (lambda v: SolverConfig(rank=1, seed=v).seed, "seed", 2),
        (lambda v: ProductSimConfig(seed=v).seed, "seed", 2),
        (lambda v: ProductSimConfig(n_dims=v).n_dims, "n_dims", 2),
        (lambda v: ProductSimConfig(marginal_rank=v).marginal_rank, "marginal_rank", 7),
        (lambda v: ProductSimConfig(true_rank=v).true_rank, "true_rank", 3),
        (lambda v: ProductSimConfig(grid_size=v).grid_size, "grid_size", 8),
        (lambda v: ProductSimConfig(n_subjects=v).n_subjects, "n_subjects", 4),
        (lambda v: Gp2dSimConfig(seed=v).seed, "seed", 2),
        (lambda v: Gp2dSimConfig(ranks=(6, v)).ranks, "ranks", 5),
        (lambda v: Gp2dSimConfig(grid_size=(v, 9)).grid_size, "grid_size", 8),
        (lambda v: Gp2dSimConfig(n_train=v).n_train, "n_train", 4),
        (lambda v: Gp2dSimConfig(n_test=v).n_test, "n_test", 3),
        (lambda v: BSplineBasis((0.0, 1.0), 6).evaluate([0.3, 0.7], deriv=v), "deriv", 1),
        (lambda v: FourierBasis((0.0, 1.0), 5).evaluate([0.3, 0.7], deriv=v), "deriv", 1),
    ],
    ids=["solver_seed", "product_seed", "product_n_dims", "product_marginal_rank",
         "product_true_rank", "product_grid_size", "product_n_subjects", "gp2d_seed",
         "gp2d_ranks", "gp2d_grid_size", "gp2d_n_train", "gp2d_n_test", "bspline_deriv",
         "fourier_deriv"],
)
def test_seeds_simulation_sizes_and_derivative_orders_take_the_integer_rule(make, name, whole):
    # 2.0 is 2; 2.5 is refused by name instead of truncated, passed on or
    # failing later in numpy; a seed below 0 is refused by name too
    got, ref = make(float(whole)), make(whole)
    if isinstance(ref, np.ndarray):
        assert np.array_equal(got, ref)
    else:
        assert got == ref
        assert all(type(v) is int for v in (got if isinstance(got, tuple) else [got]))
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {whole + 0.5}")):
        make(whole + 0.5)
    if name == "seed":
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            make(-1)


@pytest.mark.parametrize("base", list(BASE_CONFIGS))
def test_unmutated_configs_parse(tmp_path, base):
    parse(BASE_CONFIGS[base](), tmp_path)


README_JSON = re.findall(
    r"```json\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S
)


def test_readme_documents_a_run_config_and_both_simulation_designs():
    designs = [json.loads(block).get("design") for block in README_JSON]
    assert designs == [None, "product", "gp2d"]


def test_readme_simulation_blocks_show_the_defaults(tmp_path):
    for block in README_JSON[1:]:
        _, reps, sim_cfg = parse(json.loads(block), tmp_path)
        assert reps == 1 and sim_cfg == type(sim_cfg)()


@pytest.mark.parametrize("block", README_JSON)
def test_readme_json_blocks_parse(tmp_path, block):
    parse(json.loads(block), tmp_path)


# a list or tuple given for a scalar integer setting used to be stored as a
# tuple, and the generator then failed with a TypeError that named no setting
SEQUENCE_FOR_SCALAR = [
    (lambda: ProductSimConfig(n_dims=(2,)), "n_dims must be an integer, got (2,)"),
    (lambda: ProductSimConfig(marginal_rank=[7]), "marginal_rank must be an integer, got [7]"),
    (lambda: ProductSimConfig(true_rank=[3]), "true_rank must be an integer, got [3]"),
    (lambda: ProductSimConfig(grid_size=[8, 9]), "one shared grid size"),
    (lambda: ProductSimConfig(n_subjects=[4]), "n_subjects must be an integer, got [4]"),
    (lambda: ProductSimConfig(seed=(1,)), "seed must be an integer, got (1,)"),
    (lambda: Gp2dSimConfig(n_train=[3]), "n_train must be an integer, got [3]"),
    (lambda: Gp2dSimConfig(n_test=(2,)), "n_test must be an integer, got (2,)"),
    (lambda: Gp2dSimConfig(seed=[1]), "seed must be an integer, got [1]"),
    (lambda: SolverConfig(rank=[2]), "rank must be an integer, got [2]"),
]


@pytest.mark.parametrize(
    "make, message", SEQUENCE_FOR_SCALAR,
    ids=["product_n_dims", "product_marginal_rank", "product_true_rank", "product_grid_size",
         "product_n_subjects", "product_seed", "gp2d_n_train", "gp2d_n_test", "gp2d_seed",
         "solver_rank"],
)
def test_a_sequence_for_a_scalar_integer_setting_is_refused_by_name(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"ranks": (10,), "grid_size": (20, 20), "n_train": 2, "n_test": 1}, "ranks"),
        ({"ranks": (6, 5, 4)}, "ranks"),
        ({"ranks": 6}, "ranks"),
        ({"grid_size": (20,), "n_train": 2, "n_test": 1}, "grid_size"),
        ({"grid_size": [10, 12, 14]}, "grid_size"),
    ],
    ids=["ranks_one", "ranks_three", "ranks_scalar", "grid_size_one", "grid_size_three"],
)
def test_gp2d_ranks_and_grid_size_must_be_pairs(kwargs, name):
    # a single entry used to construct and fail in generate_gp2d_sample with
    # "not enough values to unpack", which named no setting
    message = f"{name} must be a pair of integers, got {kwargs[name]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Gp2dSimConfig(**kwargs)


def test_simulation_configs_own_their_grid_shapes():
    # an integer gp2d grid size is a square grid, and a product design's list
    # of equal sizes is one size, in the Python API as in a JSON config
    square = Gp2dSimConfig(grid_size=12.0)
    assert square == Gp2dSimConfig(grid_size=[12, 12]) and square.grid_size == (12, 12)
    assert all(type(v) is int for v in square.grid_size)
    assert ProductSimConfig(n_dims=2, grid_size=[8, 8.0]) == ProductSimConfig(n_dims=2, grid_size=8)
    with pytest.raises(ValueError, match=re.escape("grid_size must be >= 2, got (1, 1)")):
        Gp2dSimConfig(grid_size=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_dims": 3, "grid_size": [6, 6]}, "for each of the 3 dimensions, got [6, 6]"),
        ({"n_dims": 2, "grid_size": (6, 6, 6)}, "for each of the 2 dimensions, got (6, 6, 6)"),
        ({"grid_size": 1}, "grid_size must be >= 2, got 1"),
        ({"n_dims": 2, "grid_size": [1, 1.0]}, "grid_size must be >= 2, got 1"),
    ],
    ids=["list_too_short", "tuple_too_long", "one_point", "list_of_one_point"],
)
def test_product_grid_size_gives_one_size_of_at_least_two_per_dimension(kwargs, message):
    # a short list used to build a design of n_dims dimensions anyway, and
    # grid_size=1 a one-point design whose MISE is 0
    with pytest.raises(ValueError, match=re.escape(message)):
        ProductSimConfig(**kwargs)


def test_product_grid_size_list_is_checked_against_n_dims_in_json(tmp_path):
    doc = {**BASE_CONFIGS["product"](), "n_dims": 3, "grid_size": [12, 12]}
    with pytest.raises(ValueError, match=re.escape("grid_size must give one shared grid size")):
        parse(doc, tmp_path)
    doc["grid_size"] = [12, 12, 12.0]
    assert parse(doc, tmp_path)[2] == ProductSimConfig(**{
        **{k: v for k, v in doc.items() if k not in ("design", "replications")}, "grid_size": 12
    })


# --- the same refusals from the Python API ----------------------------------


def _selection_inputs():
    """A small sample for the selection calls: every refusal comes before a fit."""
    rng = np.random.default_rng(40)
    grids = [np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 7)]
    bases = [FourierBasis((0.0, 1.0), 5), FourierBasis((0.0, 1.0), 5)]
    return {
        "y": rng.standard_normal((8, 7, 4)), "grids": grids, "bases": bases,
        "penalty_orders": [2, 2], "config": SolverConfig(rank=1), "lambda_grid": [(0.0, 0.0)],
        "n_folds": 2,
    }


def api_setting(base, path):
    """The Python API call that sets what the JSON key at ``path`` of a ``base``
    config sets, as ``(constructor, other arguments, setting)``, or None where
    the key sets no setting (unknown keys, the other design's keys)."""
    if base == "run":
        solver = full_run_config()["solver"]
        if path == ("bases", 1, "period"):
            return (lambda **kw: FourierBasis((-1.0, 1.0), 5, **kw)), {}, "period"
        if path == ("selection", "rank_grid"):
            given = _selection_inputs()
            del given["lambda_grid"], given["n_folds"]
            return sweep_global_rank, given, "k_grid"
        if path in (("selection", "n_folds"), ("selection", "lambda_grid")):
            return cv_lambda_grid, _selection_inputs(), path[1]
        if path == ("seed",):  # the run config's seed is the solver's
            return SolverConfig, solver, "seed"
        if len(path) == 2 and path[0] == "solver" and path[1] in solver:
            return SolverConfig, solver, path[1]
        return None
    cls = {"product": ProductSimConfig, "gp2d": Gp2dSimConfig}[base]
    given = {k: v for k, v in BASE_CONFIGS[base]().items() if k not in ("design", "replications")}
    if len(path) != 1 or path[0] not in given:
        return None
    return cls, given, path[0]


_NOT_REAL = ["x", None, True, False, -1.0, NAN, INF, [0.5]]
_NOT_WEIGHTS = [
    "x", None, True, -1.0, NAN, [0.1, "x"], [0.1, None], [0.1, True], [0.1, -0.2], [0.1, NAN],
    [[0.1, 0.2]],
]
_NOT_INT = ["x", None, True, -1, 2.5, NAN, [2]]
_NOT_PAIR = ["x", None, True, [6, "x"], [6, None], [6, True], [6, 5.5], [6], [6, NAN]]
_NOT_NAME = ["x", None, True, 3]
_NOT_WEIGHT = ["x", None, True, -1.0, NAN]

# a bad weight in a CV grid is named by the SolverConfig setting it becomes
_NAMED_BY = {"lambda_grid": "lambda_grid|lambda_marginal|lambda_coef"}

# every value-level row of the tables above for a setting of SolverConfig, a
# simulation config, FourierBasis.period, sweep_global_rank's k_grid or
# cv_lambda_grid's n_folds and lambda_grid, and the rows each kind of setting
# takes: "x", None, booleans, a sign, NaN and a list where a scalar belongs
# (FourierBasis takes period=None as its default, one period over the domain)
API_PARITY = list({_row_id(r): r for r in [
    *[r for r in [*REJECTED, *NEWLY_REJECTED, *(r for r, _ in NON_FINITE_REJECTED)]
      if r[2] is not DROP and api_setting(r[0], r[1])
      and not (r[1][-1] == "period" and r[2] is None)],
    *[("run", ("solver", k), v) for k in ("lambda_coef", "outer_tol", "proximal_mu")
      for v in _NOT_REAL],
    *rows("run", ("bases", 1, "period"), *(v for v in _NOT_REAL if v is not None)),
    *rows("run", ("solver", "lambda_marginal"), *_NOT_WEIGHTS),
    *[("run", ("solver", k), v) for k in ("rank", "max_outer_iters") for v in _NOT_INT],
    *rows("run", ("seed",), *_NOT_INT),
    *rows("run", ("solver", "coef_penalty"), *_NOT_NAME),
    *[("product", (k,), v) for k in ("coef_sd", "decay", "noise_var") for v in _NOT_REAL],
    *[("product", (k,), v)
      for k in ("n_dims", "marginal_rank", "true_rank", "grid_size", "n_subjects", "seed")
      for v in _NOT_INT],
    *rows("gp2d", ("decay",), *_NOT_REAL),
    *[("gp2d", (k,), v) for k in ("n_train", "n_test", "seed") for v in _NOT_INT],
    *[("gp2d", (k,), v) for k in ("ranks", "grid_size") for v in _NOT_PAIR],
    *rows("run", ("selection", "n_folds"), *_NOT_INT),
    *rows("run", ("selection", "rank_grid"), *([v] for v in _NOT_INT)),
    *rows("run", ("selection", "lambda_grid"), *([[v, 0.0]] for v in _NOT_WEIGHT)),
    *rows("run", ("selection", "lambda_grid"), *([[0.0, 0.0], [0.0, v]] for v in _NOT_WEIGHT)),
]}.values())


@pytest.mark.parametrize("row", API_PARITY, ids=[_row_id(r) for r in API_PARITY])
def test_python_api_refuses_by_name_what_json_refuses(tmp_path, row):
    # strings, None and booleans used to pass the real-valued settings or fail
    # with a TypeError that named none
    base, path, value = row
    with pytest.raises(ValueError):
        parse(mutated(*row), tmp_path)
    make, given, name = api_setting(base, path)
    with pytest.raises(ValueError, match=_NAMED_BY.get(name, re.escape(name))):
        make(**{**given, name: value})


def test_python_api_takes_sequences_and_numpy_numbers():
    for weights in ((0.1, 0.2), np.array([0.1, 0.2]), [np.float32(0.5), 0], np.float64(0.1)):
        lam = SolverConfig(rank=2, lambda_marginal=weights).marginal_weights(2)
        assert np.array_equal(lam, np.broadcast_to(np.asarray(weights, dtype=float), 2))
    cfg = SolverConfig(
        rank=np.int64(2), lambda_coef=np.float32(0.5), outer_tol=np.float64(1e-6),
        proximal_mu=np.int32(0), max_outer_iters=np.int64(5),
    )
    assert (cfg.rank, cfg.lambda_coef, cfg.outer_tol, cfg.proximal_mu) == (2, 0.5, 1e-6, 0)
    # stored as Python floats: a np.float32 weight used to run the objective in float32
    assert [type(v) for v in (cfg.lambda_coef, cfg.outer_tol, cfg.proximal_mu)] == [float] * 3
    assert type(SolverConfig(rank=1, outer_tol=np.float32(1e-3)).outer_tol) is float
    period = FourierBasis((0.0, 1.0), 5, period=np.float32(2.0)).period
    assert period == 2.0 and type(period) is float
    assert ProductSimConfig(coef_sd=np.float64(0.3), noise_var=np.int64(0)) == ProductSimConfig(
        coef_sd=0.3, noise_var=0
    )
    assert Gp2dSimConfig(decay=np.float32(0.5)).decay == 0.5
    assert ProductSimConfig(redraw_coefs=np.True_).redraw_coefs is True
    square = ProductSimConfig(n_dims=2, grid_size=[12, 12])
    assert square == ProductSimConfig(n_dims=2, grid_size=12)
