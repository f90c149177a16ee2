#!/usr/bin/env bash
# Runs the installed `mpbasis` console script on a tiny product design:
# simulate -> fit -> fpca -> select (marginal-rank, global-rank, cv) -> verify -> info,
# plus a gp2d simulation on a square grid given by one size, a product simulation
# whose grid size is a list of one size per dimension, a fit whose B-spline takes
# the constructor's default degree, a seeded cv run, and `simulate --seed` runs of
# both designs that must write the same tensors as configs that give that seed.
# This passes both simulation designs, a run config with a selection block, and
# model and eigen headers through the entry point, and checks that importing
# the CLI does not import jsonschema. The fit's report must name one of the
# three stop reasons and a numeric noise estimate and hold exactly its nine
# keys, the fit must exit 4 exactly when it is the sweep cap, and its centered
# model file must keep the mean. The marginal-rank report must choose exactly one
# of its two candidates, and the global-rank report exactly one of its three
# ranks; a lasso copy of the run config must choose the same rank without the
# "no rank reached the noise level" warning; run configs that still set the
# removed `selection.rank_threshold` or `solver.init` must exit 2.
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
python -c 'import sys, mpbasis.cli; assert "jsonschema" not in sys.modules, "jsonschema imported"'
cat > sim.json <<'JSON'
{"design": "product", "replications": 1, "seed": 1, "n_dims": 2, "marginal_rank": 5,
 "true_rank": 2, "grid_size": 12, "n_subjects": 6}
JSON
cat > run.json <<'JSON'
{"domains": [[0.0, 1.0], [0.0, 1.0]],
 "bases": [{"kind": "fourier", "rank": 5}, {"kind": "bspline", "rank": 6, "degree": 3}],
 "grids": [{"equispaced": 12}, {"equispaced": 12.0}],
 "solver": {"rank": 2.0, "lambda_coef": 1e-8, "max_outer_iters": 30.0},
 "seed": 1, "center": true,
 "selection": {"marginal_rank_candidates": [[3, 4], [5, 6]],
               "rank_grid": [1, 2, 3], "lambda_grid": [[1e-8, 1e-8], [1e-4, 1e-4]], "n_folds": 2}}
JSON
cat > sim-list.json <<'JSON'
{"design": "product", "replications": 1, "seed": 1, "n_dims": 2, "marginal_rank": 5,
 "true_rank": 2, "grid_size": [12, 12], "n_subjects": 6}
JSON
cat > run-default-degree.json <<'JSON'
{"domains": [[0.0, 1.0], [0.0, 1.0]],
 "bases": [{"kind": "fourier", "rank": 5}, {"kind": "bspline", "rank": 6}],
 "solver": {"rank": 2, "lambda_coef": 1e-8, "max_outer_iters": 30}, "seed": 1, "center": true}
JSON
cat > gp2d.json <<'JSON'
{"design": "gp2d", "ranks": [5, 4], "grid_size": 12, "n_train": 3, "n_test": 1}
JSON
mpbasis simulate --config sim.json --out data
mpbasis simulate --config gp2d.json --out gp2d
mpbasis simulate --config sim-list.json --out data-list
cmp data/noisy_000.mpbt data-list/noisy_000.mpbt  # a list of equal sizes is that one size
sed 's/"seed": 1/"seed": 5/' sim.json > sim-seed5.json
sed 's/"design": "gp2d"/"design": "gp2d", "seed": 5/' gp2d.json > gp2d-seed5.json
mpbasis simulate --config sim.json --out data-flag5 --seed 5
mpbasis simulate --config sim-seed5.json --out data-seed5
cmp data-flag5/noisy_000.mpbt data-seed5/noisy_000.mpbt  # --seed 5 is a config seed of 5
mpbasis simulate --config gp2d.json --out gp2d-flag5 --seed 5
mpbasis simulate --config gp2d-seed5.json --out gp2d-seed5
cmp gp2d-flag5/train_000.mpbt gp2d-seed5/train_000.mpbt
if cmp -s data/noisy_000.mpbt data-seed5/noisy_000.mpbt; then
  echo "simulate --seed changed nothing" >&2; exit 1
fi
mpbasis verify gp2d/train_000.mpbt
code=0
mpbasis fit --config run.json --tensor data/noisy_000.mpbt --out fit || code=$?
python - "$code" <<'PY'
import json, sys
code, report = int(sys.argv[1]), json.load(open("fit/fit_report.json"))
reason, noise_var = report["stop_reason"], report["noise_var"]
keys = {"objective_trace", "iters", "converged", "stop_reason", "noise_var", "lasso_certified",
        "extrapolated", "residual_ratio", "elapsed_seconds"}
assert set(report) == keys, sorted(report)
assert reason in ("tolerance", "noise level", "sweep cap"), reason
assert isinstance(noise_var, float), noise_var
assert code == (4 if reason == "sweep cap" else 0), (code, reason)
print("fit stopped at the", reason, "and exited", code)
PY
mpbasis fit --config run-default-degree.json --tensor data/noisy_000.mpbt --out fit3 || [ $? -eq 4 ]
cmp fit/model.mpbm fit3/model.mpbm  # degree 3 is the B-spline default
mpbasis fpca --model fit/model.mpbm --out fpca
mpbasis select --config run.json --tensor data/noisy_000.mpbt --out sel --mode marginal-rank
mpbasis select --config run.json --tensor data/noisy_000.mpbt --out sel --mode global-rank
mpbasis select --config run.json --tensor data/noisy_000.mpbt --out sel --mode cv
mpbasis select --config run.json --tensor data/noisy_000.mpbt --out sel2 --mode cv --seed 2
sed 's/"lambda_coef": 1e-8,/"coef_penalty": "lasso", "lambda_coef": 1e-3,/' run.json > run-lasso.json
grep -q '"coef_penalty": "lasso"' run-lasso.json
mpbasis select --config run-lasso.json --tensor data/noisy_000.mpbt --out sel-lasso \
  --mode global-rank 2> lasso.err || { cat lasso.err >&2; exit 1; }
if grep -q "no rank reached the noise level" lasso.err; then
  cat lasso.err >&2; echo "the lasso rank path reached no noise level" >&2; exit 1
fi
test -s sel/selection_marginal_rank.csv && test -s sel/selection_global_rank.csv
python - <<'PY'
import csv
rows = list(csv.DictReader(open("sel/selection_marginal_rank.csv")))
assert len(rows) == 2 and [r["chosen"] for r in rows].count("1") == 1, rows
chosen = []
for path in ("sel/selection_global_rank.csv", "sel-lasso/selection_global_rank.csv"):
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 3 and [r["chosen"] for r in rows].count("1") == 1, rows
    chosen.append(next(r["rank"] for r in rows if r["chosen"] == "1"))
assert chosen[0] == chosen[1], chosen  # the lasso path chooses at the ridge noise level
PY
sed 's/"rank_grid": \[1, 2, 3\]/&, "rank_threshold": 0.05/' run.json > run-threshold.json
grep -q rank_threshold run-threshold.json
code=0
mpbasis select --config run-threshold.json --tensor data/noisy_000.mpbt --out sel3 \
  --mode global-rank || code=$?
[ "$code" -eq 2 ] || { echo "rank_threshold exited $code, expected 2" >&2; exit 1; }
sed 's/"max_outer_iters": 30.0/&, "init": "hosvd"/' run.json > run-init.json
grep -q '"init": "hosvd"' run-init.json
code=0
mpbasis fit --config run-init.json --tensor data/noisy_000.mpbt --out fit-init || code=$?
[ "$code" -eq 2 ] || { echo "solver.init exited $code, expected 2" >&2; exit 1; }
test -s sel/selection_cv.csv && test -s sel2/selection_cv.csv
mpbasis verify data/noisy_000.mpbt
mpbasis verify fit/model.mpbm
mpbasis verify fpca/eigen.mpbe --model fit/model.mpbm
mpbasis info fit/model.mpbm | tee info.json
python -c 'import json; info = json.load(open("info.json")); assert info["centered"] is True, info'
mpbasis info fpca/eigen.mpbe
echo "console script ok"
