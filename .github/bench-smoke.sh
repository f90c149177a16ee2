#!/usr/bin/env bash
# Short runs of every benchmark workload, and traced runs of a ridge and a
# lasso workload; fails unless the result line reports every op's output
# checks as passed. Run from anywhere: `bash .github/bench-smoke.sh`.
#
# `check FLAGS RUN_ARGS...` runs one workload; FLAGS is a space-separated
# list of the extra checks below, which read per-layer metrics and so are
# given to traced runs only (an empty FLAGS checks the result line alone):
# LASSO_EXACT: also require every lasso coefficient block certified
# optimal (converged ratio 1), no step-cap warning, no MTTKRP at all
# (the sweep forms the lasso block's, and held-out subjects are
# projected in compressed coordinates), no basis evaluation at all
# (after the warm-up op every marginal's set-up is in the memo), and
# no time in solver.sylvester_solve, which the sweep never calls.
# RIDGE_STEPS: require the sweep's grid and ridge block steps
# (solver.update_factor, solver.update_b_ridge) to take time, which
# they do only when the sweep calls them, and solver.sylvester_solve
# to take none; checked on both ridge workloads
# SHARED_SETUP: no basis evaluation per op: the fit's set-up and the
# model's reconstruction read the set-up memo, which the warm-up op filled
set -euo pipefail
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
check() {
  local flags=$1
  shift
  python3 perfbench/run.py "$@" > "$work/bench.txt"
  tail -n 1 "$work/bench.txt" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
flags = sys.argv[1].split()
print(sys.argv[2:], flags, "correct", r["correct"], "failed", r["failed"], "of", r["attempted"])
ok = r["correct"] is True and r["failed"] == 0
m = {k: v["value"] for k, v in r["metrics"].items()}
if "LASSO_EXACT" in flags:
    conv, caps = m["solver.admm_converged_ratio"], m["solver.admm_cap_warnings"]
    calls, evals = m["tensors.mttkrp_calls"], m["basis.evaluate_calls"]
    sylvester = m["solver.sylvester_solve_s"]
    print("admm_converged_ratio", conv, "admm_cap_warnings", caps,
          "mttkrp_calls", calls, "evaluate_calls", evals, "sylvester_solve_s", sylvester)
    ok = ok and conv == 1 and caps == 0 and calls == 0 and evals == 0 and sylvester == 0
if "RIDGE_STEPS" in flags:
    factor, ridge = m["solver.update_factor_s"], m["solver.update_b_ridge_s"]
    sylvester = m["solver.sylvester_solve_s"]
    print("update_factor_s", factor, "update_b_ridge_s", ridge, "sylvester_solve_s", sylvester)
    ok = ok and factor > 0 and ridge > 0 and sylvester == 0
if "SHARED_SETUP" in flags:
    evals = m["basis.evaluate_calls"]
    print("evaluate_calls", evals)
    ok = ok and evals == 0
sys.exit(0 if ok else 1)
' "$flags" "$@"
}
for w in product3d gp2d cv_lasso; do
  check "" --workload "$w" --seed 1 --seconds 4 --trace 0
done
check "RIDGE_STEPS SHARED_SETUP" --workload product3d --seed 1 --seconds 4 --trace 1
check RIDGE_STEPS --workload gp2d --seed 1 --seconds 4 --trace 1
check LASSO_EXACT --workload cv_lasso --seed 1 --seconds 4 --trace 1
echo "bench smoke ok"
