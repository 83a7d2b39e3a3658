#!/usr/bin/env bash
# bench_gate.sh — CI perf regression gate.
#
# Re-runs the reduced-size perf trajectory and fails the build when any
# spec's adaptive-controller decision latency, cold DP solve time
# (dpSolveSeconds) or fleet churn-script mutation latency
# (fleetRebalanceSeconds), or any served app's kernel time per data set
# (the kernels list), regresses more than 2x against the committed
# BENCH_solver.json baseline (with a 0.5ms absolute floor so sub-noise
# latencies never flake). The fresh report is written
# to BENCH_gate.json for upload as a CI artifact; the committed baseline
# is never modified.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${BASELINE:-BENCH_solver.json}
OUT=${OUT:-BENCH_gate.json}

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_gate: baseline $BASELINE not found" >&2
    exit 1
fi

go run ./cmd/benchrun -quick -out "$OUT" -gate "$BASELINE"
