#!/usr/bin/env bash
# Regenerate every experiment in EXPERIMENTS.md and collect the output.
#
# Usage: scripts/run_experiments.sh [results-dir]
#
# The full paper-scale figure4 grid (1M ops, threads to 32, 10+10 runs)
# is sized for a 40-vCPU machine; the defaults here are scaled for small
# containers while preserving the grid shape. Override via FIGURE4_ARGS.

set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS_DIR="${1:-results}"
mkdir -p "$RESULTS_DIR"

FIGURE4_ARGS="${FIGURE4_ARGS:---ops 100000 --runs 2 --warmups 1 --threads 1,2,4,8 --csv $RESULTS_DIR/figure4.csv --json $RESULTS_DIR/figure4.json}"
# The contention-management sweep: one reduced figure4 grid per CM policy,
# on the cells where policies actually differ (write-heavy, contended).
CM_SWEEP_ARGS="${CM_SWEEP_ARGS:---ops 50000 --runs 2 --warmups 1 --threads 4,8 --cm all --csv $RESULTS_DIR/cm_sweep.csv --json $RESULTS_DIR/cm_sweep.json}"

echo "== building (release) =="
cargo build --release -p proust-bench --bins

echo "== static analysis (cargo xtask analyze) =="
cargo xtask analyze --report "$RESULTS_DIR/analysis.json" \
    | tee "$RESULTS_DIR/analysis.txt"

echo "== figure4 $FIGURE4_ARGS =="
cargo run --release -q -p proust-bench --bin figure4 -- $FIGURE4_ARGS \
    | tee "$RESULTS_DIR/figure4.txt"

echo "== cm sweep $CM_SWEEP_ARGS =="
cargo run --release -q -p proust-bench --bin figure4 -- $CM_SWEEP_ARGS \
    | tee "$RESULTS_DIR/cm_sweep.txt"

echo "== design_space =="
cargo run --release -q -p proust-bench --bin design_space -- \
    --json "$RESULTS_DIR/design_space.json" \
    | tee "$RESULTS_DIR/design_space.txt"

echo "== counter_bench =="
cargo run --release -q -p proust-bench --bin counter_bench -- \
    --json "$RESULTS_DIR/counter_bench.json" \
    | tee "$RESULTS_DIR/counter_bench.txt"

echo "== pqueue_bench =="
cargo run --release -q -p proust-bench --bin pqueue_bench -- \
    --json "$RESULTS_DIR/pqueue_bench.json" \
    | tee "$RESULTS_DIR/pqueue_bench.txt"

echo "== fifo_bench =="
cargo run --release -q -p proust-bench --bin fifo_bench -- \
    --json "$RESULTS_DIR/fifo_bench.json" \
    | tee "$RESULTS_DIR/fifo_bench.txt"

echo "== server sweep (proust-server + proust-loadgen) =="
# End-to-end through the wire: the networked server in the two headline
# design-space quadrants, driven closed-loop with zipfian skew and a
# MULTI share. Each run verifies the protocol and the INC expected-value
# invariant (loadgen exits non-zero on any anomaly); server.json carries
# client latency percentiles plus the server's own abort-cause breakdown.
SMOKE_SECS="${SERVER_SWEEP_SECS:-2}" scripts/server_smoke.sh "$RESULTS_DIR/server.json" -- \
    --lap optimistic --update lazy | tee "$RESULTS_DIR/server.txt"
SMOKE_SECS="${SERVER_SWEEP_SECS:-2}" scripts/server_smoke.sh "$RESULTS_DIR/server_pessimistic_eager.json" -- \
    --lap pessimistic --update eager | tee -a "$RESULTS_DIR/server.txt"

echo "All results (tables, CSV, and JSON reports) in $RESULTS_DIR/"
