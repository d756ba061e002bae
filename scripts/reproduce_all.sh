#!/usr/bin/env bash
# Regenerates every table and figure of the paper (DESIGN.md §4) by
# running every bench bin. Results land in $STSL_RESULTS (default
# results/) as JSON + PPM; each bin's log is teed alongside.
#
# Usage:
#   scripts/reproduce_all.sh           # standard scale (~1 h on one core)
#   scripts/reproduce_all.sh --quick   # smoke run (a few minutes)
#   STSL_RESULTS=$(mktemp -d) scripts/reproduce_all.sh --quick
#                                      # leave committed results alone
set -euo pipefail
cd "$(dirname "$0")/.."
MODE="${1:-}"
RESULTS="${STSL_RESULTS:-results}"

cargo build --release -p stsl-bench --bins

run() {
  local bin="$1"
  echo "=== $bin $MODE ==="
  "./target/release/$bin" $MODE 2>&1 | tee "$RESULTS/$bin.log"
}

mkdir -p "$RESULTS"
run table1            # Table I — accuracy vs cut depth
run fig4              # Fig. 4 — activation capture triptychs
run leakage_sweep     # E3 — inversion leakage vs cut depth
run queue_sweep       # E4 — queueing & scheduling (§II)
run scale_sweep       # E5 — N=1 (Fig. 1) … N=16 (Fig. 2)
run comm_cost         # E6 — bytes vs FedAvg vs raw upload
run noise_ablation    # E7 — Gaussian defense trade-off
run ushaped_compare   # E8 — label-private U-shaped protocol
run pool_ablation     # E9 — max vs avg pooling privacy
run fault_sweep       # E10 — fault tolerance under injected failures
run corruption_sweep  # E11 — data-plane integrity under corruption
run telemetry_report  # E12 — deterministic observability export
run churn_sweep       # E13 — membership churn + overload control
run parallel_speedup  # E14 — backend and thread-pool speedup (timings)
run poison_sweep      # E15 — Byzantine clients vs robust aggregation
run fleet_sweep       # E16 — fleet scale, 1k–100k end-systems

echo "all experiments done; see $RESULTS/ and EXPERIMENTS.md"
