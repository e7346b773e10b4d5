#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/.
#
# Usage:
#   scripts/reproduce_all.sh           # quick mode (seconds per figure)
#   scripts/reproduce_all.sh --full    # paper-scale mode (minutes per figure)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
mkdir -p results

# Gate the reproduction on the tier-1 checks (build, tests, static
# analysis) so figures are never regenerated from a broken tree.
scripts/check.sh

BINS="fig1 table1 fig5 fig6 fig7 fig8 fig3 fig4 ablation_engines ablation_importance ablation_boundary extension_platforms"
for bin in $BINS; do
    echo "==> $bin $MODE"
    cargo run --release -p seal-bench --bin "$bin" -- $MODE 2>/dev/null | tee "results/$bin.txt"
done

# The serving view of the SE ratio: one open-loop run whose per-scheme
# throughput columns land in results/serve_open.json (check.sh already
# produced results/serve_smoke.json from the closed-loop preset, and
# results/chaos_smoke.json from the seeded fault-injection smoke).
echo "==> seal-serve open-loop $MODE"
if [ "$MODE" = "--full" ]; then
    cargo run --release -q -p seal-serve -- --mode open --requests 500 --rate 400 --out results/serve_open.json
else
    cargo run --release -q -p seal-serve -- --mode open --requests 100 --rate 400 --out results/serve_open.json
fi

# The network-serving view: weighted-fair multi-tenant TCP serving under
# the deterministic Pareto loadgen, the seeded network-fault chaos replay
# and the graceful-drain phases. check.sh already wrote
# results/serve_net.json at smoke scale (100,000 users, 2,000 requests);
# a --full reproduction reruns it at 300,000 users and 5,000 requests.
if [ "$MODE" = "--full" ]; then
    echo "==> seal-serve --net-smoke (300,000 users)"
    cargo run --release -q -p seal-serve -- --net-smoke --users 300000 --net-requests 5000 --out results/serve_net.json
fi

echo
echo "All outputs written to results/. Compare against EXPERIMENTS.md."
