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

# Inference-plan trajectory (naive / blocked / planned / planned+fused
# timings; check.sh already wrote results/BENCH_infer.json, regenerated
# here so a --full reproduction reflects this machine's final numbers).
echo "==> bench_infer $MODE"
scripts/bench_infer.sh

# Quantized-inference trajectory (f32 vs per-mode int8 GEMM and the
# int8 lane repricing; check.sh already gated and wrote
# results/BENCH_quant.json, regenerated here for the same reason as
# bench_infer).
echo "==> bench_quant"
scripts/bench_quant.sh

# Counter-locality trajectory (batched pinned walk vs per-page probe,
# classic vs tuned lane geometry; check.sh already gated and wrote
# results/BENCH_counter.json, regenerated here for the same reason).
echo "==> bench_counter"
scripts/bench_counter.sh

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

# The network-serving view: weighted-fair multi-tenant TCP serving
# under the deterministic Pareto loadgen plus the seeded network-fault
# chaos replay, into results/BENCH_serve_net.json (check.sh already
# wrote results/serve_net.json from the same gate at smoke scale).
echo "==> bench_serve_net $MODE"
scripts/bench_serve_net.sh $MODE

echo
echo "All outputs written to results/. Compare against EXPERIMENTS.md."
