#!/usr/bin/env bash
# A/A harness: runs the whole suite in alternating sets A, B, A, B, … on
# one build, every run with its own seed, and prints per workload × metric
# both medians, their relative difference, the spread of all runs pooled
# (IQR ÷ median, as `statistics.quantiles(n=4)` gives the quartiles) and
# the bound from BENCHMARK.json. Its output for >= 5 sets is AA.md.
#
#   benchmark/aa.sh <sets per side> [seconds per run]
#   benchmark/aa.sh table        # print the table again from the last runs
set -euo pipefail

sets="${1:?usage: benchmark/aa.sh <sets per side> [seconds per run] | benchmark/aa.sh table}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="benchmark/out/aa"

# `aa.sh table` prints the table again from the runs already in out/aa,
# e.g. after a bound in BENCHMARK.json changed.
if [ "$sets" != table ]; then
  seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
  rm -rf "$out"
  mkdir -p "$out"
  echo "$sets $seconds" >"$out/shape"

  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
  bin="${CARGO_TARGET_DIR:-benchmark/target}/release/seal-benchmark"
  workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

  seed=0
  for set in $(seq 1 "$sets"); do
    for side in A B; do
      for workload in $workloads; do
        seed=$((seed + 1))
        # A run that fails verification exits non-zero; keep its line, it
        # shows as an incorrect run in the table.
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
          | tail -n 1 >>"$out/${side}_${workload}.jsonl" || true
        echo "set $set side $side $workload seed $seed done" >&2
      done
    done
  done
fi

read -r sets seconds <"$out/shape"
python3 - "$out" "$sets" "$seconds" <<'PY'
import json, statistics, sys, os, platform
out, sets, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
print(f"# A/A: {sets} alternating sets per side, {seconds} s runs, one build\n")
print(f"host: {os.cpu_count()} cores, {platform.machine()}, load {os.getloadavg()[0]:.2f} at the end\n")
print("`diff` is (B − A) ÷ A on the medians; `spread` is IQR ÷ median of all runs of both sides.")
print("A metric passes when |diff| and spread are both within its bound.\n")
print("| workload | metric | unit | median A | median B | diff | spread | bound | |")
print("|---|---|---|---:|---:|---:|---:|---:|---|")
worst = 0.0
for w in (x["name"] for x in spec["workloads"]):
    runs = {s: [json.loads(l) for l in open(f"{out}/{s}_{w}.jsonl")] for s in "AB"}
    bad = sum(not r["correct"] for s in "AB" for r in runs[s])
    ops = sum(r["attempted"] for s in "AB" for r in runs[s])
    failed = sum(r["failed"] for s in "AB" for r in runs[s])
    for m in spec["end_to_end"]:
        a, b = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        q = statistics.quantiles(a + b, n=4)
        spread = (q[2] - q[0]) / statistics.median(a + b)
        # setup_s is held to its bound on the medians only.
        ok = abs(diff) <= m["bound"] and (spread <= m["bound"] or m["name"] == "setup_s")
        worst = max(worst, abs(diff) / m["bound"])
        print(f"| {w} | {m['name']} | {m['unit']} | {ma:.6g} | {mb:.6g} | {diff:+.2%} | {spread:.2%} | {m['bound']:.1%} | {'ok' if ok else 'OVER'} |")
    print(f"| {w} | ops | count | | | | | | attempted {ops}, failed {failed}, incorrect runs {bad} |")
print(f"\nlargest |diff| ÷ bound: {worst:.2f}")
PY
