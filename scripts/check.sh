#!/usr/bin/env bash
# The full gate: rustfmt, hermetic build, the whole workspace's tests (seal-analyze's
# call-graph passes among them), the ruler's tests, the lint fixtures,
# figure diffs, the serving smokes and clippy.
#
# Usage:
#   scripts/check.sh
#
# Everything here runs offline — the workspace has no external
# dependencies by design.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The ruler's own tests (metric names in step with BENCHMARK.json, a
# sweep checksum that sees every SimReport field). benchmark/ is a
# package of its own, outside the workspace, so the run above skips it.
echo "==> benchmark tests"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# The seal-analyze rules that became rustc/clippy lints, proven on their
# fixtures: every seeded line must be reported under its replacement lint
# and every accepted idiom must stay silent. `--cap-lints warn` turns the
# fixture's `unsafe_code` errors into reported lines, so the diff — not
# the exit status — is the gate.
echo "==> lint fixtures (crates/analyze/lint-fixtures/expected.txt)"
fixture_lines="$(CARGO_TARGET_DIR=target/lint-fixtures cargo clippy --offline -q --all-targets \
    --message-format=short --manifest-path crates/analyze/lint-fixtures/Cargo.toml \
    -- --cap-lints warn 2>&1 | grep '^src/' | LC_ALL=C sort -u || true)"
if ! diff -u crates/analyze/lint-fixtures/expected.txt <(printf '%s\n' "$fixture_lines"); then
    echo "check: a lint no longer reports its fixture (or a fixture changed without expected.txt)"
    exit 1
fi
echo "check: lint fixtures report every seed  ok"

# Determinism suite: the parallel kernels must produce bitwise-identical
# results for any thread count (in-process pools and SEAL_THREADS
# subprocesses) and 0 ULP vs the naive reference loops.
echo "==> determinism suite (SEAL_THREADS in {1,2,7})"
cargo test --release -q -p seal-bench --test determinism

# Deterministic paper figures: regenerate each quick-mode figure file
# (~1.5 s for all seven) and fail on any byte that differs from the
# committed results/ copy, so a figure can never go stale silently.
# fig3, fig4, ablation_importance and ablation_boundary are not here:
# they are the training-path artifacts ROADMAP item 6 regenerates.
echo "==> figure files byte-identical to results/"
FIGS="fig1 fig5 fig6 fig7 fig8 ablation_engines table1 extension_platforms"
fig_tmp="$(mktemp -d)"
trap 'rm -rf "$fig_tmp"' EXIT
for fig in $FIGS; do
    cargo run --release -q -p seal-bench --bin "$fig" 2>/dev/null > "$fig_tmp/$fig.txt"
    if ! diff -u "results/$fig.txt" "$fig_tmp/$fig.txt"; then
        echo "check: results/$fig.txt is stale (regenerate: scripts/reproduce_all.sh)"
        exit 1
    fi
done
echo "check: $FIGS byte-identical  ok"

# Serving smoke run: ~100 closed-loop requests against the reduced
# VGG-16; the binary exits non-zero if latency percentiles are
# disordered, throughput is zero, the encryption-scheme throughput
# ordering (Baseline > SEAL-C > Counter) breaks, an encrypting lane's
# counter cache runs cold (hit rate < 0.5) or the Counter lane regresses
# to the pre-overhaul 4.238x slowdown (`ServeReport::smoke_violations`).
echo "==> seal-serve --smoke"
cargo run --release -q -p seal-serve -- --smoke

# Chaos suite: the seeded fault-injection tests (MAC-detected tampers,
# counter-cache corruption, worker panics) plus the end-to-end chaos
# smoke — two identically-seeded runs must stay live (every request
# completes or is shed with a typed error), detect every tamper, and
# report identical fault/recovery counts into results/chaos_smoke.json.
echo "==> seal-faults chaos tests"
cargo test --release -q -p seal-faults
cargo test --release -q -p seal-serve --test chaos_smoke
echo "==> seal-serve --chaos"
cargo run --release -q -p seal-serve -- --chaos

# Network serving smoke: the seal-net epoll front-end serves 8
# skew-weighted tenants (per-tenant AES keys, counter windows and
# compiled plans; deficit-round-robin admission) over real loopback TCP
# under a deterministic open-loop Pareto load of 1e5 distinct users,
# then replays the seeded byzantine-client fault schedule (malformed
# frames, truncations, slow-loris holds, disconnects, slow readers that
# trip write backpressure, pipeline over-runs past the in-flight cap,
# connect storms) twice, then exercises graceful drain twice
# (GOAWAY-per-client, typed rejects for everything accepted after the
# drain begins — the zero-silent-drops contract). Fails on a Jain
# fairness index < 0.9, any typed fault-ledger mismatch, a dropped or
# unanswered request across the drain, or cross-run nondeterminism; the
# artifact lands in results/serve_net.json.
echo "==> seal-serve --net-smoke"
cargo run --release -q -p seal-serve -- --net-smoke

# Clippy is optional tooling: run it when the component is installed,
# skip silently in minimal toolchains.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy (not installed, skipped)"
fi

echo
echo "check.sh: all gates passed."
