#!/usr/bin/env bash
# Local CI gate. Mirrors what reviewers run before merging:
#
#   1. formatting      — cargo fmt --check over the whole workspace
#   2. lints           — clippy with warnings denied, all targets
#   3. project lints   — ppdc-analyzer over the whole workspace
#   4. tier-1 verify   — release build + full test suite
#   5. contracts       — solver tests with strict-invariants enabled
#
# The bench crate (ppdc-bench) is outside the workspace default-members,
# so steps 3's plain `cargo build`/`cargo test` skip it; clippy still
# covers it via --workspace so bench code cannot rot. Everything here is
# fully offline — all third-party dependencies are vendored stand-ins.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ppdc-analyzer --workspace (project-specific lints, baseline-capped, 10s budget)"
mkdir -p target
cargo build --release -q -p ppdc-analyzer
analyzer_start=$(date +%s%N)
./target/release/ppdc-analyzer --workspace \
    --json-out target/analyzer.json \
    --baseline analyzer-baseline.json
analyzer_elapsed_ms=$(( ($(date +%s%N) - analyzer_start) / 1000000 ))
echo "    analyzer wall clock: ${analyzer_elapsed_ms} ms (budget 10000 ms)"
if [ "$analyzer_elapsed_ms" -ge 10000 ]; then
    echo "ppdc-analyzer exceeded its 10s wall-clock budget" >&2
    exit 1
fi

echo "==> cargo build --release (tier-1, default members)"
cargo build --release

echo "==> cargo test -q (tier-1, default members)"
cargo test -q

echo "==> solver contracts (strict-invariants feature)"
cargo test -q --features strict-invariants -p ppdc-topology -p ppdc-placement -p ppdc-migration

echo "==> proptests at PROPTEST_CASES=256"
PROPTEST_CASES=256 cargo test -q --test proptests

# A second pass draws new cases on every run: the seed is mixed into each
# test's name hash. A failure prints the seed; rerun with the same
# PROPTEST_SEED to replay it.
proptest_seed="${PROPTEST_SEED:-$(date +%s)}"
echo "==> proptests under a rotating seed (PROPTEST_SEED=${proptest_seed})"
PROPTEST_SEED="$proptest_seed" cargo test -q --test proptests

echo "==> failure-sweep smoke (quick scale) with metrics export"
mkdir -p target
cargo run --release -p ppdc-experiments -- --quick failsweep --metrics target/ci-metrics.json > /dev/null

echo "==> metrics schema check (ppdc-obs/v1 phase keys)"
cargo run --release -p ppdc-experiments -- --check-metrics target/ci-metrics.json

# Wall-clock budgets sit at about 3x the medians measured on a 2-vCPU box:
# smoke-k32 3.6 s (3.57-3.63 s), stream day 6.5 s (6.1-6.6 s),
# stream --churned 4.8 s (4.6-4.9 s) with a warm re-solve mean of 25-27 ms.
echo "==> k=32 oracle smoke (1,280 switches, no dense matrix, 11s budget)"
cargo run --release -p ppdc-experiments -- smoke-k32 --budget-ms 11000

echo "==> chaos smoke (64 seeded trials: crashes, torn checkpoints, starvation)"
cargo run --release -p ppdc-experiments -- chaos --trials 64 --seed 1

echo "==> streaming-engine smoke (1M flows over the k=32 fabric, counter invariants)"
cargo run --release -p ppdc-experiments -- stream --flows 1000000 --budget-ms 15000

echo "==> churned-day stream smoke (hot-rack/two-pod/full-fabric spikes, warm-solver counters + budget)"
cargo run --release -p ppdc-experiments -- stream --churned --flows 1000000 --budget-ms 14500 --warm-ms 90

echo "==> bench smoke (oracle + placement + checkpoint + stream groups once, trajectory appended)"
rm -f target/ci-bench-samples.jsonl
PPDC_BENCH_ONLY=dp_placement,dp_placement_k32 \
    PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench placement
PPDC_BENCH_ONLY=distance_oracle \
    PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench topology
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench checkpoint
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench analyzer
PPDC_BENCH_ONLY=stream_ingest,stream_resolve \
    PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench stream
cargo run --release -p ppdc-experiments -- \
    --append-bench BENCH_placement.json \
    --bench-samples target/ci-bench-samples.jsonl \
    --label "$(git log -1 --format=%s)" \
    --date "$(date +%F)" \
    --note "Timings from the offline stopwatch criterion stand-in (vendor/criterion), min/median/mean ns per iteration. stream_resolve pits a cold (fresh-session) k=32 dp_placement_with_agg against dp_placement_warm re-solving on a reused session after hot-rack/two-pod/full-fabric churn; warm-vs-cold highlights are intra-run medians."

echo "CI OK"
