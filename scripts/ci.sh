#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally with one command.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

# The equivalence contract: the determinism, fast-path and
# linearizability suites again at shards=4 and with every fast-path knob
# on (the CI test-matrix legs).
for leg in PRECURSOR_SHARDS=4 PRECURSOR_FAST=1; do
    echo "== equivalence suites ($leg) =="
    env "$leg" cargo test -p precursor -q \
        --test determinism --test fastpath --test linearizability
done

# The trajectory gate against the committed baseline. The bench runs from
# its package directory, so the baseline path must be absolute. It
# rewrites bench_results/BENCH_summary.json; the fresh document is kept as
# target/BENCH_summary.fresh.json and the committed one put back.
echo "== bench trajectory gate =="
mkdir -p target
cp bench_results/BENCH_summary.json target/BENCH_summary.baseline.json
restore_baseline() {
    if [ -f target/BENCH_summary.baseline.json ]; then
        cp bench_results/BENCH_summary.json target/BENCH_summary.fresh.json
        mv target/BENCH_summary.baseline.json bench_results/BENCH_summary.json
    fi
}
trap restore_baseline EXIT
PRECURSOR_BENCH_BASELINE="$PWD/bench_results/BENCH_summary.json" \
    cargo bench -p precursor-bench --bench bench_summary

echo "ci: all green"
