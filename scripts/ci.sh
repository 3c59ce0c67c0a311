#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Usage: scripts/ci.sh
#
# Mirrors what a hosted pipeline would run. Fails fast on the cheapest
# check first. Clippy warnings are errors so lints cannot accumulate.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Doc links are checked too: a link to a deleted item fails here.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Re-run the concurrency suites with an explicit worker count: the
# batched executor and sharded history store must behave identically
# whatever SEAMLESS_THREADS says.
echo "==> SEAMLESS_THREADS=2 cargo test -q -p seamless-core --test batch_equivalence --test history_stress"
SEAMLESS_THREADS=2 cargo test -q -p seamless-core --test batch_equivalence --test history_stress

# The chaos suite asserts seed-for-seed reproducible fault injection;
# running it at several worker counts proves fault decisions key off the
# global trial index, never the thread that happened to run the trial.
for threads in 1 2 8; do
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test fault_injection"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test fault_injection
done

echo "==> cargo build -q -p bench --bins --benches"
cargo build -q -p bench --bins --benches

# The end-to-end benchmark is its own workspace built against the
# crates' public API; building it here catches an API change that
# would break it.
echo "==> cargo build --release --manifest-path e2ebench/Cargo.toml"
CARGO_TARGET_DIR=.bench_build cargo build --release --manifest-path e2ebench/Cargo.toml

# Live-telemetry smoke: a chaos-heavy stune run with the flight
# recorder armed must leave Chrome-trace dumps behind, and every dump
# must replay through trace_summary (which parses the trace, rebuilds
# span nesting, and exits non-zero on a malformed file).
echo "==> chaos flight-recorder smoke (stune --chaos --flight-dump + trace_summary)"
flight_dir="$(mktemp -d)"
cargo run -q --bin stune -- tune --workload pagerank --scale tiny \
  --tuner random --budget 12 --batch 4 --chaos 7 \
  --flight-dump "$flight_dir" --sample 2
dumps=("$flight_dir"/flight_*.json)
[ -e "${dumps[0]}" ] || { echo "no flight dump written"; exit 1; }
for dump in "${dumps[@]}"; do
  summary="$(cargo run -q -p bench --bin trace_summary -- "$dump")"
  echo "$summary" | head -n 1
  echo "$summary" | grep -q "# Trace summary" \
    || { echo "trace_summary could not replay $dump"; exit 1; }
done
rm -rf "$flight_dir"

echo "CI OK"
