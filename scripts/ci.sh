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

# Re-run the concurrency suites at several worker counts: the batched
# executor and the history store must behave identically whatever
# SEAMLESS_THREADS says, including 8 workers on a smaller machine, where
# tenant and trial fan-out is oversubscribed and every nested model
# kernel runs inline on its worker.
for threads in 1 2 8; do
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test batch_equivalence --test history_stress"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test batch_equivalence --test history_stress
  # Proposals must not depend on the worker count: every strategy's
  # pinned proposal sequence replays whatever SEAMLESS_THREADS says.
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test proposal_pins"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test proposal_pins
  # History restore parses JSONL lines across workers; the root
  # property suite's round-trip and damage cases must hold at any count.
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q --test properties"
  SEAMLESS_THREADS="${threads}" cargo test -q --test properties
  # History restore deserializes dump lines straight into records on
  # workers: the restore pins, the registry counts a load leaves, and
  # every derive shape's round-trip must hold at any count.
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --lib history"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --lib history
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test serde_roundtrip --test history_restore_counters"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test serde_roundtrip --test history_restore_counters
  # BayesOpt's session pool: cached scores must equal a fresh fit's
  # predictions bit for bit whatever worker count the fit ran on.
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --lib tuner::bo"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --lib tuner::bo
done

# The chaos suite asserts seed-for-seed reproducible fault injection;
# running it at several worker counts proves fault decisions key off the
# global trial index, never the thread that happened to run the trial.
for threads in 1 2 8; do
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test fault_injection"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test fault_injection
done

echo "==> cargo build -q -p bench --bins --benches"
cargo build -q -p bench --bins --benches

# Every experiment is deterministic under its fixed seeds: regenerating
# results/ must reproduce the committed files byte for byte, with one
# worker and with the default count (a change that moves an output on
# purpose commits the regenerated files).
results_unchanged() {
  git diff --exit-code --stat -- results/ \
    || { echo "results/ did not regenerate byte for byte"; exit 1; }
}
echo "==> SEAMLESS_THREADS=1 bash scripts/run_all.sh, then git diff -- results/"
SEAMLESS_THREADS=1 bash scripts/run_all.sh > /dev/null
results_unchanged
echo "==> bash scripts/run_all.sh, then git diff -- results/"
bash scripts/run_all.sh > /dev/null
results_unchanged

# The paired quality sweep, one seed, so the tool keeps running: it
# must print one JSON line per transfer arm plus the two arm summaries.
echo "==> service_sweep smoke (1 seed)"
sweep="$(cargo run -q -p bench --bin service_sweep -- --seeds 1)"
[ "$(echo "$sweep" | grep -c '"tuned_vs_default"')" -eq 2 ] \
  || { echo "service_sweep printed no result for each arm"; exit 1; }

# The paired comparison of two sweeps (here the same one-seed sweep,
# saved twice): one result line per transfer arm.
echo "==> service_sweep --compare smoke (two 1-seed files)"
sweep_dir="$(mktemp -d)"
echo "$sweep" > "$sweep_dir/parent.jsonl"
echo "$sweep" > "$sweep_dir/change.jsonl"
compared="$(cargo run -q -p bench --bin service_sweep -- --compare \
  "$sweep_dir/parent.jsonl" "$sweep_dir/change.jsonl")"
rm -rf "$sweep_dir"
echo "$compared"
[ "$(echo "$compared" | grep -c '"pairs": 1,')" -eq 2 ] \
  || { echo "service_sweep --compare printed no result for each arm"; exit 1; }

# The end-to-end benchmark is its own workspace built against the
# crates' public API; building it here catches an API change that
# would break it.
# Building and running the benchmark rewrites e2ebench/Cargo.lock when
# the crates' dependencies have moved on since it was committed (a
# benchmark change refreshes it); restore it on exit, pass or fail, so
# a CI run leaves the tree as it found it.
lock_backup="$(mktemp)"
cp e2ebench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" e2ebench/Cargo.lock; rm -f "$lock_backup"' EXIT

echo "==> cargo build --release --manifest-path e2ebench/Cargo.toml"
CARGO_TARGET_DIR=.bench_build cargo build --release --manifest-path e2ebench/Cargo.toml

# End-to-end smoke runs: the minimum 8 passes of one workload each.
# The run checks outcome invariants and bitwise replay across passes
# itself and reports the verdict on its last line. batch_wave is the
# only workload that runs transfer at batch > 1; chaos_stream runs the
# same acquisition as tenant_stream under retries and censored trials.
for workload in tenant_stream batch_wave chaos_stream; do
  echo "==> e2ebench smoke (${workload}, seed 1, 8 passes)"
  smoke="$(python3 e2ebench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  echo "$smoke" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("e2ebench smoke run failed: correct=%r failed=%r" % (r.get("correct"), r.get("failed")))
'
done

# Live-telemetry smoke: a chaos-heavy stune run with the flight
# recorder armed must leave Chrome-trace dumps behind, and every dump
# must replay through trace_summary (which parses the trace, rebuilds
# span nesting, and exits non-zero on a malformed file).
echo "==> chaos flight-recorder smoke (stune --chaos --flight-dump + trace_summary)"
flight_dir="$(mktemp -d)"
cargo run -q --bin stune -- tune --workload pagerank --scale tiny \
  --tuner random --budget 12 --batch 4 --chaos 7 \
  --flight-dump "$flight_dir"
dumps=("$flight_dir"/flight_*.json)
[ -e "${dumps[0]}" ] || { echo "no flight dump written"; exit 1; }
for dump in "${dumps[@]}"; do
  summary="$(cargo run -q -p bench --bin trace_summary -- "$dump")"
  echo "$summary" | head -n 1
  echo "$summary" | grep -q "# Trace summary" \
    || { echo "trace_summary could not replay $dump"; exit 1; }
done
rm -rf "$flight_dir"

# The JSONL input path: the committed demo trace must replay too.
echo "==> demo JSONL replay (trace_summary results/demo_trace.jsonl)"
summary="$(cargo run -q -p bench --bin trace_summary -- results/demo_trace.jsonl)"
echo "$summary" | head -n 1
echo "$summary" | grep -q "# Trace summary" \
  || { echo "trace_summary could not replay results/demo_trace.jsonl"; exit 1; }

# A reader that stops early (`| head`) closes the pipe under the tool;
# it must end quietly with status 0, and pipefail fails this step if it
# panics instead.
echo "==> trace_summary into an early-closing reader (results/demo_trace.json | head -1)"
cargo run -q -p bench --bin trace_summary -- results/demo_trace.json | head -n 1

echo "CI OK"
