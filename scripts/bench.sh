#!/usr/bin/env bash
# Performance benchmark pipeline for the surrogate hot path.
#
# Usage: scripts/bench.sh
#
# Runs the Criterion micro-benchmarks (models + obs, short smoke
# windows — see the `criterion_group!` configs) and then the
# machine-readable surrogate benchmark `BENCH_models.json`:
# fit/predict/propose latencies at n = 32/120/512 and the speedups of
# the parallel and cached fit paths over the sequential
# per-grid-point baseline.
#
# End-to-end service performance is measured by the benchmark declared
# in `BENCHMARK.json` (`python3 e2ebench/run.py --workload <w> ...`).
#
# `SEAMLESS_THREADS=<k>` overrides the worker count used by the
# parallel layer `models::par` (defaults to the machine's available
# parallelism). That layer parallelizes at one level: a model kernel
# fans out only when its estimated work reaches `PAR_WORK_CUTOFF`
# (2^21; a GP full refit crosses it at 68 points at d = 26), and runs
# inline when called from another `par` worker. So in
# `BENCH_models.json` the n = 32 fits run on one thread and the
# n = 120 / 512 cold fits on every worker.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo bench -p bench --bench models"
cargo bench -p bench --bench models

echo "==> cargo bench -p bench --bench obs"
cargo bench -p bench --bench obs

echo "==> cargo run --release -p bench --bin bench_models_json"
cargo run --release -p bench --bin bench_models_json

echo "BENCH OK (results in BENCH_models.json)"
