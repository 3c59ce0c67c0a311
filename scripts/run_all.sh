#!/usr/bin/env bash
# Regenerates every experiment in EXPERIMENTS.md.
# Text goes to results/<exp>.txt, structured data to results/<exp>.json.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p bench
mkdir -p results
for exp in table1 pipeline anatomy misconfig efficiency amortization \
           retune transfer slo joint colocation sensitivity tradeoff \
           ablation similarity whatif scheduler; do
  echo "== exp_$exp =="
  ./target/release/exp_$exp | tee results/exp_$exp.txt
  echo
done
# The paired quality sweep: one JSON line per seed and transfer arm,
# then each arm's BayesOpt rescore-path and pick-source sums.
echo "== service_sweep =="
./target/release/service_sweep --seeds 10 | tee results/service_sweep.jsonl
