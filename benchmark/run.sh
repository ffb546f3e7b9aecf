#!/usr/bin/env bash
# Run the whole benchmark: all four workloads untraced, then traced.
# Writes benchmark/out/ and prints the one summary table.
#   benchmark/run.sh [--quick] [--seed S] [--seconds N] [--runs K]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fluctrace-benchmark"
out=benchmark/out
mkdir -p "$out"

for traced in 0 1; do
  kind=untraced; [ "$traced" = 1 ] && kind=traced
  "$bin" --out "$out" --save "$out/set_$kind.json" --trace "$traced" "$@" > "$out/$kind.log" 2>&1 \
    || { cat "$out/$kind.log"; exit 1; }
done
"$bin" --summary "$out/set_untraced.json" "$out/set_traced.json"
