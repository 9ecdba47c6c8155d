#!/usr/bin/env bash
# Builds the benchmark package and runs it. All arguments go to the binary:
#   run.sh [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
#   run.sh --agree [N]        two sets of N untraced runs must agree
#   run.sh --describe         print BENCHMARK.json from the metric tables
# Run from the repo root (the path of this script decides where the package
# and its out/ directory are; the working directory decides nothing else).
set -euo pipefail

bench_dir=$(dirname -- "${BASH_SOURCE[0]}")
target_dir=${CARGO_TARGET_DIR:-$bench_dir/target}

# The engine runs on its defaults: every TSUNAMI_* knob is unset.
for var in $(compgen -e | grep '^TSUNAMI_' || true); do
  unset "$var"
done

CARGO_TARGET_DIR=$target_dir cargo build --release --offline --quiet \
  --manifest-path "$bench_dir/Cargo.toml" >&2

BENCH_COMMIT=$(git -C "$bench_dir" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$target_dir/release/tsunami-benchmark" --out "$bench_dir/out" "$@"
