#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (the first run takes a
# few minutes) and runs one measurement. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 16 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
build=.bench_build
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp"
if [ ! -f "$build/Makefile" ]; then
  cmake -S benchmark -B "$build" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target irgnn_bench -j "$(nproc)" >&2
exec "$build/irgnn_bench" "$@"
