#!/usr/bin/env bash
# Builds heracles_bench (Release, in benchmark/build) and runs it.
# Every argument goes to heracles_bench; see README.md, e.g.
#
#   benchmark/run.sh                          # all workloads, 3 reps
#   benchmark/run.sh --workload pod_128 --trace 1
#   benchmark/run.sh --check                  # plus the golden gate
#
# Build output goes to benchmark/build/build.log and is shown only when
# the build fails, so the last line of stdout stays the JSON
# summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
mkdir -p "$build"
log="$build/build.log"

if ! {
    if [ ! -f "$build/CMakeCache.txt" ]; then
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" -j "$(nproc)" --target heracles_bench
} >"$log" 2>&1; then
    cat "$log" >&2
    echo "benchmark build failed" >&2
    exit 1
fi

exec "$build/heracles_bench" "$@"
