#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it:
#
#   bench/e2e/run.sh --workload mst-er --seed 1 --seconds 15 --trace 0
#
# The build lives in .bench_build/e2e at the repository root and its log
# goes to stderr, so stdout carries only the benchmark's own output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no library source at $root (CMakeLists.txt and src/ are missing)" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target lcs_bench -j "$jobs"
} 1>&2

cd "$root"
exec "$build/bin/lcs_bench" "$@"
