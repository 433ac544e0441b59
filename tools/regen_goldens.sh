#!/usr/bin/env bash
# Deliberately regenerate the committed golden reports in tests/goldens/.
#
# Goldens pin the byte-exact lcs_run report for every (scenario, algorithm)
# cell of the golden matrix. They are allowed to change ONLY when a PR
# deliberately changes an edge stream, the report schema, or an algorithm's
# accounting — and then the regenerated goldens must land IN THE SAME PR,
# with the diff reviewed (see "Golden regeneration policy" in
# src/scenario/README.md). Never hand-edit a golden.
#
# Usage:
#   tools/regen_goldens.sh [build-dir]     (default: ./build)
#
# Configures the given build directory if it has no CMakeCache.txt and
# always builds lcs_run there (a no-op when it is up to date, so goldens
# are never regenerated by a binary older than the source), then runs the
# full golden matrix in --update mode. Afterwards, review with
# `git diff tests/goldens/` and re-run the matrix (ctest -R golden_matrix)
# to confirm it is green.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build"}

if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
  echo "regen_goldens: configuring $BUILD" >&2
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
fi
cmake --build "$BUILD" --target lcs_run -j"$(nproc)" >/dev/null

"$ROOT/tools/golden_smoke.sh" "$BUILD/lcs_run" "$ROOT/tests/goldens" --update
echo "regen_goldens: review with 'git diff $ROOT/tests/goldens' before committing"
