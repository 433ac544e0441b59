#!/usr/bin/env bash
# The one-command static-analysis gate, run as-is by the CI static-analysis
# job and locally:
#
#   1. lcs_lint over src/ tools/ tests/ (determinism & safety rules);
#   2. clang-tidy (profile in .clang-tidy) over compile_commands.json —
#      skipped with a notice when clang-tidy is not installed;
#   3. a -DLCS_WERROR=ON build (-Wall -Wextra -Wconversion -Werror) of
#      everything: library, tools, tests, benches, examples.
#
# Usage: tools/lint_all.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
FAILED=0

# --- 1. lcs_lint -----------------------------------------------------------
if [[ ! -x "$BUILD_DIR/lcs_lint" ]]; then
  echo "lint_all: building lcs_lint in $BUILD_DIR ..."
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target lcs_lint >/dev/null
fi
echo "lint_all: [1/3] lcs_lint src tools tests"
"$BUILD_DIR/lcs_lint" src tools tests || FAILED=1

# --- 2. clang-tidy ---------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
    cmake -B "$BUILD_DIR" -S . >/dev/null  # exports compile commands
  fi
  echo "lint_all: [2/3] clang-tidy (profile: .clang-tidy)"
  # Sources only; headers are covered via HeaderFilterRegex.
  mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cpp' 'tools/*.cpp')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "${TIDY_SOURCES[@]}" || FAILED=1
  else
    clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_SOURCES[@]}" || FAILED=1
  fi
else
  echo "lint_all: [2/3] clang-tidy not installed — skipping (CI runs it)"
fi

# --- 3. -Werror build ------------------------------------------------------
echo "lint_all: [3/3] -DLCS_WERROR=ON build (library, tools, tests, benches, examples)"
cmake -B "$BUILD_DIR-werror" -S . -DLCS_WERROR=ON >/dev/null
cmake --build "$BUILD_DIR-werror" -j"$(nproc)" || FAILED=1

if [[ "$FAILED" -ne 0 ]]; then
  echo "lint_all: FAILED"
  exit 1
fi
echo "lint_all: all gates clean"
