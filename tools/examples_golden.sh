#!/usr/bin/env bash
# Example-output gate: every example program prints a deterministic table
# of integers (rounds, phases, weights, counts), so its stdout is pinned
# byte for byte against a committed golden. A change to the engine, the
# shortcut pipeline or an app that moves any simulated round, message or
# result shows up here even where no lcs_run golden covers it.
#
# Usage:
#   tools/examples_golden.sh <build-dir> <golden-dir>
#
# <golden-dir> holds one <example>.txt per example (tests/goldens/examples).
# Registered as the `examples_golden` ctest when both the tests and the
# examples are built.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <golden-dir>" >&2
  exit 2
fi

build="$1"
goldens="$2"
examples=(quickstart components_demo mst_planar mincut_demo lower_bound_demo)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failures=0
for name in "${examples[@]}"; do
  out="$tmp/$name.txt"
  if ! "$build/$name" >"$out"; then
    echo "FAIL $name: exited nonzero" >&2
    failures=$((failures + 1))
    continue
  fi
  golden="$goldens/$name.txt"
  if ! diff -u "$golden" "$out" >&2; then
    echo "FAIL $name: stdout differs from $golden" >&2
    failures=$((failures + 1))
  else
    echo "ok   $name"
  fi
done

if [[ "$failures" -ne 0 ]]; then
  echo "examples_golden: $failures failure(s)" >&2
  exit 1
fi
echo "examples_golden: every example printed its golden"
