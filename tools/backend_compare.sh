#!/usr/bin/env bash
# Per-family quality comparison across every registered shortcut backend.
#
# Runs `lcs_run --algo=shortcut --backend=<each>` over a pinned scenario
# subset (one representative per family in the golden matrix, seed 7,
# --no-timing) and prints one deterministic aligned table:
#
#   scenario      backend   congestion  block  dilation  rounds  messages
#
# A backend that declines a scenario (its applicability predicate — e.g.
# kkoi19 needs the ktree family's known width bound) gets a "-" row, so the
# table shape never depends on which constructions happen to apply. The
# table is a pure function of the binary: it is byte-pinned against
# tests/goldens/backend_compare.txt by the `backend_compare` ctest.
#
# Usage:
#   tools/backend_compare.sh <lcs_run-binary> [--check=GOLDEN]
#
# --check=F    diff the table against golden file F instead of printing it
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <lcs_run-binary> [--check=GOLDEN]" >&2
  exit 2
fi

LCS_RUN=$(realpath "$1")
shift
CHECK=""
for arg in "$@"; do
  case "$arg" in
    --check=*) CHECK=$(realpath "${arg#--check=}") ;;
    *) echo "backend_compare.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

# One representative per scenario family, small enough to keep the whole
# table under a second, large enough that the constructions differ.
SPECS=(
  "grid:w=16,h=16"
  "er:n=300,deg=6,seed=5"
  "ba:n=300,m=3,seed=4"
  "ktree:n=300,k=3,seed=8"
  "ktree:n=400,k=4,seed=3"
)
BACKENDS=(hiz16 kkoi19 naive)

# Pull the five quality numbers out of a report, scoped to the "result"
# object so scenario-level fields can never shadow them.
extract() {
  awk '
    /"result": \{/ { inres = 1 }
    inres && /\}/ { inres = 0 }
    inres {
      if (match($0, /"congestion": [0-9]+/))
        cong = substr($0, RSTART + 14, RLENGTH - 14)
      if (match($0, /"block_parameter": [0-9]+/))
        block = substr($0, RSTART + 19, RLENGTH - 19)
      if (match($0, /"dilation_estimate": [0-9]+/))
        dil = substr($0, RSTART + 21, RLENGTH - 21)
      if (match($0, /"rounds": [0-9]+/))
        rounds = substr($0, RSTART + 10, RLENGTH - 10)
      if (match($0, /"messages": [0-9]+/))
        msgs = substr($0, RSTART + 12, RLENGTH - 12)
    }
    END { print cong, block, dil, rounds, msgs }
  ' "$1"
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# render_table OUT — one full backend x scenario pass.
render_table() {
  local dest="$1"
  {
    printf '%-24s %-8s %10s %6s %9s %7s %9s\n' \
      scenario backend congestion block dilation rounds messages
    local spec be out errjson cong block dil rounds msgs
    for spec in "${SPECS[@]}"; do
      for be in "${BACKENDS[@]}"; do
        # A failing run leaves --out untouched and puts the JSON error
        # object on stdout, so capture stdout separately to tell
        # "inapplicable" from a real failure.
        out="$TMP/report.json"
        errjson="$TMP/stdout.json"
        if "$LCS_RUN" --algo=shortcut --scenario="$spec" --backend="$be" \
            --seed=7 --no-timing --out="$out" \
            >"$errjson" 2>/dev/null; then
          read -r cong block dil rounds msgs < <(extract "$out")
          printf '%-24s %-8s %10s %6s %9s %7s %9s\n' \
            "$spec" "$be" "$cong" "$block" "$dil" "$rounds" "$msgs"
        elif grep -q 'not applicable' "$errjson"; then
          printf '%-24s %-8s %10s %6s %9s %7s %9s\n' \
            "$spec" "$be" - - - - -
        else
          echo "backend_compare.sh: $be on '$spec' failed unexpectedly:" >&2
          cat "$errjson" >&2
          exit 1
        fi
      done
    done
  } > "$dest"
}

render_table "$TMP/table.txt"
if [[ -n "$CHECK" ]]; then
  # The whole table must reproduce the golden bit-for-bit.
  if ! diff -u "$CHECK" "$TMP/table.txt" >&2; then
    echo "backend_compare: table drifted from $CHECK" >&2
    echo "  (deliberate change? tools/backend_compare.sh <lcs_run> >" \
         "$CHECK)" >&2
    exit 1
  fi
  echo "backend_compare: table matches $(basename "$CHECK")"
else
  cat "$TMP/table.txt"
fi
