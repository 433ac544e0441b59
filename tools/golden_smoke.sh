#!/usr/bin/env bash
# End-to-end determinism regression gate.
#
# Runs `lcs_run` over a scenario x algorithm matrix (every algorithm on
# every spec, including the four new families and a binary `file:` corpus),
# with --validate (CONGEST checks on + centralized-oracle verification) and
# --no-timing (byte-stable reports), and diffs each report byte-for-byte
# against the committed golden in tests/goldens/ — any drift in
# round/message accounting, shortcut quality, graph generation, or report
# formatting fails the gate. One cell also runs at --threads=4: the flag is
# still accepted and must not move a byte.
#
# The matrix also pins one `--sweep` invocation (a JSON array of per-point
# reports), so the sweep plumbing is under the same byte-exact gate, and
# one `--metrics` report (the graph's diameter bound and the largest part
# diameter, the only report path into `max_part_diameter`).
#
# Usage:
#   tools/golden_smoke.sh <lcs_run-binary> <goldens-dir> [--update]
#
# --update regenerates the goldens from the current binary (review the diff
# before committing); `tools/regen_goldens.sh` wraps this for the common
# case. Registered as the `golden_matrix` ctest and run in CI.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <lcs_run-binary> <goldens-dir> [--update]" >&2
  exit 2
fi

LCS_RUN=$(realpath "$1")
GOLDENS=$(realpath "$2")
UPDATE=${3:-}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"  # file: specs use a relative path so reports are location-free

# Build the corpus for the file: scenario the way a user would: generate
# once, cache as a versioned binary.
"$LCS_RUN" --algo=shortcut --scenario="ktree:n=120,k=3,seed=8" \
  --no-timing --save-graph=corpus.bin --out=/dev/null

fail=0
cells=0

# cell <report> <golden> <lcs_run args...>: run one report at --seed=7
# --validate --no-timing into $TMP/<report> and diff it against
# <golden> in the goldens dir. --update copies it there instead when
# <report> is <golden>; a report pinned to another cell's golden (the
# --threads=4 run) is diffed against the regenerated one.
cell() {
  local report=$1 golden=$2
  shift 2
  cells=$((cells + 1))
  if ! "$LCS_RUN" "$@" --seed=7 --validate --no-timing \
      --out="$TMP/$report"; then
    echo "FAIL: $report: lcs_run exited nonzero (validation or runtime" \
         "error)" >&2
    fail=1
  elif [[ "$UPDATE" == "--update" && "$report" == "$golden" ]]; then
    mkdir -p "$GOLDENS"
    cp "$TMP/$report" "$GOLDENS/$golden"
  elif ! diff -u "$GOLDENS/$golden" "$TMP/$report" >&2; then
    echo "FAIL: $report drifted from the committed golden $golden" >&2
    echo "      (deliberate edge-stream/schema change? regenerate ALL" >&2
    echo "      goldens in the same PR: tools/regen_goldens.sh)" >&2
    fail=1
  fi
}

NAMES=()
SPECS=()
add() { NAMES+=("$1"); SPECS+=("$2"); }
add grid16   "grid:w=16,h=16"
add torus12  "torus:w=12,h=12"
add er300    "er:n=300,deg=6,seed=5"
add maze16   "maze:w=16,h=16,keep=0.3,seed=9"
add wheel257 "wheel:n=257,arcs=8"
add lb8      "lb:paths=8"
add rmat8    "rmat:scale=8,deg=6,seed=3"
add ba300    "ba:n=300,m=3,seed=4"
add rreg256  "rreg:n=256,d=4,seed=6"
add ktree300 "ktree:n=300,k=3,seed=8"
add corpus   "file:corpus.bin"

ALGOS=(components mst mincut aggregate shortcut)

for i in "${!NAMES[@]}"; do
  for algo in "${ALGOS[@]}"; do
    cell "${NAMES[$i]}.$algo.json" "${NAMES[$i]}.$algo.json" \
      --algo="$algo" --scenario="${SPECS[$i]}"
  done
done

# `--threads` is accepted (>= 0) and selects nothing: one cell at
# --threads=4 must still match its golden byte for byte.
cell grid16.mst.t4.json grid16.mst.json \
  --algo=mst --scenario="grid:w=16,h=16" --threads=4

# Backend cells: the same byte-exact gate over the non-default shortcut
# constructions (--backend). One ktree scenario, every registered backend —
# kkoi19 (treewidth elimination tree) is only applicable there. Besides
# pinning the reports, this section asserts the quality claim the backends
# exist for: kkoi19's congestion on this cell is STRICTLY below hiz16's
# (the elimination tree keeps every part's Steiner subtree narrow).
for be in hiz16 kkoi19 naive; do
  cell "ktree400.$be.json" "ktree400.$be.json" \
    --algo=shortcut --scenario="ktree:n=400,k=4,seed=3" --backend="$be"
done

congestion_of() {  # first "congestion" value in a report
  grep -o '"congestion": [0-9]*' "$1" | head -1 | grep -o '[0-9]*'
}

hiz16_cong=$(congestion_of "$TMP/ktree400.hiz16.json")
kkoi19_cong=$(congestion_of "$TMP/ktree400.kkoi19.json")
if [[ -z "$hiz16_cong" || -z "$kkoi19_cong" ||
      "$kkoi19_cong" -ge "$hiz16_cong" ]]; then
  echo "FAIL: kkoi19 congestion ($kkoi19_cong) is not strictly below" \
       "hiz16's ($hiz16_cong) on ktree400" >&2
  fail=1
fi

# Churn cells: the acceptance loop for the dynamic subsystem. Each drives a
# 1000-step verified insert/delete stream (every mutation checked against
# the from-scratch components + MSF oracles) over a different family, and
# --validate adds a distributed-MST engine run over the final snapshot.
cell churn_er300.churn.json churn_er300.churn.json --algo=churn \
  --scenario="churn:base=er:n=300,deg=6,seed=5;steps=1000,rate=0.02,seed=7"
cell churn_ktree300.churn.json churn_ktree300.churn.json --algo=churn \
  --scenario="churn:base=ktree:n=300,k=3,seed=8;steps=1000,rate=0.02,dfrac=0.4,seed=7,weights=1-64"
cell churn_ba300.churn.json churn_ba300.churn.json --algo=churn \
  --scenario="churn:base=ba:n=300,m=3,seed=4;steps=1000,rate=0.03,seed=7,verify=sample,vperiod=32"

# One --sweep cell: a JSON array of per-point reports, byte-pinned like
# every single-run cell.
cell sweep_er.components.json sweep_er.components.json \
  --algo=components --scenario="er:n=100,deg=4,seed=5" --sweep="n=100..400:x2"

# One --metrics cell: scenario resolution only (--algo=none), with the
# graph's double-sweep diameter bound and every part's exact diameter.
cell metrics_er300.none.json metrics_er300.none.json \
  --algo=none --scenario="er:n=300,deg=6,seed=5" --metrics

# A failed cell fails --update too: its golden was not rewritten.
if [[ $fail -ne 0 ]]; then
  echo "golden matrix: FAILED" >&2
  exit 1
fi
if [[ "$UPDATE" == "--update" ]]; then
  echo "goldens regenerated in $GOLDENS"
  exit 0
fi
echo "golden matrix: $cells cells OK (${#NAMES[@]} scenarios x" \
     "${#ALGOS[@]} algorithms, 1 --threads=4, 3 backend, 3 churn," \
     "1 sweep, 1 --metrics)"
