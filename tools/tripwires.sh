#!/usr/bin/env bash
# Scale tripwires: runs each row of a tripwire table through lcs_run under
# its time limit and checks the result counts the row pins.
#
# Usage:
#   tools/tripwires.sh <lcs_run-binary> <table>     (e.g. tests/goldens/tripwires.txt)
#
# A table row is `<time limit, s> <algo> <scenario> [<key>=<value> ...]`;
# blank lines and lines starting with `#` are skipped. A plain key names a
# key of the report's "result" object, and `<section>.<key>` one of another
# top-level object (`setup.rounds=16`). A row fails if lcs_run exits
# non-zero, outlives its limit, or its report holds another value under a
# pinned key. Every row runs; the failures are named by their table line,
# and the exit status is 1 if any row failed (2 on a malformed table).
# Needs python3 to read the reports.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <lcs_run-binary> <table>" >&2
  exit 2
fi

LCS_RUN=$(realpath "$1")
TABLE=$(realpath "$2")

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0
line_no=0
while IFS= read -r line || [[ -n "$line" ]]; do
  line_no=$((line_no + 1))
  [[ -z "${line//[[:space:]]/}" || "$line" =~ ^[[:space:]]*# ]] && continue
  read -r limit algo scenario pins <<<"$line"
  if [[ ! "$limit" =~ ^[0-9]+$ || -z "${scenario:-}" ]]; then
    echo "tripwires: $TABLE:$line_no: malformed row: $line" >&2
    exit 2
  fi
  row="$TABLE:$line_no ($algo $scenario)"
  report="$TMP/report.json"
  start=$SECONDS
  status=0
  timeout "$limit" "$LCS_RUN" --algo="$algo" --scenario="$scenario" \
    --no-timing --out="$report" </dev/null || status=$?
  elapsed=$((SECONDS - start))
  if [[ $status -eq 124 ]]; then
    echo "FAIL: $row: outlived its ${limit} s limit" >&2
    fail=1
    continue
  elif [[ $status -ne 0 ]]; then
    echo "FAIL: $row: lcs_run exited $status" >&2
    fail=1
    continue
  fi
  # Compare each pinned [section.]key=value with the report.
  if ! python3 - "$report" "$row" ${pins:-} <<'EOF'
import json
import sys

report, row, pins = sys.argv[1], sys.argv[2], sys.argv[3:]
sections = json.load(open(report))
bad = False
for pin in pins:
    key, _, want = pin.partition("=")
    section, _, name = key.rpartition(".")
    obj = sections.get(section or "result")
    got = obj.get(name) if isinstance(obj, dict) else None
    if str(got) != want:
        print(f"FAIL: {row}: {key} = {got}, pinned {want}", file=sys.stderr)
        bad = True
sys.exit(1 if bad else 0)
EOF
  then
    fail=1
    continue
  fi
  echo "ok: $row in ${elapsed} s${pins:+: $pins}"
done <"$TABLE"

exit "$fail"
