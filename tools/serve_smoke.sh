#!/usr/bin/env bash
# Byte-identity gate for the serve daemon.
#
# The contract that makes lcs_serve trustworthy: every response payload is
# byte-identical to the stdout of the equivalent one-shot lcs_run
# invocation — healthy reports, sweep arrays, and error objects alike —
# and the frame's exit code matches lcs_run's. This script:
#
#   1. renders a request matrix (every algorithm, a sweep, a churn cell,
#      and error requests) through lcs_run to get the expected bytes;
#   2. replays the same matrix through lcs_serve at --parallel-requests
#      1, 2, and 4 and diffs every payload byte-for-byte;
#   3. replays the matrix in reverse order at --parallel-requests=4 and
#      requires every per-id payload to be unchanged — batching and
#      worker interleaving must not leak into any response.
#
# Usage: serve_smoke.sh /path/to/lcs_serve /path/to/lcs_run
set -u

serve="${1:?usage: serve_smoke.sh /path/to/lcs_serve /path/to/lcs_run}"
run="${2:?usage: serve_smoke.sh /path/to/lcs_serve /path/to/lcs_run}"
serve=$(realpath "$serve")
run=$(realpath "$run")

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
failures=0

# The matrix: id | JSON request | equivalent lcs_run arguments.
IDS=()
REQS=()
declare -A RUN_ARGS
add() {
  IDS+=("$1")
  REQS+=("$2")
  RUN_ARGS[$1]="$3"
}
add comp '{"id":"comp","algo":"components","scenario":"grid:w=12,h=12","seed":7,"validate":true,"timing":false}' \
  '--algo=components --scenario=grid:w=12,h=12 --seed=7 --validate --no-timing'
add mst '{"id":"mst","algo":"mst","scenario":"er:n=150,deg=5,seed=5","seed":7,"validate":true,"timing":false}' \
  '--algo=mst --scenario=er:n=150,deg=5,seed=5 --seed=7 --validate --no-timing'
add mincut '{"id":"mincut","algo":"mincut","scenario":"torus:w=8,h=8","seed":7,"validate":true,"timing":false}' \
  '--algo=mincut --scenario=torus:w=8,h=8 --seed=7 --validate --no-timing'
add agg '{"id":"agg","algo":"aggregate","scenario":"wheel:n=65,arcs=4","seed":7,"validate":true,"timing":false}' \
  '--algo=aggregate --scenario=wheel:n=65,arcs=4 --seed=7 --validate --no-timing'
add short '{"id":"short","algo":"shortcut","scenario":"rmat:scale=7,deg=5,seed=3","seed":7,"validate":true,"timing":false}' \
  '--algo=shortcut --scenario=rmat:scale=7,deg=5,seed=3 --seed=7 --validate --no-timing'
# The "threads" field is accepted and selects nothing: served bytes at 2
# and 4 must match lcs_run at the same --threads (and the unthreaded cells).
add short_t2 '{"id":"short_t2","algo":"shortcut","scenario":"rmat:scale=7,deg=5,seed=3","seed":7,"threads":2,"validate":true,"timing":false}' \
  '--algo=shortcut --scenario=rmat:scale=7,deg=5,seed=3 --seed=7 --threads=2 --validate --no-timing'
add short_t4 '{"id":"short_t4","algo":"shortcut","scenario":"rmat:scale=7,deg=5,seed=3","seed":7,"threads":4,"validate":true,"timing":false}' \
  '--algo=shortcut --scenario=rmat:scale=7,deg=5,seed=3 --seed=7 --threads=4 --validate --no-timing'
add mst_t4 '{"id":"mst_t4","algo":"mst","scenario":"er:n=150,deg=5,seed=5","seed":7,"threads":4,"validate":true,"timing":false}' \
  '--algo=mst --scenario=er:n=150,deg=5,seed=5 --seed=7 --threads=4 --validate --no-timing'
# Backend dimension: a non-default shortcut construction selected through
# the request's "backend" field, and the inapplicable-backend error object.
add short_kkoi19 '{"id":"short_kkoi19","algo":"shortcut","scenario":"ktree:n=120,k=3,seed=8","backend":"kkoi19","seed":7,"validate":true,"timing":false}' \
  '--algo=shortcut --scenario=ktree:n=120,k=3,seed=8 --backend=kkoi19 --seed=7 --validate --no-timing'
add err_backend '{"id":"err_backend","algo":"shortcut","scenario":"er:n=100,deg=4,seed=5","backend":"kkoi19","timing":false}' \
  '--algo=shortcut --scenario=er:n=100,deg=4,seed=5 --backend=kkoi19 --no-timing'
add sweep '{"id":"sweep","algo":"components","scenario":"er:n=100,deg=4,seed=5","sweep":"n=100..400:x2","seed":7,"timing":false}' \
  '--algo=components --scenario=er:n=100,deg=4,seed=5 --sweep=n=100..400:x2 --seed=7 --no-timing'
add churn '{"id":"churn","algo":"churn","scenario":"churn:base=er:n=150,deg=5,seed=5;steps=200,rate=0.02,seed=7","seed":7,"timing":false}' \
  '--algo=churn --scenario=churn:base=er:n=150,deg=5,seed=5;steps=200,rate=0.02,seed=7 --seed=7 --no-timing'
# Error paths must match lcs_run's JSON error objects and exit codes too.
add err_family '{"id":"err_family","algo":"components","scenario":"frobnicate:n=10","timing":false}' \
  '--algo=components --scenario=frobnicate:n=10 --no-timing'
add err_sweep '{"id":"err_sweep","algo":"components","scenario":"er:n=100,deg=4","sweep":"bogus=1..4","timing":false}' \
  '--algo=components --scenario=er:n=100,deg=4 --sweep=bogus=1..4 --no-timing'
# A negative thread count on a shortcut key the matrix also requests: the
# error must not depend on whether that record is already cached.
add err_threads '{"id":"err_threads","algo":"shortcut","scenario":"rmat:scale=7,deg=5,seed=3","seed":7,"threads":-1,"timing":false}' \
  '--algo=shortcut --scenario=rmat:scale=7,deg=5,seed=3 --seed=7 --threads=-1 --no-timing'

# Expected bytes and exit codes from the one-shot tool.
for id in "${IDS[@]}"; do
  # shellcheck disable=SC2086
  "$run" ${RUN_ARGS[$id]} > "$TMP/$id.expected" 2>/dev/null
  echo $? > "$TMP/$id.expected_rc"
done

# Split framed serve output into per-id payload and exit-code files.
# Payload lines never start with '#lcs_serve ' (pretty-printed JSON), so
# line-based splitting is exact.
split_frames() {
  local dir="$1"
  mkdir -p "$dir"
  awk -v dir="$dir" '
    /^#lcs_serve id=/ {
      id = ""; rc = ""
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^id=/) id = substr($i, 4)
        if ($i ~ /^exit=/) rc = substr($i, 6)
      }
      file = dir "/" id ".payload"
      printf "" > file
      print rc > (dir "/" id ".rc")
      next
    }
    { print >> file }
  '
}

check_replay() {
  local name="$1" dir="$2"
  for id in "${IDS[@]}"; do
    if ! diff -u "$TMP/$id.expected" "$dir/$id.payload" >&2; then
      echo "FAIL $name/$id: payload differs from one-shot lcs_run" >&2
      failures=$((failures + 1))
    fi
    if [[ "$(cat "$dir/$id.rc")" != "$(cat "$TMP/$id.expected_rc")" ]]; then
      echo "FAIL $name/$id: frame exit code $(cat "$dir/$id.rc")," \
           "lcs_run exited $(cat "$TMP/$id.expected_rc")" >&2
      failures=$((failures + 1))
    fi
  done
  echo "ok   $name"
}

requests="$TMP/requests.jsonl"
printf '%s\n' "${REQS[@]}" '{"cmd":"quit"}' > "$requests"

for par in 1 2 4; do
  dir="$TMP/par$par"
  "$serve" --parallel-requests="$par" < "$requests" 2>/dev/null \
    | split_frames "$dir"
  check_replay "parallel_requests_$par" "$dir"
done

# Interleaving determinism: reversed request order, parallel dispatch.
reversed="$TMP/requests_reversed.jsonl"
{
  for ((i = ${#REQS[@]} - 1; i >= 0; i--)); do printf '%s\n' "${REQS[$i]}"; done
  printf '%s\n' '{"cmd":"quit"}'
} > "$reversed"
dir="$TMP/reversed"
"$serve" --parallel-requests=4 < "$reversed" 2>/dev/null | split_frames "$dir"
check_replay "reversed_order" "$dir"

# A "threads" value that does not fit an int names the field (lcs_run's
# flag parser words its own diagnosis, so this one is not a byte-identity
# cell).
payload=$(printf '%s\n' \
  '{"id":"threads_range","algo":"mst","scenario":"grid:w=4","threads":99999999999,"timing":false}' \
  '{"cmd":"quit"}' | "$serve" 2>/dev/null)
if [[ "$payload" != *"request field 'threads' does not fit an int, got 99999999999"* ]]; then
  echo "FAIL threads_range: diagnosis does not name the field:" >&2
  echo "$payload" >&2
  failures=$((failures + 1))
else
  echo "ok   threads_range"
fi

# The engine has no parallel threshold: a "parallel_threshold" field is an
# unknown request field, named in the error (lcs_run refuses the flag with
# its own usage error, so this one is not a byte-identity cell either).
payload=$(printf '%s\n' \
  '{"id":"threshold","algo":"mst","scenario":"grid:w=4","parallel_threshold":0,"timing":false}' \
  '{"cmd":"quit"}' | "$serve" 2>/dev/null)
if [[ "$payload" != *"#lcs_serve id=threshold exit=2 "* ||
      "$payload" != *"unknown request field 'parallel_threshold'"* ]]; then
  echo "FAIL unknown_parallel_threshold: not refused by name:" >&2
  echo "$payload" >&2
  failures=$((failures + 1))
else
  echo "ok   unknown_parallel_threshold"
fi

# A batch worker that cannot be started fails the daemon at startup instead
# of hanging it: under a 1 GB address-space limit, 999 thread stacks cannot
# all be mapped. The subshell keeps the limit off the rest of this script.
err=$( (ulimit -v 1000000; exec timeout 20 "$serve" --parallel-requests=1000 \
  < /dev/null 2>&1 >/dev/null) )
rc=$?
if [[ "$rc" -ne 2 || "$err" != *"worker threads"* ]]; then
  echo "FAIL worker_threads_unavailable: exit $rc, stderr: $err" >&2
  failures=$((failures + 1))
else
  echo "ok   worker_threads_unavailable"
fi

if [[ "$failures" -ne 0 ]]; then
  echo "serve_smoke: $failures failure(s)" >&2
  exit 1
fi
echo "serve_smoke: ${#IDS[@]} requests byte-identical to lcs_run at --parallel-requests 1/2/4 + reversed order"
