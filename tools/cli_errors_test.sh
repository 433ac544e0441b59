#!/usr/bin/env bash
# CLI graceful-degradation gate for lcs_run.
#
# Every user-input failure (malformed scenario spec, unknown algorithm, bad
# sweep range, malformed churn parameters, a flag value that does not parse,
# an unknown argument) must:
#   * exit nonzero (2 for contract-check diagnoses),
#   * emit one well-formed JSON error object on stdout
#     ({"error": {"type", "message", "exit_code"}}) so driving tooling always
#     reads JSON,
#   * be deterministic: two invocations produce byte-identical stdout.
#
# Usage: cli_errors_test.sh /path/to/lcs_run
set -u

run="${1:?usage: cli_errors_test.sh /path/to/lcs_run}"
failures=0

# expect_error NAME EXPECTED_RC [args...]
expect_error() {
  local name="$1" expected_rc="$2"
  shift 2
  local out rc out2 rc2
  out=$("$run" "$@" 2>/dev/null)
  rc=$?
  if [[ "$rc" -ne "$expected_rc" ]]; then
    echo "FAIL $name: exit code $rc, expected $expected_rc" >&2
    failures=$((failures + 1))
    return
  fi
  if [[ "$out" != '{'* || "$out" != *'"error"'* || "$out" != *'"message"'* ]]; then
    echo "FAIL $name: stdout is not a JSON error object:" >&2
    echo "$out" >&2
    failures=$((failures + 1))
    return
  fi
  # Determinism: the error report is a pure function of the invocation.
  out2=$("$run" "$@" 2>/dev/null)
  rc2=$?
  if [[ "$rc2" -ne "$rc" || "$out2" != "$out" ]]; then
    echo "FAIL $name: two identical invocations diverged" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok   $name"
}

# expect_error_contains NAME EXPECTED_RC SUBSTRING [args...]
# expect_error plus a pin on the diagnosis text, for messages whose exact
# wording is part of the contract (naming the offending key).
expect_error_contains() {
  local name="$1" expected_rc="$2" substring="$3"
  shift 3
  local out
  out=$("$run" "$@" 2>/dev/null)
  expect_error "$name" "$expected_rc" "$@"
  if [[ "$out" != *"$substring"* ]]; then
    echo "FAIL $name: diagnosis does not name the offender ('$substring'):" >&2
    echo "$out" >&2
    failures=$((failures + 1))
  fi
}

# The three canonical failure paths, plus churn-specific diagnoses.
expect_error malformed_spec 2 --algo=components --scenario='er:n=100,deg'
expect_error unknown_family 2 --algo=components --scenario='frobnicate:n=10'
expect_error unknown_algo 2 --algo=frobnicate --scenario='er:n=100,deg=4'
expect_error bad_sweep_range 2 --algo=components --scenario='er:n=100,deg=4' \
  --sweep='n=10..1'
expect_error bad_sweep_grammar 2 --algo=components --scenario='er:n=100,deg=4' \
  --sweep='n=10'
expect_error churn_unknown_param 2 --algo=churn --scenario='er:n=50,deg=4' \
  --churn='steps=10,frobnicate=1'
expect_error churn_bad_wrapper 2 --algo=churn --scenario='churn:steps=10'
expect_error churn_flag_without_algo 2 --algo=mst --scenario='er:n=50,deg=4' \
  --churn='steps=10'

# Backend selection failures must name the offender and list the legal
# choices — an unknown name, a construction that declines the scenario
# family (with the accepted-backend list for that scenario), and the flag
# on a non-shortcut algorithm.
expect_error_contains unknown_backend 2 "'frobnicate'" \
  --algo=shortcut --scenario='er:n=50,deg=4' --backend=frobnicate
expect_error_contains unknown_backend_lists_registered 2 'registered:' \
  --algo=shortcut --scenario='er:n=50,deg=4' --backend=frobnicate
expect_error_contains inapplicable_backend 2 'not applicable' \
  --algo=shortcut --scenario='er:n=50,deg=4' --backend=kkoi19
expect_error_contains inapplicable_backend_lists_accepted 2 \
  'accepted backends' \
  --algo=shortcut --scenario='er:n=50,deg=4' --backend=kkoi19
expect_error_contains backend_without_shortcut 2 \
  '--backend only applies to --algo=shortcut' \
  --algo=mst --scenario='er:n=50,deg=4' --backend=naive

# Silent-misparse regressions: a duplicated spec key and an unknown spec
# key must be rejected with the offending key named, never last-wins or
# silently defaulted.
expect_error_contains duplicate_spec_key 2 "'n'" \
  --algo=components --scenario='er:n=100,n=200,deg=4'
expect_error_contains unknown_spec_key 2 "'frob'" \
  --algo=components --scenario='er:n=100,deg=4,frob=1'
expect_error_contains unknown_spec_key_lists_accepted 2 'accepted:' \
  --algo=components --scenario='er:n=100,deg=4,frob=1'

# wseed seeds only the weights= draw: alone it is diagnosed as such, not
# as an unknown key whose accepted list names it.
expect_error_contains wseed_without_weights 2 "'wseed' requires weights=lo-hi" \
  --algo=components --scenario='er:n=50,deg=4,wseed=3'

# A one-node graph has no cut: mincut says so up front instead of sweeping
# every sampling level without ever dropping an edge.
expect_error_contains mincut_single_node 2 'min cut needs at least two nodes' \
  --algo=mincut --scenario='path:n=1'

# A part count outside [1, n] names its key and the legal range, not just
# "part count out of range" from the partition generator.
expect_error_contains wheel_arcs_out_of_range 2 "'arcs'" \
  --algo=components --scenario='wheel:n=4'
expect_error_contains parts_out_of_range 2 "'parts'" \
  --algo=components --scenario='grid:w=4,parts=17'

# An explicit ER edge probability outside [0, 1] is diagnosed with its key,
# never clamped into the complete graph (deg= alone saturates there).
expect_error_contains er_p_out_of_range 2 "'p' must be in [0, 1]" \
  --algo=none --scenario='er:n=20,p=1.5' --no-timing

# A check's location is repo-relative: the error document is the same bytes
# whatever directory the binary was built in.
expect_error_contains check_location_repo_relative 2 \
  'at src/graph/generators.cpp:' \
  --algo=components --scenario='grid:w=0'

# A binary cache whose section header claims 2^33 bytes and carries none
# is a truncation, diagnosed by section: the reader's memory follows the
# bytes actually present, so a 1 GB address-space limit is plenty. The
# 60-byte file is version 2, two nodes, one edge, one section. The
# subshell keeps the limit off the rest of this script.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
printf 'LCSG\x02\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0' \
  > "$TMP/forged.lcsg"
printf '\0\0\0\0\x01\0\0\0\x01\0\0\0\0\0\0\0' >> "$TMP/forged.lcsg"
printf '\x01\0\0\0XXXX\0\0\0\0\x02\0\0\0' >> "$TMP/forged.lcsg"
limited_run() { (ulimit -v 1000000; exec timeout 20 "$lcs_run" "$@"); }
lcs_run="$run"
run=limited_run
expect_error_contains forged_section_length 2 \
  'truncated in section 0 payload' \
  --algo=none --scenario="file:$TMP/forged.lcsg" --no-timing
# A version-1 header declaring 2^31 - 1 nodes and no edges: no connected
# graph has more than m + 1 nodes, so the 28-byte file is refused by its
# counts before any per-node array is allocated.
printf 'LCSG\x01\0\0\0\0\0\0\0\xff\xff\xff\x7f\0\0\0\0\0\0\0\0\0\0\0\0' \
  > "$TMP/forged-nodes.lcsg"
expect_error_contains forged_node_count 2 \
  'declares 2147483647 nodes but only 0 edges' \
  --algo=none --scenario="file:$TMP/forged-nodes.lcsg" --no-timing
run="$lcs_run"

# Flag parsing fails the same way: a value that does not parse (or
# overflows its type) and an unknown argument are JSON error documents
# naming the flag and the value.
expect_error_contains bad_flag_value 2 "bad value 'abc' for --seed" \
  --algo=mst --scenario='grid:w=4' --seed=abc
expect_error_contains bad_flag_value_overflow 2 \
  "bad value '99999999999' for --threads" \
  --algo=mst --scenario='grid:w=4' --threads=99999999999
expect_error_contains unknown_flag 2 "unknown argument '--frobnicate=1'" \
  --algo=mst --scenario='grid:w=4' --frobnicate=1

# The engine has no parallel threshold: the flag is an unknown argument
# (lcs_serve refuses its "parallel_threshold" field the same way).
expect_error_contains unknown_parallel_threshold 2 \
  "unknown argument '--parallel-threshold=0'" \
  --algo=mst --scenario='grid:w=4' --parallel-threshold=0 --no-timing

# `--threads` selects nothing but is still validated: a negative count is
# rejected by name on every path, the runs that start no engine included (lcs_serve answers its "threads" field with the
# same document, also when the shortcut record is already cached).
expect_error_contains negative_threads 2 \
  'threads (--threads) must be >= 0, got -1' \
  --algo=mst --scenario='grid:w=4' --threads=-1 --no-timing
expect_error_contains negative_threads_no_engine 2 \
  'threads (--threads) must be >= 0, got -1' \
  --algo=none --scenario='grid:w=4' --threads=-1 --no-timing

# A --sweep key that is not a parameter of the scenario family is rejected
# before any expansion work (and names both the key and the family).
expect_error_contains sweep_unknown_key 2 "'bogus'" \
  --algo=components --scenario='er:n=100,deg=4' --sweep='bogus=1..4'
expect_error_contains sweep_unknown_key_names_family 2 "family 'er'" \
  --algo=components --scenario='er:n=100,deg=4' --sweep='bogus=1..4'
# Common cross-family keys stay sweepable.
out=$("$run" --algo=none --scenario='er:n=50,deg=4' --sweep='pseed=1..2' \
  --no-timing 2>/dev/null)
if [[ $? -ne 0 || "$out" == *'"error"'* ]]; then
  echo "FAIL sweep_common_key: sweeping a common key must stay legal" >&2
  failures=$((failures + 1))
else
  echo "ok   sweep_common_key"
fi

# A successful run must NOT contain the error object (guards against the
# error path leaking into healthy reports).
out=$("$run" --algo=none --scenario='er:n=50,deg=4' --no-timing 2>/dev/null)
rc=$?
if [[ "$rc" -ne 0 || "$out" == *'"error"'* ]]; then
  echo "FAIL healthy_run: rc=$rc or error object in healthy output" >&2
  failures=$((failures + 1))
else
  echo "ok   healthy_run"
fi

if [[ "$failures" -ne 0 ]]; then
  echo "cli_errors_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_errors_test: all error paths degrade gracefully"
