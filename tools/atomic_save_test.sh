#!/usr/bin/env bash
# Kill-mid-write regression gate for the atomic binary-cache writes.
#
# Every save_* entry point writes a temp file of its own,
# `<path>.tmp.<pid>.<n>`, then atomically renames it onto `<path>` (io.h
# "Atomic writes"). The io layer's LCS_IO_CRASH hooks
# simulate the two crash windows:
#   * mid-write      — process dies with a half-written temp file,
#   * before-rename  — process dies with a complete temp file not renamed.
# In both cases the final path must be untouched: absent if it never
# existed, the OLD complete cache if it did. A torn file at the final path
# is the bug this gate exists to catch.
#
# Usage: atomic_save_test.sh /path/to/lcs_run
set -u

run="${1:?usage: atomic_save_test.sh /path/to/lcs_run}"
run=$(realpath "$run")

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"
failures=0

save() {  # save SPEC PATH [env...]
  local spec="$1" path="$2"
  shift 2
  env "$@" "$run" --algo=none --scenario="$spec" --no-timing \
    --save-graph="$path" --out=/dev/null 2>/dev/null
}

check() {
  local name="$1" ok="$2" detail="$3"
  if [[ "$ok" == "yes" ]]; then
    echo "ok   $name"
  else
    echo "FAIL $name: $detail" >&2
    failures=$((failures + 1))
  fi
}

# --- crash on a fresh path: no file must appear ----------------------------
save "grid:w=10,h=10" fresh.bin LCS_IO_CRASH=mid-write
rc=$?
check fresh_midwrite_exit "$([[ $rc -eq 41 ]] && echo yes || echo no)" \
  "crash hook exited $rc, expected 41"
check fresh_midwrite_no_file "$([[ ! -e fresh.bin ]] && echo yes || echo no)" \
  "torn fresh.bin exists after mid-write crash"

save "grid:w=10,h=10" fresh.bin LCS_IO_CRASH=before-rename
rc=$?
check fresh_prerename_exit "$([[ $rc -eq 42 ]] && echo yes || echo no)" \
  "crash hook exited $rc, expected 42"
check fresh_prerename_no_file \
  "$([[ ! -e fresh.bin ]] && echo yes || echo no)" \
  "fresh.bin exists after before-rename crash"

# --- crash over an existing cache: old bytes must survive ------------------
save "grid:w=10,h=10" cache.bin
check baseline_save "$([[ -s cache.bin ]] && echo yes || echo no)" \
  "baseline save produced no file"
cp cache.bin cache.golden

save "er:n=400,deg=6,seed=3" cache.bin LCS_IO_CRASH=mid-write
check overwrite_midwrite_preserved \
  "$(cmp -s cache.bin cache.golden && echo yes || echo no)" \
  "mid-write crash changed the existing cache file"

save "er:n=400,deg=6,seed=3" cache.bin LCS_IO_CRASH=before-rename
check overwrite_prerename_preserved \
  "$(cmp -s cache.bin cache.golden && echo yes || echo no)" \
  "before-rename crash changed the existing cache file"

# The survivor must still be a loadable, complete cache.
"$run" --algo=components --scenario="file:cache.bin" --no-timing \
  --out=/dev/null 2>/dev/null
check survivor_loads "$([[ $? -eq 0 ]] && echo yes || echo no)" \
  "surviving cache file no longer loads"

# --- a later clean save completes the interrupted update -------------------
# The crashed saves left their own temp files; the clean one adds none.
temps_before=$(compgen -G 'cache.bin.tmp.*' | wc -l)
save "er:n=400,deg=6,seed=3" cache.bin
check clean_overwrite \
  "$(cmp -s cache.bin cache.golden && echo no || echo yes)" \
  "clean save did not replace the cache"
check crash_left_temps \
  "$([[ "$temps_before" -eq 2 ]] && echo yes || echo no)" \
  "expected the two crashed saves' temp files, found $temps_before"
check clean_overwrite_no_tmp \
  "$([[ "$(compgen -G 'cache.bin.tmp.*' | wc -l)" -eq "$temps_before" ]] \
     && echo yes || echo no)" \
  "temp file left behind after a clean save"
"$run" --algo=components --scenario="file:cache.bin" --no-timing \
  --out=/dev/null 2>/dev/null
check replacement_loads "$([[ $? -eq 0 ]] && echo yes || echo no)" \
  "replacement cache file does not load"

if [[ "$failures" -ne 0 ]]; then
  echo "atomic_save_test: $failures failure(s)" >&2
  exit 1
fi
echo "atomic_save_test: crashes in both windows leave the final path complete"
