#!/usr/bin/env bash
# Smoke test for one example program: it must exit 0 and print a line
# matching each given extended regex (one computed result per pattern).
#
#   example_smoke.sh <binary> <pattern>...
set -u

bin="$1"
shift
output="$("$bin" 2>&1)"
rc=$?
echo "$output"

fail() {
  echo "example_smoke FAIL ($(basename "$bin")): $*" >&2
  exit 1
}

[ "$rc" -eq 0 ] || fail "exited $rc, expected 0"
for pattern in "$@"; do
  grep -Eq -- "$pattern" <<<"$output" || fail "no line matches '$pattern'"
done

echo "example_smoke OK"
