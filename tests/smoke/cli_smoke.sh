#!/usr/bin/env bash
# End-to-end smoke test for tools/lad_cli: train -> inspect -> check ->
# simulate on a deliberately small deployment.  Checks exit codes and the
# key output lines of every subcommand.
set -u

cli="$1"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "cli_smoke FAIL: $*" >&2
  exit 1
}

run() {
  # run <name> <expected-rc> <cmd...>; captures stdout+stderr in $output.
  local name="$1" want_rc="$2"
  shift 2
  output="$("$@" 2>&1)"
  local rc=$?
  echo "--- $name (rc=$rc) ---"
  echo "$output"
  [ "$rc" -eq "$want_rc" ] || fail "$name exited $rc, expected $want_rc"
}

small_flags=(--m 40 --r 45 --sigma 25 --networks 2 --victims 40 --seed 1)

run train 0 "$cli" train --out "$workdir/detector.lad" "${small_flags[@]}"
grep -q "trained diff threshold" <<<"$output" || fail "train: missing threshold line"
grep -q "wrote $workdir/detector.lad" <<<"$output" || fail "train: missing wrote line"
[ -s "$workdir/detector.lad" ] || fail "train: bundle file is empty"

run inspect 0 "$cli" inspect --detector "$workdir/detector.lad"
grep -q "metric:       diff" <<<"$output" || fail "inspect: missing metric line"
grep -q "groups:       100 (m = 40 nodes each)" <<<"$output" || fail "inspect: wrong groups line"

# An all-zero observation from the field center must be flagged (exit 3).
run check 3 "$cli" check --detector "$workdir/detector.lad" --le-x 500 --le-y 500
grep -q "ANOMALY" <<<"$output" || fail "check: all-zero observation not flagged"

# A non-finite claimed location is an error that names the coordinate, not
# a NaN score that passes the threshold test.
run check_nan 1 "$cli" check --detector "$workdir/detector.lad" \
  --le-x nan --le-y 500 --obs 44:30,45:20
grep -q "claimed location x = nan is not finite" <<<"$output" ||
  fail "check: NaN claimed location not rejected by name"

run simulate 0 "$cli" simulate --detector "$workdir/detector.lad" \
  --d 120 --x 0.1 --trials 20 --seed 7
grep -q "benign false positives:" <<<"$output" || fail "simulate: missing benign line"
grep -q "attacks detected (D=120" <<<"$output" || fail "simulate: missing detection line"

# An integer flag past int's range is an error that names the flag, not a
# wrapped value: --m 4294967297 used to train and save an m = 1 bundle.
run train_wrap 1 "$cli" train --out "$workdir/wrapped.lad" --m 4294967297
grep -q -- "--m = 4294967297 is out of range" <<<"$output" ||
  fail "train: out-of-range --m not rejected by name"
[ ! -e "$workdir/wrapped.lad" ] || fail "train: wrote a bundle for --m 2^32+1"
run simulate_wrap 1 "$cli" simulate --detector "$workdir/detector.lad" \
  --trials 4294967297
grep -q -- "--trials = 4294967297 is out of range" <<<"$output" ||
  fail "simulate: out-of-range --trials not rejected by name"

echo "cli_smoke OK"
