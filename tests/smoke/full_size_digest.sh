#!/usr/bin/env bash
# Full-size digest gate for one shipped spec: runs
# `lad_cli run --scenario <spec> --out <dir>` at paper size twice, once at
# LAD_THREADS=1 --jobs 1 and once at LAD_THREADS=4 --jobs 4, and checks
# every CSV of both runs against its line in the sha256sum-format digest
# file.  A CSV the file does not list, or a listed CSV the run did not
# write, fails too.
#
# usage: full_size_digest.sh <lad_cli> <spec.scn> <full_size.sha256>
#
# To regenerate the digests (only at a commit whose bytes you trust):
#   for s in bench/scenarios/*.scn; do
#     build/tools/lad_cli run --scenario "$s" --out /tmp/full >/dev/null
#   done
#   (cd /tmp/full && LC_ALL=C sha256sum *.csv) > tests/data/scenario_goldens/full_size.sha256
set -u
export LC_ALL=C  # one glob and sort order for the digest lists

cli="$1"
spec="$2"
digests="$3"
name="$(basename "$spec" .scn)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "full_size_digest FAIL ($name): $*" >&2
  exit 1
}

# This spec's lines: "<sha256>  <name>.<table>.csv".
grep -E "^[0-9a-f]{64}  $name\.[^.]+\.csv\$" "$digests" | sort \
  >"$workdir/want"
[ -s "$workdir/want" ] || fail "no digest lines for $name in $digests"

for leg in 1 4; do
  out="$workdir/t$leg"
  LAD_THREADS=$leg "$cli" run --scenario "$spec" --jobs "$leg" \
    --out "$out" >/dev/null || fail "run at threads/jobs $leg exited $?"
  (cd "$out" && sha256sum *.csv) | sort >"$workdir/got$leg"
  diff "$workdir/want" "$workdir/got$leg" \
    || fail "CSVs at threads/jobs $leg differ from the digests"
  echo "threads/jobs $leg: $(wc -l <"$workdir/want") CSV(s) match"
done
echo "full_size_digest OK ($name)"
