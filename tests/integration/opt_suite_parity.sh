#!/usr/bin/env bash
# dalut_opt and a one-job dalut_suite run the same search code, so the same
# parameters must give the same MED and stored bits, for BS-SA with
# BTO-Normal-ND mode selection and for DALTA. Out-of-range bound sets must
# fail cleanly: dalut_opt exits 3, and a suite quarantines the job (exit 7)
# while its siblings complete.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <path-to-dalut_opt> <path-to-dalut_suite>" >&2
  exit 2
fi
dalut_opt=$1
dalut_suite=$2

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# parity <name> <manifest fields> -- <dalut_opt flags>
parity() {
  local name=$1 fields=$2
  shift 3
  "$dalut_opt" "$@" --threads 2 --metrics-out "$workdir/$name.opt.json" \
      > "$workdir/$name.opt.out"
  printf 'dalut-manifest v1\njob %s %s\nend\n' "$name" "$fields" \
      > "$workdir/$name.manifest"
  "$dalut_suite" --manifest "$workdir/$name.manifest" -j2 \
      --csv-out "$workdir/$name.csv" 2> /dev/null
  python3 - "$workdir/$name" <<'PY'
import csv, json, re, sys

base = sys.argv[1]
opt_med = json.load(open(base + ".opt.json"))["run"]["med"]
opt_stored = int(re.search(r"stored LUT bits: (\d+)",
                           open(base + ".opt.out").read()).group(1))
# The CSV carries the job's MED at exact 17-digit round-trip precision.
(row,) = csv.DictReader(open(base + ".csv"))
assert row["status"] == "completed", row
assert opt_med == float(row["med"]), (opt_med, row["med"])
assert opt_stored == int(row["stored_bits"]), (opt_stored, row["stored_bits"])
print(f"ok: {row['job']}: med {opt_med!r}, {opt_stored} stored bits")
PY
}

parity cos10-nd "benchmark=cos width=10 arch=bto-normal-nd seed=3" -- \
    --benchmark cos --width 10 --arch bto-normal-nd --seed 3
parity log10-dalta \
    "benchmark=log2 width=10 algorithm=dalta rounds=2 partitions=20 seed=5" \
    -- --benchmark log2 --width 10 --algorithm dalta --rounds 2 \
    --partitions 20 --seed 5

status=0
"$dalut_opt" --benchmark cos --width 6 --bound 8 --threads 1 \
    > /dev/null 2>&1 || status=$?
if [[ $status -ne 3 ]]; then
  echo "FAIL: dalut_opt --width 6 --bound 8 exited $status, want 3" >&2
  exit 1
fi
echo "ok: dalut_opt --width 6 --bound 8 -> exit 3"

cat > "$workdir/bad.manifest" <<'MANIFEST'
dalut-manifest v1
default width=6 rounds=1 partitions=8 patterns=4
job good benchmark=cos seed=3
job wide benchmark=cos bound=9
end
MANIFEST
status=0
"$dalut_suite" --manifest "$workdir/bad.manifest" -j2 \
    --csv-out "$workdir/bad.csv" 2> /dev/null || status=$?
if [[ $status -ne 7 ]]; then
  echo "FAIL: suite with a bound=9 width=6 job exited $status, want 7" >&2
  exit 1
fi
grep -q '^good,.*,completed,' "$workdir/bad.csv"
grep -q '^wide,.*,failed,' "$workdir/bad.csv"
echo "ok: bound=9 job quarantined (exit 7), sibling completed"
