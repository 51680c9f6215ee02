#!/usr/bin/env bash
# Usage-error exit codes of dalut_stream's count options.
#
# --producers, --batch, --ring, --reads and --reconfigs must be >= 1 and
# --width must lie in [3, 24]. An out-of-range value must exit 2 (usage
# error) with a message naming the option, before any thread starts:
# --batch 0 and --reconfigs -1 used to hang, --producers/--batch/--reads -1
# and --width 40 died on allocation failures. The smallest valid counts
# must still run.
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <path-to-dalut_stream>" >&2
  exit 2
fi
dalut_stream=$1
small=(--benchmark cos --width 6 --reads 4096 --reconfigs 1)
fail=0

expect_usage() {
  local option=$1 value=$2 status=0 err
  err=$(timeout -k 5 20 "$dalut_stream" "${small[@]}" "--$option" "$value" \
        2>&1 >/dev/null) || status=$?
  if [[ $status -ne 2 ]]; then
    echo "FAIL: --$option $value exited $status, want 2" >&2
    fail=1
  elif [[ $err != *"--$option"* ]]; then
    echo "FAIL: --$option $value: message does not name the option: $err" >&2
    fail=1
  else
    echo "ok: --$option $value -> exit 2 ($err)"
  fi
}

for option in producers batch ring reads reconfigs; do
  expect_usage "$option" 0
  expect_usage "$option" -1
done
expect_usage reconfigs 4294967296
expect_usage width 2
expect_usage width 25
expect_usage width 40
expect_usage width -1
expect_usage listen not-a-port

status=0
timeout -k 5 20 "$dalut_stream" "${small[@]}" --batch 1 --reconfigs 1 \
    --reads 4096 >/dev/null 2>&1 || status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL: --batch 1 --reconfigs 1 --reads 4096 exited $status, want 0" >&2
  fail=1
fi

exit $fail
