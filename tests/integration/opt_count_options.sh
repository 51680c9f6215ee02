#!/usr/bin/env bash
# Usage-error exit codes of dalut_opt's integer and choice options.
#
# --patterns and --rounds must be >= 1, --partitions/--beams/--chains/
# --checkpoint-every/--tb-vectors >= 0, --width in [2, 26], --bound in
# [0, 25], and --table-load/--algorithm/--arch/--metric one of their
# choices. A bad value must exit 2 (usage error) with a message naming the
# option, before any search starts: --patterns -1 used to wrap to 4294967295
# OptForPart restarts and run far past a SIGTERM, --tb-vectors -1 hung
# writing SIZE_MAX vectors. The smallest valid values must still run.
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <path-to-dalut_opt>" >&2
  exit 2
fi
dalut_opt=$1
small=(--benchmark cos --width 6 --partitions 4 --rounds 1 --threads 1)
fail=0

expect_usage() {
  local option=$1 value=$2 status=0 err
  err=$(timeout -k 5 20 "$dalut_opt" "${small[@]}" "--$option" "$value" \
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

expect_usage patterns -1
expect_usage patterns 0
expect_usage patterns 4294967296
for option in rounds partitions beams chains; do
  expect_usage "$option" -1
done
expect_usage rounds 0
expect_usage tb-vectors -1
expect_usage checkpoint-every -1
expect_usage bound -1
for width in 0 1 27 40; do
  expect_usage width "$width"
done
for option in table-load algorithm arch metric; do
  expect_usage "$option" bogus
done

status=0
timeout -k 5 60 "$dalut_opt" "${small[@]}" --patterns 1 --beams 0 --chains 0 \
    >/dev/null || status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL: --patterns 1 --beams 0 --chains 0 exited $status, want 0" >&2
  fail=1
fi

# The smallest width: its default bound set must leave one free input.
status=0
timeout -k 5 60 "$dalut_opt" "${small[@]}" --width 2 >/dev/null || status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL: --width 2 exited $status, want 0" >&2
  fail=1
fi

exit $fail
