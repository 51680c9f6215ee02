#!/usr/bin/env python3
"""Self-tests of the benchmark (run from the repository root):

    python3 perfbench/test_run.py [workload ...]

1. A short run of every workload, untraced and traced, must pass its checks
   and emit exactly the end-to-end (untraced) or per-layer (traced) metrics
   BENCHMARK.json lists, each with its unit.
2. Every correctness check must fail the run when handed a corrupted result:
   a flipped table word, a dropped reconfiguration, a failed job.

Exits non-zero on the first failing case.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ("search_nd14", "serve_nd14", "serve_mono14_reconfig")
# (workload, injected corruption) pairs; each must make the run fail.
CORRUPTIONS = (
    ("search_nd14", "fail-job"),
    ("search_nd14", "flip-word"),
    ("serve_nd14", "flip-word"),
    ("serve_nd14", "drop-reconfig"),
    ("serve_nd14", "fail-job"),
    ("serve_mono14_reconfig", "flip-word"),
    ("serve_mono14_reconfig", "drop-reconfig"),
    ("serve_mono14_reconfig", "fail-job"),
)


def run(workload, trace, inject=""):
    cmd = RUN + ["--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check_metrics(workload, trace, result, catalogue):
    expected = {m["name"]: m["unit"] for m in catalogue}
    got = result["metrics"]
    assert set(got) == set(expected), (
        "%s trace=%d: metrics %s differ from BENCHMARK.json %s"
        % (workload, trace, sorted(got), sorted(expected)))
    for name, entry in got.items():
        assert set(entry) == {"value", "unit"}, (workload, name, entry)
        assert entry["unit"] == expected[name], (workload, name, entry)
        assert isinstance(entry["value"], (int, float)), (workload, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or WORKLOADS
    for workload in workloads:
        for trace, catalogue in ((0, bench["end_to_end"]),
                                 (1, bench["per_layer"])):
            proc, result = run(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            check_metrics(workload, trace, result, catalogue)
            print("ok   %s trace=%d: %d metrics" %
                  (workload, trace, len(result["metrics"])), flush=True)
    for workload, inject in CORRUPTIONS:
        if workload not in workloads:
            continue
        proc, result = run(workload, 0, inject)
        assert proc.returncode == 1, (workload, inject, proc.returncode,
                                      proc.stderr[-3000:])
        assert result is not None and result["correct"] is False, result
        assert result["failed"] >= 1, result
        print("ok   %s --inject %s: run failed as it must" % (workload, inject),
              flush=True)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
