#!/usr/bin/env python3
"""CI regression guard over a dalut_bench_report JSON.

Usage: check_bench_smoke.py <report.json>

Asserts on the width-16 cost_matrix and width-14 opt_for_part micro rows
(both present even under --micro-only since schema v3):

  1. the report is schema v4 and records the SIMD ISA, lane width, and
     table-load mode in its config block, and its stream micro row (v4)
     is bit-identical to the scalar simulator and not slower than it
     (relative, same run, like check 2),
  2. the EvalWorkspace path is not slower than the reference
     CostMatrix::build path it replaced (relative check, same machine and
     same run, so it is immune to host speed differences), and
  3. the per-call time stays within a generous absolute envelope of the
     committed BENCH_PR4 baseline — a backstop that catches a
     catastrophically deoptimized build (wrong flags, accidental O0)
     without flaking on slower CI hosts, and
  4. the width-14 EvalWorkspace OptForPart is not slower than the
     reference opt_for_part in the same run (relative, like check 2) and
     allocates at most the two result vectors per call in steady state
     (docs/performance.md).
"""

import json
import sys

# BENCH_PR4.json width-16 cost_matrix new_ns_per_call, measured on the
# reference dev VM. CI hosts differ, hence the wide tolerance.
BASELINE_NS = 83017.2
ABSOLUTE_TOLERANCE = 4.0
RELATIVE_SLACK = 1.15  # timing noise allowance for new_ns <= old_ns
# Steady-state heap allocations of one workspace OptForPart call: the
# returned pattern and type vectors.
OPT_FOR_PART_MAX_ALLOCS = 2


def main() -> int:
    with open(sys.argv[1]) as f:
        report = json.load(f)

    assert report["schema"] == "dalut-bench-report-v4", report["schema"]
    config = report["config"]
    for key in ("simd_isa", "simd_lanes", "table_load"):
        assert key in config, f"config missing {key}"
    assert config["simd_lanes"] >= 1
    assert config["table_load"] in ("mmap", "copy")

    stream = report["stream"]
    assert stream["bit_identical"] is True, (
        "batched stream_simulate diverged from the scalar simulate() loop")
    batched_ns, scalar_ns = (stream["batched_ns_per_read"],
                             stream["scalar_ns_per_read"])
    assert batched_ns > 0, stream
    assert batched_ns <= scalar_ns * RELATIVE_SLACK, (
        f"stream_simulate slower than the scalar simulate() loop: "
        f"batched {batched_ns:.2f} ns/read > scalar {scalar_ns:.2f} ns/read "
        f"* {RELATIVE_SLACK}")

    rows = [m for m in report["micro"]
            if m["kernel"] == "cost_matrix" and m["width"] == 16]
    assert rows, "width-16 cost_matrix row missing from micro section"
    row = rows[0]

    old_ns, new_ns = row["old_ns_per_call"], row["new_ns_per_call"]
    assert new_ns > 0, row
    assert new_ns <= old_ns * RELATIVE_SLACK, (
        f"width-16 cost_matrix regressed vs the reference path: "
        f"new {new_ns:.0f} ns > old {old_ns:.0f} ns * {RELATIVE_SLACK}")
    assert new_ns <= BASELINE_NS * ABSOLUTE_TOLERANCE, (
        f"width-16 cost_matrix far above the BENCH_PR4 baseline: "
        f"{new_ns:.0f} ns > {BASELINE_NS:.0f} ns * {ABSOLUTE_TOLERANCE}")

    opt_rows = [m for m in report["micro"]
                if m["kernel"] == "opt_for_part" and m["width"] == 14]
    assert opt_rows, "width-14 opt_for_part row missing from micro section"
    opt = opt_rows[0]
    opt_old, opt_new = opt["old_ns_per_call"], opt["new_ns_per_call"]
    assert opt_new > 0, opt
    assert opt_new <= opt_old * RELATIVE_SLACK, (
        f"width-14 opt_for_part regressed vs the reference path: "
        f"new {opt_new:.0f} ns > old {opt_old:.0f} ns * {RELATIVE_SLACK}")
    assert opt["new_allocs_per_call"] <= OPT_FOR_PART_MAX_ALLOCS, (
        f"width-14 opt_for_part allocates {opt['new_allocs_per_call']} "
        f"times per call, more than {OPT_FOR_PART_MAX_ALLOCS}")

    print(f"ok: cost_matrix w16 new {new_ns:.0f} ns (old {old_ns:.0f} ns, "
          f"baseline {BASELINE_NS:.0f} ns), isa={config['simd_isa']} "
          f"lanes={config['simd_lanes']} table_load={config['table_load']}, "
          f"opt_for_part w14 new {opt_new:.0f} ns (old {opt_old:.0f} ns, "
          f"{opt['new_allocs_per_call']:.2f} allocs/call), "
          f"stream w{stream['width']} {batched_ns:.2f} ns/read "
          f"(scalar {scalar_ns:.2f} ns/read) bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
