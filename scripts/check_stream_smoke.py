#!/usr/bin/env python3
"""CI smoke guard over a dalut_stream JSON report.

Usage: check_stream_smoke.py <report.json>

Asserts that:

  1. the report is schema v4 with a stream section covering both target
     forms (the exact monolithic LUT and the BTO-Normal-ND system),
  2. every row is bit-identical — the batched single-stream path AND the
     multi-producer engine returned the exact SimulationReport of the
     scalar simulate() loop (the engine's core contract),
  3. throughput numbers are present and positive for all three paths
     (relative speed is NOT asserted: CI hosts are too noisy for that;
     the committed BENCH_PR10.json records reference numbers), and
  4. every requested mid-stream reconfiguration was observed by the
     consumer and its measured latency fields are sane
     (0 < min <= mean <= max), and
  5. the config records the host's CPU count and whether the run was
     oversubscribed (producers + consumer + reconfiguration writer >
     host_cpus), so oversubscribed rows can be told apart, and
  6. the BTO-Normal-ND swaps re-flattened at least one unit each on
     average (reconfig.units_reflattened >= 1), so their latency measures
     real re-programming rather than a no-op diff.
"""

import json
import sys

EXPECTED_TARGETS = {"monolithic", "bto_normal_nd"}


def main() -> int:
    with open(sys.argv[1]) as f:
        report = json.load(f)

    assert report["schema"] == "dalut-bench-report-v4", report["schema"]
    config = report["config"]
    for key in ("benchmark", "width", "producers", "batch_size",
                "ring_capacity", "reads", "reconfigs", "seed"):
        assert key in config, f"config missing {key}"
    assert config["producers"] >= 1
    assert config["reconfigs"] >= 1
    for key in ("host_cpus", "oversubscribed"):
        assert key in config, f"config missing {key}"
    assert isinstance(config["oversubscribed"], bool), config
    assert config["oversubscribed"] == (
        config["producers"] + 2 > config["host_cpus"]), config

    rows = {row["target"]: row for row in report["stream"]}
    missing = EXPECTED_TARGETS - rows.keys()
    assert not missing, f"stream section missing targets: {missing}"

    for name, row in rows.items():
        assert row["bit_identical"] is True, (
            f"{name}: batched report diverged from the scalar simulate()")
        for key in ("scalar_reads_per_sec", "stream_reads_per_sec",
                    "engine_reads_per_sec"):
            assert row[key] > 0, f"{name}: {key} not positive: {row[key]}"
        assert row["batches"] >= 1, row

        reconfig = row["reconfig"]
        assert reconfig["count"] == config["reconfigs"], reconfig
        assert reconfig["observed"] == reconfig["count"], (
            f"{name}: consumer observed {reconfig['observed']} of "
            f"{reconfig['count']} reconfigurations")
        lat_min = reconfig["latency_us_min"]
        lat_mean = reconfig["latency_us_mean"]
        lat_max = reconfig["latency_us_max"]
        assert 0 < lat_min <= lat_mean <= lat_max, reconfig

    nd_reconfig = rows["bto_normal_nd"]["reconfig"]
    assert nd_reconfig["units_reflattened"] >= 1, (
        f"bto_normal_nd swaps re-flattened "
        f"{nd_reconfig['units_reflattened']} units per swap")

    mono = rows["monolithic"]
    print(f"ok: {len(rows)} stream targets bit-identical; monolithic "
          f"{mono['engine_reads_per_sec']:.0f} reads/s on "
          f"{config['producers']} producers, reconfig "
          f"{mono['reconfig']['latency_us_mean']:.1f} us mean "
          f"({mono['reconfig']['observed']} observed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
