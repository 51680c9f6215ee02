// Streaming-engine benchmark: batched LUT serving throughput and runtime
// reconfiguration latency (docs/streaming.md).
//
// For an exact monolithic LUT and a BS-SA-searched BTO-Normal-ND system it
// measures, on the same random sample sequence:
//
//   * the scalar simulate() loop (the baseline the engine replaces),
//   * the single-stream batched path (stream_simulate), asserting the
//     SimulationReport is bit-identical to the scalar loop,
//   * the multi-producer StreamEngine (SPSC rings + deterministic drain),
//     sharded so the merged order equals the original sequence — its report
//     must also be bit-identical,
//
// then times `--reconfigs` mid-stream content swaps against a live consumer
// (full reconfiguration latency: retire wait + reprogram + publish + first
// retire on the new epoch). Results go to stdout or `--out` as
// schema dalut-bench-report-v4 JSON with a "stream" section
// (BENCH_PR10.json in the repo records a reference run; CI validates a
// smoke run with scripts/check_stream_smoke.py). `--listen` exposes the
// stream.* counters on a live /metrics endpoint while the tool runs.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/bssa.hpp"
#include "func/registry.hpp"
#include "hw/stream_engine.hpp"
#include "obs/exporter.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using namespace dalut;

core::MultiOutputFunction make_function(const std::string& name,
                                        unsigned width) {
  const auto spec = func::benchmark_by_name(name, width);
  if (!spec) {
    throw std::invalid_argument("unknown benchmark: " + name);
  }
  return core::MultiOutputFunction::from_eval(spec->num_inputs,
                                              spec->num_outputs, spec->eval);
}

std::vector<core::InputWord> make_sequence(std::size_t count, unsigned width,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::InputWord> sequence(count);
  const std::uint64_t domain = std::uint64_t{1} << width;
  for (auto& x : sequence) {
    x = static_cast<core::InputWord>(rng.next_below(domain));
  }
  return sequence;
}

struct ReconfigStats {
  std::size_t count = 0;
  std::uint64_t observed = 0;  ///< epoch advances the consumer saw
  double min_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  double units_reflattened = 0.0;  ///< per swap (0 for a monolithic LUT)
};

struct StreamRow {
  std::string target;
  double scalar_rps = 0.0;
  double stream_rps = 0.0;
  double engine_rps = 0.0;
  bool bit_identical = false;
  std::size_t batches = 0;
  std::uint64_t wait_spins = 0;
  ReconfigStats reconfig;
};

/// Pushes chunk j of `sequence` (batch-size granules) to ring j % producers:
/// under the engine's deterministic round-robin drain the merged order then
/// equals `sequence` itself, so the engine report can be compared against
/// the scalar report with operator==.
void run_producers(hw::StreamEngine& engine,
                   const std::vector<core::InputWord>& sequence,
                   std::size_t batch, std::vector<std::thread>& threads) {
  const std::size_t producers = engine.num_producers();
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &sequence, batch, producers, p] {
      auto& ring = engine.ring(p);
      for (std::size_t chunk = p * batch; chunk < sequence.size();
           chunk += producers * batch) {
        const std::size_t take =
            std::min(batch, sequence.size() - chunk);
        std::size_t pushed = 0;
        while (pushed < take) {
          pushed += ring.try_push(sequence.data() + chunk + pushed,
                                  take - pushed);
          if (pushed < take) std::this_thread::yield();
        }
      }
      ring.close();
    });
  }
}

/// Times `reconfigs` content swaps against a dedicated live consumer that
/// keeps evaluating batches throughout, so each latency includes a real
/// in-flight batch finishing on the old table. `swap(i)` publishes swap i
/// and returns the new epoch.
template <typename Swap>
ReconfigStats measure_reconfig(hw::StreamTarget& target, unsigned reconfigs,
                               unsigned width, std::uint64_t seed,
                               Swap&& swap) {
  const auto batch = make_sequence(4096, width, seed);
  std::vector<core::OutputWord> y(batch.size());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observed{0};
  std::thread consumer([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t epoch = 0;
      const hw::TableImage& image = target.acquire(epoch);
      target.eval_batch(image, batch.data(), y.data(), batch.size());
      target.mark_applied(epoch);
      if (epoch != last) {
        observed.fetch_add(epoch - last, std::memory_order_relaxed);
        last = epoch;
      }
    }
  });

  ReconfigStats stats;
  stats.count = reconfigs;
  const std::uint64_t reflattened = target.units_reflattened();
  double total = 0.0;
  for (unsigned i = 0; i < reconfigs; ++i) {
    util::WallTimer timer;
    const std::uint64_t epoch = swap(i);
    while (target.applied_epoch() < epoch) std::this_thread::yield();
    const double us = timer.seconds() * 1e6;
    total += us;
    stats.min_us = i == 0 ? us : std::min(stats.min_us, us);
    stats.max_us = std::max(stats.max_us, us);
  }
  stats.mean_us = reconfigs > 0 ? total / reconfigs : 0.0;
  stats.units_reflattened =
      reconfigs > 0 ? static_cast<double>(target.units_reflattened() -
                                          reflattened) /
                          reconfigs
                    : 0.0;
  stop.store(true, std::memory_order_release);
  consumer.join();
  stats.observed = observed.load(std::memory_order_relaxed);
  return stats;
}

template <typename Compile>
StreamRow bench_target(const std::string& name, const hw::Technology& tech,
                       const core::MultiOutputFunction& reference,
                       const std::vector<core::InputWord>& sequence,
                       const hw::SimulationReport& scalar,
                       double scalar_seconds, std::size_t producers,
                       const hw::StreamConfig& config, Compile&& compile) {
  StreamRow row;
  row.target = name;
  row.scalar_rps = scalar_seconds > 0
                       ? static_cast<double>(sequence.size()) / scalar_seconds
                       : 0.0;

  // Single-stream batched path.
  auto target = compile();
  util::WallTimer timer;
  const auto batched = hw::stream_simulate(target, sequence, &reference, tech,
                                           config.batch_size);
  const double stream_seconds = timer.seconds();
  row.stream_rps = stream_seconds > 0
                       ? static_cast<double>(sequence.size()) / stream_seconds
                       : 0.0;

  // Multi-producer engine, sharded to reproduce the scalar order.
  hw::StreamEngine engine(target, tech, producers, config);
  std::vector<std::thread> threads;
  run_producers(engine, sequence, config.batch_size, threads);
  const auto engine_report = engine.run(&reference);
  for (auto& t : threads) t.join();

  row.engine_rps = engine_report.reads_per_sec;
  row.batches = engine_report.batches;
  row.wait_spins = engine_report.wait_spins;
  row.bit_identical = batched == scalar && engine_report.sim == scalar;
  return row;
}

void write_json(std::FILE* out, const std::vector<StreamRow>& rows,
                const std::string& benchmark, unsigned width,
                std::size_t producers, const hw::StreamConfig& config,
                std::size_t reads, unsigned reconfigs, std::uint64_t seed) {
  // Producers + the consumer + the reconfiguration writer: rows measured
  // with more threads than CPUs time the scheduler, not the engine.
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const bool oversubscribed = producers + 2 > host_cpus;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"dalut-bench-report-v4\",\n");
  std::fprintf(out,
               "  \"config\": {\"benchmark\": \"%s\", \"width\": %u, "
               "\"producers\": %zu, \"batch_size\": %zu, "
               "\"ring_capacity\": %zu, \"reads\": %zu, \"reconfigs\": %u, "
               "\"seed\": %llu, \"simd_isa\": \"%s\", \"simd_lanes\": %u, "
               "\"host_cpus\": %u, \"oversubscribed\": %s},\n",
               benchmark.c_str(), width, producers, config.batch_size,
               config.ring_capacity, reads, reconfigs,
               static_cast<unsigned long long>(seed), util::simd::isa_name(),
               static_cast<unsigned>(util::simd::kLanes), host_cpus,
               oversubscribed ? "true" : "false");
  std::fprintf(out, "  \"stream\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        out,
        "    {\"target\": \"%s\", \"scalar_reads_per_sec\": %.1f, "
        "\"stream_reads_per_sec\": %.1f, \"engine_reads_per_sec\": %.1f, "
        "\"speedup_vs_scalar\": %.3f, \"bit_identical\": %s, "
        "\"batches\": %zu, \"wait_spins\": %llu,\n"
        "     \"reconfig\": {\"count\": %zu, \"observed\": %llu, "
        "\"latency_us_min\": %.2f, \"latency_us_mean\": %.2f, "
        "\"latency_us_max\": %.2f, \"units_reflattened\": %.2f}}%s\n",
        r.target.c_str(), r.scalar_rps, r.stream_rps, r.engine_rps,
        r.scalar_rps > 0 ? r.stream_rps / r.scalar_rps : 0.0,
        r.bit_identical ? "true" : "false", r.batches,
        static_cast<unsigned long long>(r.wait_spins), r.reconfig.count,
        static_cast<unsigned long long>(r.reconfig.observed),
        r.reconfig.min_us, r.reconfig.mean_us, r.reconfig.max_us,
        r.reconfig.units_reflattened, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Benchmarks the batched streaming engine against the scalar simulator "
      "and times runtime LUT reconfiguration; emits schema-v4 JSON.");
  cli.add_option("benchmark", "cos", "function family to serve");
  cli.add_option("width", "10", "input/output bit width n");
  // Producers + the consumer + the reconfiguration writer should fit the
  // host: more threads than CPUs time the scheduler, not the engine.
  const int host_cpus =
      static_cast<int>(std::thread::hardware_concurrency());
  cli.add_option("producers", std::to_string(std::clamp(host_cpus - 2, 1, 4)),
                 "producer threads feeding the engine; defaults to host "
                 "CPUs - 2, clamped to [1, 4]");
  cli.add_option("batch", "1024", "samples per batch");
  cli.add_option("ring", "16384", "per-producer ring capacity");
  cli.add_option("reads", "1048576", "sample count of the throughput run");
  cli.add_option("reconfigs", "8", "timed mid-stream content swaps");
  cli.add_option("seed", "1", "RNG seed for the sample sequence");
  cli.add_option("out", "-", "output JSON path ('-' = stdout)");
  cli.add_option("listen", "",
                 "host:port for a live /metrics endpoint (empty = off)");
  if (!cli.parse(argc, argv)) return 0;

  // The options are read through static_cast to size_t / unsigned, so a
  // value out of range would wrap: --batch 0 never advanced the producers
  // and --reconfigs -1 asked for 4294967295 swaps. --width must leave the
  // searched system's bound set, max(2, width / 2) inputs, a proper subset
  // (width >= 3) and fit the monolithic LUT's address decoder.
  constexpr std::tuple<const char*, std::int64_t, std::int64_t> kRanges[] = {
      {"width", 3, hw::LutRam::kMaxAddrBits},
      {"producers", 1, std::numeric_limits<std::int64_t>::max()},
      {"batch", 1, std::numeric_limits<std::int64_t>::max()},
      {"ring", 1, std::numeric_limits<std::int64_t>::max()},
      {"reads", 1, std::numeric_limits<std::int64_t>::max()},
      {"reconfigs", 1, std::numeric_limits<unsigned>::max()}};
  for (const auto& [name, min, max] : kRanges) {
    const std::int64_t value = cli.integer(name);
    if (value < min || value > max) {
      std::fprintf(stderr, "error: --%s must be an integer in [%lld, %lld]\n",
                   name, static_cast<long long>(min),
                   static_cast<long long>(max));
      return 2;
    }
  }

  const auto benchmark = cli.str("benchmark");
  const auto width = static_cast<unsigned>(cli.integer("width"));
  const auto producers = static_cast<std::size_t>(cli.integer("producers"));
  const auto reads = static_cast<std::size_t>(cli.integer("reads"));
  const auto reconfigs = static_cast<unsigned>(cli.integer("reconfigs"));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  hw::StreamConfig config;
  config.batch_size = static_cast<std::size_t>(cli.integer("batch"));
  config.ring_capacity = static_cast<std::size_t>(cli.integer("ring"));

  obs::MetricsExporter exporter;
  const auto listen_spec = cli.str("listen");
  if (!listen_spec.empty()) {
    util::telemetry::set_metrics_enabled(true);
    try {
      const auto [host, port] = obs::parse_listen_spec(listen_spec);
      obs::ExporterOptions exporter_options;
      exporter_options.host = host;
      exporter_options.port = port;
      exporter.start(exporter_options);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    std::fprintf(stderr, "observability: listening on http://%s (/metrics)\n",
                 exporter.endpoint().c_str());
    std::fflush(stderr);
  }

  try {
    const auto tech = hw::Technology::nangate45();
    const auto g = make_function(benchmark, width);
    const auto sequence = make_sequence(reads, width, seed);
    std::vector<StreamRow> rows;

    // ---- Exact monolithic LUT ------------------------------------------
    {
      std::vector<std::uint32_t> contents(g.values().begin(),
                                          g.values().end());
      const hw::MonolithicLut lut(width, g.num_outputs(), contents, tech);
      util::WallTimer timer;
      const auto scalar = hw::simulate(hw::make_target(lut, g.num_outputs()),
                                       sequence, &g, tech);
      const double scalar_seconds = timer.seconds();
      auto row = bench_target(
          "monolithic", tech, g, sequence, scalar, scalar_seconds, producers,
          config,
          [&] { return hw::StreamTarget::compile(lut, g.num_outputs()); });

      // Reconfiguration latency: swap between the exact table and its
      // bitwise complement (every entry re-programmed each swap).
      std::vector<std::uint32_t> flipped(contents);
      const std::uint32_t mask =
          g.num_outputs() >= 32
              ? ~std::uint32_t{0}
              : (std::uint32_t{1} << g.num_outputs()) - 1;
      for (auto& v : flipped) v = ~v & mask;
      const hw::MonolithicLut lut_flipped(width, g.num_outputs(), flipped,
                                          tech);
      auto target = hw::StreamTarget::compile(lut, g.num_outputs());
      row.reconfig = measure_reconfig(
          target, reconfigs, width, seed + 1, [&](unsigned i) {
            return target.reconfigure(i % 2 == 0 ? lut_flipped : lut);
          });
      rows.push_back(row);
    }

    // ---- BS-SA searched BTO-Normal-ND system ---------------------------
    {
      core::BssaParams params;
      params.bound_size = std::max(2u, width / 2);
      params.rounds = 2;
      params.beam_width = 2;
      params.sa.partition_limit = 12;
      params.sa.init_patterns = 6;
      params.seed = 3;
      const auto dist = core::InputDistribution::uniform(width);
      const auto searched = core::run_bssa(g, dist, params);
      const auto lut = searched.realize(width);
      const auto reference = lut.to_function();
      const hw::ApproxLutSystem system(hw::ArchKind::kBtoNormalNd, lut, tech);

      util::WallTimer timer;
      const auto scalar =
          hw::simulate(hw::make_target(system), sequence, &reference, tech);
      const double scalar_seconds = timer.seconds();
      auto row = bench_target(
          "bto_normal_nd", tech, reference, sequence, scalar, scalar_seconds,
          producers, config,
          [&] { return hw::StreamTarget::compile(system); });

      // Content re-programming of the same structure (partitions and modes
      // are frozen at compile): swap i programs the searched system with
      // output bit i mod m's pattern complemented. The image a swap writes
      // held the system of two swaps earlier, so every swap re-flattens
      // the units that differ from it (one or two).
      std::vector<hw::ApproxLutSystem> flipped;
      for (unsigned k = 0; k < g.num_outputs(); ++k) {
        auto settings = searched.settings;
        for (auto* pattern : {&settings[k].pattern, &settings[k].pattern0,
                              &settings[k].pattern1}) {
          for (auto& v : *pattern) v ^= 1;
        }
        flipped.emplace_back(hw::ArchKind::kBtoNormalNd,
                             core::ApproxLut::realize(width, settings), tech);
      }
      auto target = hw::StreamTarget::compile(system);
      row.reconfig = measure_reconfig(
          target, reconfigs, width, seed + 2, [&](unsigned i) {
            return target.reconfigure(flipped[i % flipped.size()]);
          });
      rows.push_back(row);
    }

    for (const auto& r : rows) {
      std::fprintf(stderr,
                   "%-14s scalar %12.0f r/s  stream %12.0f r/s  engine "
                   "%12.0f r/s  identical=%s  reconfig %.1f us mean, "
                   "%.2f units re-flattened\n",
                   r.target.c_str(), r.scalar_rps, r.stream_rps, r.engine_rps,
                   r.bit_identical ? "yes" : "NO", r.reconfig.mean_us,
                   r.reconfig.units_reflattened);
      if (!r.bit_identical) {
        std::fprintf(stderr,
                     "error: %s batched report diverged from simulate()\n",
                     r.target.c_str());
        return 1;
      }
    }

    const std::string out_path = cli.str("out");
    std::FILE* out =
        out_path == "-" ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    write_json(out, rows, benchmark, width, producers, config, reads,
               reconfigs, seed);
    if (out != stdout) {
      std::fclose(out);
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
