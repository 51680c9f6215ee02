#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/bit_cost.hpp"
#include "core/decomposition.hpp"
#include "core/eval_workspace.hpp"
#include "core/evaluate.hpp"
#include "func/registry.hpp"
#include "hw/architectures.hpp"
#include "hw/simulator.hpp"
#include "hw/stream_engine.hpp"
#include "serve.hpp"
#include "suite/suite_runner.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace core = dalut::core;
namespace func = dalut::func;
namespace hw = dalut::hw;
namespace suite = dalut::suite;
namespace telemetry = dalut::util::telemetry;
using dalut::util::ThreadPool;

namespace {

constexpr unsigned kWidth = 14;
constexpr std::size_t kCheckReads = std::size_t{1} << 16;
constexpr std::size_t kShardReads = std::size_t{1} << 16;
/// p99 is taken per window of this many consecutive swaps (ten lie beyond
/// it) and the median over the windows is reported.
constexpr std::size_t kSwapWindow = 1000;
/// Swaps of one ND reconfiguration phase: three p99 windows.
constexpr std::size_t kNdSwaps = 3 * kSwapWindow;
constexpr std::size_t kMonoSwapsPerRun = 100;
constexpr std::chrono::microseconds kMonoSwapPeriod{2000};
constexpr std::chrono::microseconds kNdSwapPeriod{1000};
/// Passes of each producer shard per serve_nd14 engine run (2^18 reads).
constexpr std::size_t kNdPasses = 2;
constexpr int kSetupRepeats = 3;
constexpr int kMonoSetupRepeats = 15;
/// ND batches are short so a swap retires well inside its 1 ms schedule.
constexpr hw::StreamConfig kNdConfig{128, std::size_t{1} << 14};
constexpr hw::StreamConfig kMonoConfig{1024, std::size_t{1} << 14};
constexpr unsigned kServeThreads = kProducers + 2;  // + consumer + writer

/// Distinct, reproducible sample streams derived from the run seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

core::MultiOutputFunction load_function(const std::string& name) {
  const auto spec = func::benchmark_by_name(name, kWidth);
  if (!spec) throw std::invalid_argument("unknown benchmark " + name);
  return core::MultiOutputFunction::from_eval(spec->num_inputs,
                                              spec->num_outputs, spec->eval);
}

// ---- Suite jobs ---------------------------------------------------------

/// One BS-SA job of the search manifest. The seed is fixed so MED and the
/// served design are exact; --seed varies the sample streams.
suite::SuiteJob bssa_job(const std::string& benchmark, unsigned rounds,
                         unsigned partitions) {
  suite::SuiteJob job;
  job.name = benchmark;
  job.benchmark = benchmark;
  job.width = kWidth;
  job.algorithm = "bssa";
  job.arch = "bto-normal-nd";
  job.rounds = rounds;
  job.partitions = partitions;
  job.patterns = 12;
  job.seed = 1;
  return job;
}

suite::Manifest search_manifest(bool fail_job) {
  suite::Manifest m;
  for (const char* name : {"cos", "exp", "ln"}) {
    m.jobs.push_back(bssa_job(name, 3, 60));
  }
  if (fail_job) m.jobs.back().benchmark = "no-such-function";
  return m;
}

/// Small manifest over the same functions: starts the pool threads and
/// builds their width-14 EvalWorkspace scratch before timing.
suite::Manifest warmup_manifest() {
  suite::Manifest m;
  for (const char* name : {"cos", "exp", "ln"}) {
    m.jobs.push_back(bssa_job(name, 2, 8));
  }
  return m;
}

suite::SuiteReport run_manifest(const suite::Manifest& manifest,
                                ThreadPool& pool) {
  suite::SuiteOptions options;
  options.pool = &pool;
  return suite::run_suite(manifest, options);
}

/// "" when the job completed cleanly, else why not.
std::string job_problem(const suite::JobOutcome& out) {
  if (!out.error.empty()) return "job " + out.job.name + ": " + out.error;
  if (!out.started || out.status != dalut::util::RunStatus::kCompleted) {
    return "job " + out.job.name + " did not complete";
  }
  return "";
}

/// Counts every job as an operation; records failures. True if all passed.
bool check_jobs(const suite::SuiteReport& report, Result& result) {
  bool ok = true;
  for (const auto& out : report.outcomes) {
    const std::string problem = job_problem(out);
    result.op(problem.empty());
    if (!problem.empty()) {
      result.fail(problem);
      ok = false;
    }
  }
  return ok;
}

// ---- Telemetry counters -------------------------------------------------

using Counters = std::map<std::string, double>;

Counters read_counters() {
  static const char* const kNames[] = {
      "evalcache.gathers", "evalcache.slices", "evalcache.hits",
      "evalcache.misses",  "sa.evaluated",     "sa.sweeps",
      "sa.proposals",      "sa.dedup_skipped", "bssa.nd_trials",
      "bssa.bit_steps",    "pool.idle_ns"};
  const auto snapshot = telemetry::snapshot_metrics();
  Counters c;
  for (const char* name : kNames) {
    c[name] = static_cast<double>(snapshot.counter_value(name));
  }
  return c;
}

/// Search-side numbers of the traced segments of a run.
struct SearchTrace {
  Counters counts;            ///< summed over traced segments
  int segments = 0;
  std::vector<double> walls;  ///< traced segment wall times
  std::vector<double> job_s;  ///< traced job runtimes
};

/// Runs `body` with metrics on and adds its counter deltas to `trace`.
template <typename Body>
double traced_segment(SearchTrace& trace, Body&& body) {
  const Counters before = read_counters();
  telemetry::set_metrics_enabled(true);
  const auto t0 = Clock::now();
  body();
  const double wall = seconds_between(t0, Clock::now());
  telemetry::set_metrics_enabled(false);
  const Counters after = read_counters();
  for (const auto& [name, value] : after) {
    trace.counts[name] += value - before.at(name);
  }
  ++trace.segments;
  trace.walls.push_back(wall);
  return wall;
}

void add_job_times(SearchTrace& trace, const suite::SuiteReport& report) {
  for (const auto& out : report.outcomes) {
    trace.job_s.push_back(out.record.runtime_seconds);
  }
}

/// Runs a set-up manifest on its own pool, destroyed before serving starts.
/// With `traced`, records its search counters and job times in `trace`.
suite::SuiteReport run_setup_manifest(const suite::Manifest& manifest,
                                      unsigned workers, bool traced,
                                      SearchTrace& trace) {
  ThreadPool pool(workers);
  if (!traced) return run_manifest(manifest, pool);
  suite::SuiteReport report;
  traced_segment(trace, [&] { report = run_manifest(manifest, pool); });
  add_job_times(trace, report);
  return report;
}

// ---- Search-layer probes ------------------------------------------------

struct Probes {
  double opt_us = 0.0;
  double gather_us = 0.0;
  double slice_us = 0.0;
  double bit_cost_ms = 0.0;
  double opt_cond_us = 0.0;  ///< OptForPart on an ND conditioned slice
};

/// Times the search layers' public calls on the workload's function (cos,
/// width 14) with the manifest's bound size (8) and Z (12). Cost arrays are
/// those of a refinement round over `approx` (the searched design where
/// the workload has one, else the exact table), one per output bit.
Probes probe_search_layers(unsigned workers,
                           const std::vector<core::OutputWord>& approx,
                           SpanLog& spans) {
  SpanLog::Scope span(spans, "probe.search_layers");
  ThreadPool pool(workers);
  const auto g = load_function("cos");
  const auto dist = core::InputDistribution::uniform(kWidth);
  constexpr unsigned kBound = 8;
  constexpr int kPartitionsPerBit = 24;
  const core::OptForPartParams params{12, 64};
  auto& ws = core::EvalWorkspace::local();
  dalut::util::Rng rng(7);
  std::vector<double> bit_ms, gather_us, slice_us, opt_us, opt_cond_us;
  for (unsigned k = 0; k < kWidth; ++k) {
    const auto t0 = Clock::now();
    const auto costs =
        core::build_bit_costs(g, approx, k, core::LsbModel::kCurrentApprox,
                              dist, core::CostMetric::kMed, &pool);
    bit_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    // Distinct partitions, each gathered once: first sightings never reach
    // the gather memo, so every call does the scattered gather. The first
    // call per bit also builds the interleaved source mirror; it is not
    // timed.
    std::map<std::uint32_t, core::Partition> distinct;
    while (distinct.size() < kPartitionsPerBit + 1) {
      const auto p = core::Partition::random(kWidth, kBound, rng);
      distinct.emplace(p.bound_mask(), p);
    }
    const core::CostView view = costs;
    bool first = true;
    for (const auto& [mask, p] : distinct) {
      const auto t1 = Clock::now();
      const core::MatrixRef full = ws.full_matrix(p, view);
      const auto t2 = Clock::now();
      const std::uint32_t shared = mask & (~mask + 1);  // lowest bound input
      const auto& cond = ws.conditioned(full, p, shared, 0);
      const auto t3 = Clock::now();
      const auto vt = ws.opt_for_part(full, params, rng);
      const auto t4 = Clock::now();
      const auto vt_cond = ws.opt_for_part(cond, params, rng);
      const auto t5 = Clock::now();
      if (vt_cond.pattern.empty() || vt.pattern.empty()) {
        throw std::runtime_error("probe produced an empty matrix or result");
      }
      if (first) {
        first = false;
        continue;
      }
      gather_us.push_back(seconds_between(t1, t2) * 1e6);
      slice_us.push_back(seconds_between(t2, t3) * 1e6);
      opt_us.push_back(seconds_between(t3, t4) * 1e6);
      opt_cond_us.push_back(seconds_between(t4, t5) * 1e6);
    }
  }
  Probes probes;
  probes.bit_cost_ms = median(bit_ms);
  probes.gather_us = median(gather_us);
  probes.slice_us = median(slice_us);
  probes.opt_us = median(opt_us);
  probes.opt_cond_us = median(opt_cond_us);
  return probes;
}

/// Sets every search-layer metric; returns the share of wall x workers
/// that the layers (kernels, bit costs, pool idle) leave unexplained.
double report_search_layers(Result& result, const SearchTrace& trace,
                            const Probes& probes, unsigned workers) {
  const double n = std::max(1, trace.segments);
  auto per = [&](const char* name) { return trace.counts.at(name) / n; };
  const double gathers = per("evalcache.gathers");
  const double slices = per("evalcache.slices");
  const double lookups = per("evalcache.hits") + per("evalcache.misses");
  const double evaluated = per("sa.evaluated");
  const double proposals = per("sa.proposals");
  result.set("eval.opt_for_part_us", probes.opt_us);
  result.set("eval.gather_us", probes.gather_us);
  result.set("eval.slice_us", probes.slice_us);
  result.set("bit_cost.ms", probes.bit_cost_ms);
  result.set("eval.gathers", gathers);
  result.set("eval.slices", slices);
  result.set("eval.memo_hit_ratio",
             lookups > 0 ? per("evalcache.hits") / lookups : 0.0);
  result.set("sa.evaluated", evaluated);
  result.set("sa.sweeps", per("sa.sweeps"));
  result.set("sa.dedup_ratio",
             proposals > 0 ? per("sa.dedup_skipped") / proposals : 0.0);
  result.set("bssa.nd_trials", per("bssa.nd_trials"));
  result.set("suite.job_s_p50", median(trace.job_s));
  result.set("suite.job_s_max",
             trace.job_s.empty()
                 ? 0.0
                 : *std::max_element(trace.job_s.begin(), trace.job_s.end()));

  // Estimated worker-seconds per layer: count x single-call probe time.
  // Every SA evaluation is one OptForPart call on a full matrix and every
  // ND slice one on the slice; one cost build per bit step.
  const double worker_s = median(trace.walls) * workers;
  const double kernel_s = (gathers * probes.gather_us +
                           slices * (probes.slice_us + probes.opt_cond_us) +
                           evaluated * probes.opt_us) *
                          1e-6;
  const double bit_cost_s = per("bssa.bit_steps") * probes.bit_cost_ms * 1e-3;
  const double idle_s = per("pool.idle_ns") * 1e-9;
  const auto share = [&](double s) {
    return worker_s > 0 ? s / worker_s : 0.0;
  };
  result.set("eval.kernel_share", share(kernel_s));
  result.set("pool.idle_share", share(idle_s));
  std::fprintf(stderr,
               "search layers per segment (%.3f s wall x %u workers = %.3f "
               "worker-s): kernels %.3f, bit costs %.3f, pool idle %.3f, "
               "unattributed %.3f worker-s\n",
               median(trace.walls), workers, worker_s, kernel_s, bit_cost_s,
               idle_s, worker_s - kernel_s - bit_cost_s - idle_s);
  return worker_s > 0 ? 1.0 - share(kernel_s + bit_cost_s + idle_s) : 0.0;
}

// ---- ND designs ---------------------------------------------------------

/// A searched design realized for hardware. `served` is what gets compiled
/// and streamed; it equals `system` unless a flipped table word is being
/// injected, in which case the checks against `reference` must fail.
struct NdDesign {
  core::MultiOutputFunction reference;  ///< the realized LUT's function
  hw::ApproxLutSystem system;
  hw::ApproxLutSystem served;
  double med = 0.0;
};

/// Flips one bound-table bit of the first BTO unit (whose output is that
/// table), or of the first unit if none is BTO.
std::vector<core::Setting> corrupt(std::vector<core::Setting> settings) {
  auto it = std::find_if(settings.begin(), settings.end(), [](const auto& s) {
    return s.mode == core::DecompMode::kBto && !s.pattern.empty();
  });
  if (it == settings.end()) it = settings.begin();
  auto& table = it->pattern.empty() ? it->pattern0 : it->pattern;
  table.at(0) ^= 1u;
  return settings;
}

std::unique_ptr<NdDesign> realize_design(const suite::JobOutcome& out,
                                         const hw::Technology& tech,
                                         bool flip_word, Result& result) {
  const auto& settings = out.record.settings;
  const auto lut = core::ApproxLut::realize(kWidth, settings);
  const auto served_lut =
      flip_word ? core::ApproxLut::realize(kWidth, corrupt(settings)) : lut;
  auto design = std::make_unique<NdDesign>(NdDesign{
      lut.to_function(), hw::ApproxLutSystem(hw::ArchKind::kBtoNormalNd, lut,
                                             tech),
      hw::ApproxLutSystem(hw::ArchKind::kBtoNormalNd, served_lut, tech),
      out.record.med});
  // The suite's MED must be the exact MED of the realized design.
  const auto g = load_function(out.job.benchmark);
  const double med = core::mean_error_distance(
      g, lut.values(), core::InputDistribution::uniform(kWidth));
  if (med != out.record.med) {
    result.fail("job " + out.job.name + ": realized MED differs from report");
  }
  return design;
}

/// Scalar simulate() of a design on the check sequence: 0 mismatches
/// against its own function. Returns the report; adds the time per read.
hw::SimulationReport check_scalar(const NdDesign& design,
                                  const std::vector<InputWord>& sequence,
                                  const hw::Technology& tech, Result& result,
                                  std::vector<double>& ns_per_read) {
  const auto t0 = Clock::now();
  const auto report = hw::simulate(hw::make_target(design.served), sequence,
                                   &design.reference, tech);
  ns_per_read.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                        static_cast<double>(sequence.size()));
  result.op(report.mismatches == 0, sequence.size());
  if (report.mismatches != 0) {
    result.fail(std::to_string(report.mismatches) +
                " scalar simulate() reads differ from the design");
  }
  return report;
}

// ---- Serve-side reporting -----------------------------------------------

Shards make_shards(std::uint64_t seed) {
  Shards shards;
  for (std::size_t p = 0; p < kProducers; ++p) {
    shards.push_back(make_samples(kShardReads, kWidth, stream_seed(seed, 2 + p)));
  }
  return shards;
}

/// Engine-run numbers of the traced runs of a workload.
struct ServeTrace {
  std::uint64_t push_ns = 0;
  std::uint64_t pushed = 0;
  std::uint64_t short_pushes = 0;
  std::uint64_t wait_spins = 0;
  std::uint64_t batches = 0;
  std::vector<double> reads_per_s;

  void add(const RunStats& run) {
    push_ns += run.push_ns;
    pushed += run.pushed;
    short_pushes += run.short_pushes;
    wait_spins += run.report.wait_spins;
    batches += run.report.batches;
    reads_per_s.push_back(run.report.reads_per_sec);
  }
};

/// Sets the stream/ring metrics; returns the share of the measured ns/read
/// that eval, accounting and ring push leave unexplained.
double report_serve_layers(Result& result, const ServeTrace& trace,
                           const KernelTimes& kernels, double compile_ms,
                           double measured_ns_per_read) {
  const double push_ns =
      trace.pushed > 0 ? static_cast<double>(trace.push_ns) /
                             static_cast<double>(trace.pushed)
                       : 0.0;
  result.set("stream.eval_ns_per_read", kernels.eval_ns);
  result.set("stream.accounting_ns_per_read", kernels.accounting_ns);
  result.set("stream.compile_ms", compile_ms);
  result.set("stream.wait_spins_per_batch",
             trace.batches > 0 ? static_cast<double>(trace.wait_spins) /
                                     static_cast<double>(trace.batches)
                               : 0.0);
  result.set("ring.push_ns_per_read", push_ns);
  result.set("ring.short_pushes",
             trace.pushed > 0 ? static_cast<double>(trace.short_pushes) * 1e6 /
                                    static_cast<double>(trace.pushed)
                              : 0.0);
  const double explained = kernels.eval_ns + kernels.accounting_ns + push_ns;
  std::fprintf(stderr,
               "serve layers: eval %.3f + accounting %.3f + ring push %.3f = "
               "%.3f ns/read of %.3f measured\n",
               kernels.eval_ns, kernels.accounting_ns, push_ns, explained,
               measured_ns_per_read);
  return measured_ns_per_read > 0 ? 1.0 - explained / measured_ns_per_read
                                  : 0.0;
}

/// Median over consecutive kSwapWindow-swap windows of each window's
/// percentile `p`, so one burst of host stalls moves one window, not the
/// figure. Runs shorter than a window use all their samples.
double windowed_percentile(const std::vector<double>& v, double p) {
  if (v.size() < 2 * kSwapWindow) return percentile(v, p);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + kSwapWindow <= v.size(); at += kSwapWindow) {
    per_window.push_back(percentile(
        {v.begin() + static_cast<std::ptrdiff_t>(at),
         v.begin() + static_cast<std::ptrdiff_t>(at + kSwapWindow)},
        p));
  }
  return median(per_window);
}

void report_swaps(Result& result, const SwapSamples& s) {
  const double p99 = windowed_percentile(s.latency_us, 99.0);
  result.set("reconfig_p50_us", median(s.latency_us));
  result.set("reconfig_p99_us", p99);
  result.set("reconfig.swaps", static_cast<double>(s.latency_us.size()));
  result.set("reconfig.call_us_p50", median(s.call_us));
  result.set("reconfig.retire_us_p50", median(s.retire_us));
  result.set("reconfig.gen_late_us_p99", windowed_percentile(s.late_us, 99.0));
  std::fprintf(stderr,
               "reconfig: %zu swaps, latency p50 %.2f us p99 %.2f us, call "
               "p50 %.2f us, retire p50 %.2f us, writer late p99 %.2f us\n",
               s.latency_us.size(), median(s.latency_us), p99,
               median(s.call_us),
               median(s.retire_us), percentile(s.late_us, 99.0));
}

/// Counts the run's swaps and checks that the consumer saw every epoch.
void check_swaps(const RunStats& run, Result& result) {
  const bool ok = run.report.reconfigs_observed == run.swaps;
  result.op(ok, std::max<std::size_t>(run.swaps, 1));
  if (!ok) {
    result.fail("consumer observed " +
                std::to_string(run.report.reconfigs_observed) + " of " +
                std::to_string(run.swaps) + " published reconfigurations");
  }
}


/// What the timed engine runs of a serve workload measured.
struct ServeLoop {
  std::vector<double> plain_rps;   ///< reads/s of each plain run
  std::vector<double> traced_rps;  ///< reads/s of each traced run
  std::vector<double> plain_wall;  ///< s per million reads of each plain run
  std::vector<double> energy;      ///< fJ per read of every run
  ServeTrace trace;                ///< the traced runs
};

/// Engine runs until opt.seconds have passed; a traced workload run
/// alternates plain runs with traced ones (metrics on, push timing on).
template <typename RunOnce>
ServeLoop serve_loop(const Options& opt, SpanLog& spans, RunOnce&& run_once) {
  ServeLoop loop;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    SpanLog::Scope span(spans, traced ? "serve.traced" : "serve");
    telemetry::set_metrics_enabled(traced);
    const RunStats run = run_once(traced);
    telemetry::set_metrics_enabled(false);
    loop.energy.push_back(run.report.sim.avg_read_energy);
    if (traced) {
      loop.traced_rps.push_back(run.report.reads_per_sec);
      loop.trace.add(run);
    } else {
      loop.plain_rps.push_back(run.report.reads_per_sec);
      loop.plain_wall.push_back(run.wall_s * 1e6 /
                                static_cast<double>(run.report.sim.reads));
    }
    const bool enough = !opt.trace || !loop.traced_rps.empty();
    if (enough && seconds_between(start, Clock::now()) >= opt.seconds) break;
  }
  return loop;
}

/// The serve workloads' common metrics. `approx` feeds the search-layer
/// probes; `search_trace` holds the set-up job's counters.
void report_serve_workload(Result& result, const Options& opt,
                           const ServeLoop& loop, hw::StreamTarget& target,
                           const Shards& shards, const hw::Technology& tech,
                           std::size_t batch, double compile_ms,
                           const std::vector<core::OutputWord>& approx,
                           const SearchTrace& search_trace, SpanLog& spans) {
  const double rps = median(loop.plain_rps);
  result.set("wall_s", median(loop.plain_wall));
  result.set("reads_per_s", rps);
  result.set("fj_per_read", median(loop.energy));
  if (!opt.trace) return;
  const unsigned workers = host_cpus();
  report_search_layers(result, search_trace,
                       probe_search_layers(workers, approx, spans), workers);
  const KernelTimes kernels = time_kernels(target, shards[0], tech, batch);
  result.set("layers.unattributed_share",
             report_serve_layers(result, loop.trace, kernels, compile_ms,
                                 1e9 / rps));
  result.set("trace.overhead_pct",
             (rps / median(loop.traced_rps) - 1.0) * 100.0);
}

/// Re-programs an ND design kNdSwaps times on the open-loop schedule while
/// the engine serves it, then reads the whole domain back.
void nd_reconfig_phase(const NdDesign& design, hw::StreamTarget& target,
                       const Shards& shards, const Options& opt,
                       const hw::Technology& tech, Result& result,
                       SwapSamples& samples, ServeTrace& trace,
                       SpanLog& spans) {
  SpanLog::Scope span(spans, "reconfig_phase");
  const bool drop = opt.inject == "drop-reconfig";
  const SwapPlan plan{kNdSwaps, kNdSwapPeriod, [&](std::size_t i) {
                        if (drop && i == 3) return target.published_epoch();
                        return target.reconfigure(design.served);
                      }};
  telemetry::set_metrics_enabled(opt.trace);
  const RunStats run = serve_run(target, tech, kNdConfig, shards, 0, &plan,
                                 &samples, opt.trace);
  telemetry::set_metrics_enabled(false);
  trace.add(run);
  check_swaps(run, result);
  const std::size_t bad = readback_mismatches(
      target, [&](InputWord x) { return design.reference.value(x); });
  result.op(bad == 0, std::size_t{1} << kWidth);
  if (bad != 0) {
    result.fail(std::to_string(bad) + " words read back wrong after " +
                "reconfiguration");
  }
}

/// Checks the engine serving `target` against scalar simulate() of the
/// design on the check sequence.
void check_served(const NdDesign& design, hw::StreamTarget& target,
                  const std::vector<InputWord>& check,
                  const hw::Technology& tech, Result& result) {
  const std::string problem =
      check_engine(target, hw::make_target(design.system), check,
                   design.reference, tech, kNdConfig);
  result.op(problem.empty(), check.size());
  if (!problem.empty()) result.fail(problem);
}

/// Compiles an ND design into `target` and checks it; returns the compile
/// time in ms.
double deploy_design(const NdDesign& design,
                     std::optional<hw::StreamTarget>& target,
                     const std::vector<InputWord>& check,
                     const hw::Technology& tech, Result& result) {
  const auto t0 = Clock::now();
  target.emplace(hw::StreamTarget::compile(design.served));
  const double compile_ms = seconds_between(t0, Clock::now()) * 1e3;
  check_served(design, *target, check, tech, result);
  return compile_ms;
}

}  // namespace

unsigned workload_threads(unsigned cpus) {
  // Every workload runs a pool of `cpus` workers (the search, or the suite
  // job that certifies the served table) and, once the pool is gone, at
  // most two producers, the consumer and a writer.
  return std::max(cpus, kServeThreads);
}

// ---- search_nd14 --------------------------------------------------------

void run_search_nd14(const Options& opt, Result& result, SpanLog& spans) {
  const unsigned workers = host_cpus();
  const auto tech = hw::Technology::nangate45();
  const auto manifest = search_manifest(opt.inject == "fail-job");
  const auto warmup = warmup_manifest();

  std::unique_ptr<ThreadPool> pool;
  std::vector<InputWord> check;
  Shards shards;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SpanLog::Scope span(spans, "setup");
    const auto t0 = Clock::now();
    pool.reset();
    pool = std::make_unique<ThreadPool>(workers);
    check = make_samples(kCheckReads, kWidth, stream_seed(opt.seed, 1));
    shards = make_shards(opt.seed);
    run_manifest(warmup, *pool);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  result.set("setup_s", median(setups));

  // Closed loop: one manifest per repetition; traced runs alternate plain
  // and traced manifests so the pair gives the tracing overhead.
  std::vector<double> plain_walls;
  SearchTrace trace;
  suite::SuiteReport first;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    SpanLog::Scope span(spans, traced ? "manifest.traced" : "manifest");
    suite::SuiteReport report;
    if (traced) {
      traced_segment(trace, [&] { report = run_manifest(manifest, *pool); });
      add_job_times(trace, report);
    } else {
      const auto t0 = Clock::now();
      report = run_manifest(manifest, *pool);
      plain_walls.push_back(seconds_between(t0, Clock::now()));
    }
    if (!check_jobs(report, result)) return;
    if (i == 0) {
      first = report;
    } else {
      for (std::size_t j = 0; j < report.outcomes.size(); ++j) {
        const auto& a = first.outcomes[j].record;
        const auto& b = report.outcomes[j].record;
        if (a.med != b.med || a.partitions_evaluated != b.partitions_evaluated) {
          result.fail("job " + report.outcomes[j].job.name +
                      " is not deterministic across manifests");
        }
      }
    }
    const bool enough = !opt.trace || trace.segments > 0;
    if (enough && seconds_between(start, Clock::now()) >= opt.seconds) break;
  }
  pool.reset();

  const double wall = median(plain_walls);
  double med_sum = 0.0;
  double fj_sum = 0.0;
  std::vector<double> sim_ns;
  std::vector<double> compile_ms;
  std::vector<KernelTimes> kernels;
  // Every design is realized, simulated and deployed; the first (cos) is
  // then re-programmed under load.
  std::unique_ptr<NdDesign> served_design;
  std::optional<hw::StreamTarget> target;
  {
    SpanLog::Scope span(spans, "check");
    for (const auto& out : first.outcomes) {
      auto design =
          realize_design(out, tech, opt.inject == "flip-word", result);
      med_sum += design->med;
      fj_sum += check_scalar(*design, check, tech, result, sim_ns)
                    .avg_read_energy;
      std::optional<hw::StreamTarget> deployed;
      compile_ms.push_back(
          deploy_design(*design, deployed, check, tech, result));
      if (opt.trace) {
        kernels.push_back(
            time_kernels(*deployed, check, tech, kNdConfig.batch_size));
      }
      if (!served_design) {
        served_design = std::move(design);
        target.emplace(std::move(*deployed));
      }
    }
  }
  SwapSamples swaps;
  ServeTrace serve_trace;
  nd_reconfig_phase(*served_design, *target, shards, opt, tech, result, swaps,
                    serve_trace, spans);

  const double jobs = static_cast<double>(first.outcomes.size());
  result.set("wall_s", wall);
  result.set("med", med_sum / jobs);
  result.set("reads_per_s", jobs * static_cast<double>(1u << kWidth) / wall);
  result.set("fj_per_read", fj_sum / jobs);
  report_swaps(result, swaps);
  result.set("sim.scalar_ns_per_read", median(sim_ns));
  if (opt.trace) {
    const Probes probes = probe_search_layers(
        workers, served_design->reference.values(), spans);
    result.set("layers.unattributed_share",
               report_search_layers(result, trace, probes, workers));
    result.set("trace.overhead_pct",
               (median(trace.walls) / wall - 1.0) * 100.0);
    KernelTimes mean_kernels;
    for (const auto& k : kernels) {
      mean_kernels.eval_ns += k.eval_ns / static_cast<double>(kernels.size());
      mean_kernels.accounting_ns +=
          k.accounting_ns / static_cast<double>(kernels.size());
    }
    report_serve_layers(result, serve_trace, mean_kernels, median(compile_ms),
                        1e9 / median(serve_trace.reads_per_s));
  }
  result.set("peak_rss_mb", peak_rss_mb());
}

// ---- serve_nd14 ---------------------------------------------------------

void run_serve_nd14(const Options& opt, Result& result, SpanLog& spans) {
  const unsigned workers = host_cpus();
  const auto tech = hw::Technology::nangate45();
  suite::Manifest manifest;
  manifest.jobs.push_back(bssa_job("cos", 3, 60));
  if (opt.inject == "fail-job") manifest.jobs[0].benchmark = "no-such-function";

  std::unique_ptr<NdDesign> design;
  std::optional<hw::StreamTarget> target;
  std::vector<InputWord> check;
  Shards shards;
  SearchTrace search_trace;
  std::vector<double> setups;
  double compile_ms = 0.0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SpanLog::Scope span(spans, "setup");
    const auto t0 = Clock::now();
    target.reset();
    const auto report =
        run_setup_manifest(manifest, workers,
                           opt.trace && r + 1 == kSetupRepeats, search_trace);
    if (!check_jobs(report, result)) return;
    design = realize_design(report.outcomes[0], tech,
                            opt.inject == "flip-word", result);
    const auto tc = Clock::now();
    target.emplace(hw::StreamTarget::compile(design->served));
    compile_ms = seconds_between(tc, Clock::now()) * 1e3;
    check = make_samples(kCheckReads, kWidth, stream_seed(opt.seed, 1));
    shards = make_shards(opt.seed);
    serve_run(*target, tech, kNdConfig, shards, 1, nullptr, nullptr, false);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  result.set("setup_s", median(setups));

  // The served system must exercise every unit kernel.
  unsigned modes[3] = {0, 0, 0};
  for (const auto& unit : design->system.units()) {
    switch (unit.mode()) {
      case core::DecompMode::kNormal: ++modes[0]; break;
      case core::DecompMode::kBto: ++modes[1]; break;
      case core::DecompMode::kNonDisjoint: ++modes[2]; break;
    }
  }
  std::fprintf(stderr, "served system: %u normal, %u BTO, %u ND units\n",
               modes[0], modes[1], modes[2]);
  if (modes[0] == 0 || modes[1] == 0 || modes[2] == 0) {
    result.fail("served system lacks a normal, BTO or ND unit");
  }

  // Closed loop with ring back-pressure: each run pushes every shard
  // kNdPasses times.
  const std::size_t reads_per_run = kProducers * kShardReads * kNdPasses;
  const ServeLoop loop = serve_loop(opt, spans, [&](bool traced) {
    const RunStats run = serve_run(*target, tech, kNdConfig, shards, kNdPasses,
                                   nullptr, nullptr, traced);
    if (run.report.sim.reads != reads_per_run) {
      result.fail("engine retired " + std::to_string(run.report.sim.reads) +
                  " of " + std::to_string(reads_per_run) + " reads");
    }
    return run;
  });

  std::vector<double> sim_ns;
  {
    SpanLog::Scope span(spans, "check");
    check_scalar(*design, check, tech, result, sim_ns);
    check_served(*design, *target, check, tech, result);
  }
  SwapSamples swaps;
  ServeTrace reconfig_trace;
  nd_reconfig_phase(*design, *target, shards, opt, tech, result, swaps,
                    reconfig_trace, spans);

  result.set("med", design->med);
  report_swaps(result, swaps);
  result.set("sim.scalar_ns_per_read", median(sim_ns));
  report_serve_workload(result, opt, loop, *target, shards, tech,
                        kNdConfig.batch_size, compile_ms,
                        design->reference.values(), search_trace, spans);
  result.set("peak_rss_mb", peak_rss_mb());
}

// ---- serve_mono14_reconfig ----------------------------------------------

void run_serve_mono14_reconfig(const Options& opt, Result& result,
                               SpanLog& spans) {
  const unsigned workers = host_cpus();
  const auto tech = hw::Technology::nangate45();
  // A round-out job that drops no bit certifies the exact table (MED 0)
  // through the suite path.
  suite::Manifest manifest;
  suite::SuiteJob exact_job;
  exact_job.name = "cos-exact";
  exact_job.benchmark = opt.inject == "fail-job" ? "no-such-function" : "cos";
  exact_job.width = kWidth;
  exact_job.algorithm = "round-out";
  exact_job.drop = 0;
  manifest.jobs.push_back(exact_job);

  std::optional<core::MultiOutputFunction> g;
  std::vector<std::uint32_t> exact, complement;
  std::optional<hw::MonolithicLut> exact_lut, complement_lut;
  std::optional<hw::StreamTarget> target;
  std::vector<InputWord> check;
  Shards shards;
  SearchTrace search_trace;
  std::vector<double> setups;
  double compile_ms = 0.0;
  for (int r = 0; r < kMonoSetupRepeats; ++r) {
    SpanLog::Scope span(spans, "setup");
    const auto t0 = Clock::now();
    target.reset();
    const auto report =
        run_setup_manifest(manifest, workers,
                           opt.trace && r + 1 == kMonoSetupRepeats, search_trace);
    if (!check_jobs(report, result)) return;
    if (report.outcomes[0].record.med != 0.0) {
      result.fail("the exact table has a nonzero MED");
    }
    g.emplace(load_function("cos"));
    exact.assign(g->values().begin(), g->values().end());
    const std::uint32_t mask = (std::uint32_t{1} << g->num_outputs()) - 1;
    complement = exact;
    for (auto& v : complement) v = ~v & mask;
    exact_lut.emplace(kWidth, g->num_outputs(), exact, tech);
    complement_lut.emplace(kWidth, g->num_outputs(), complement, tech);
    const auto tc = Clock::now();
    target.emplace(hw::StreamTarget::compile(*exact_lut, g->num_outputs()));
    compile_ms = seconds_between(tc, Clock::now()) * 1e3;
    check = make_samples(kCheckReads, kWidth, stream_seed(opt.seed, 1));
    shards = make_shards(opt.seed);
    serve_run(*target, tech, kMonoConfig, shards, 1, nullptr, nullptr, false);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  result.set("setup_s", median(setups));

  std::vector<double> sim_ns;
  {
    SpanLog::Scope span(spans, "check.engine");
    const auto scalar = hw::make_target(*exact_lut, g->num_outputs());
    const auto t0 = Clock::now();
    const auto report = hw::simulate(scalar, check, &*g, tech);
    sim_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                     static_cast<double>(check.size()));
    const std::string problem =
        check_engine(*target, scalar, check, *g, tech, kMonoConfig);
    const bool ok = problem.empty() && report.mismatches == 0;
    result.op(ok, check.size());
    if (!ok) result.fail(problem.empty() ? "scalar simulate() mismatch" : problem);
  }

  // Reads beside writes: every run serves while the writer swaps the
  // table between its exact contents and their complement every 2 ms.
  std::size_t published = 0;  // swaps made over the whole workload
  const bool drop = opt.inject == "drop-reconfig";
  const SwapPlan plan{kMonoSwapsPerRun, kMonoSwapPeriod, [&](std::size_t) {
                        const std::size_t n = published++;
                        if (drop && n == 3) return target->published_epoch();
                        return target->reconfigure(n % 2 == 0 ? *complement_lut
                                                              : *exact_lut);
                      }};
  SwapSamples swaps;
  const ServeLoop loop = serve_loop(opt, spans, [&](bool traced) {
    const RunStats run = serve_run(*target, tech, kMonoConfig, shards, 0,
                                   &plan, &swaps, traced);
    check_swaps(run, result);
    return run;
  });

  {
    SpanLog::Scope span(spans, "check.readback");
    std::vector<std::uint32_t> expected =
        published % 2 == 1 ? complement : exact;
    if (opt.inject == "flip-word") {
      // A corrupted table write: the last image differs in one word.
      auto corrupted = expected;
      corrupted[0] ^= 1u;
      target->mark_applied(target->published_epoch());
      target->reconfigure(hw::MonolithicLut(kWidth, g->num_outputs(),
                                            corrupted, tech));
    }
    const std::size_t bad = readback_mismatches(
        *target, [&](InputWord x) { return expected[x]; });
    result.op(bad == 0, expected.size());
    if (bad != 0) {
      result.fail(std::to_string(bad) + " table words read back wrong");
    }
  }

  const auto dist = core::InputDistribution::uniform(kWidth);
  const std::vector<core::OutputWord> complement_values(complement.begin(),
                                                        complement.end());
  // Mean MED of the two images served: exact (0) and complement.
  result.set("med", 0.5 * core::mean_error_distance(*g, complement_values,
                                                    dist));
  report_swaps(result, swaps);
  result.set("sim.scalar_ns_per_read", median(sim_ns));
  report_serve_workload(result, opt, loop, *target, shards, tech,
                        kMonoConfig.batch_size, compile_ms, g->values(),
                        search_trace, spans);
  result.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
