// dalut_opt - command-line front end for the whole flow:
//
//   optimize a function (built-in benchmark or truth-table file) with
//   BS-SA or DALTA, select an architecture, and emit any combination of a
//   configuration file, a synthesis-style cost report, Verilog, and a
//   self-checking testbench.
//
// Robustness contract (docs/robustness.md):
//   --deadline    bounds the run; on expiry the search stops cooperatively
//                 and the best-so-far result is realized and emitted.
//   SIGINT/SIGTERM request the same graceful stop (SIGKILL, of course,
//                 cannot be intercepted; use --checkpoint to survive it).
//   --checkpoint  cuts an atomic, crash-safe snapshot of the search every
//                 --checkpoint-every bit-steps; --resume continues from it
//                 bit-identically to an uninterrupted run. A run that
//                 completes deletes its checkpoint.
//
// The search is the suite's job code (suite::run_search_job) on a job built
// from the flags, so a one-job dalut_suite manifest with the same
// parameters lands on the same result. Failpoints, signals, --listen,
// --events-out, --metrics-out, --trace-out and the exit codes come from
// the tool session shared with dalut_suite and dalut_stream
// (docs/robustness.md, "Tool session"): 0 success, 1 fatal error, 2 usage
// error, 3 input parse error, 4 deadline expired (valid best-so-far
// emitted), 5 cancelled by signal (valid best-so-far emitted), 6 I/O error
// (the message names the failing path and errno).
//
// Fault injection (docs/robustness.md): --failpoints or DALUT_FAILPOINTS
// arms deterministic I/O faults at named sites ("site=error[@trigger]");
// --list-failpoints prints every site. Unset, the probes are disarmed
// no-ops.
//
// Examples:
//   dalut_opt --benchmark cos --width 12 --arch bto-normal-nd --report
//   dalut_opt --table f.dalut --algorithm dalta --config-out f.cfg
//   dalut_opt --benchmark multiplier --verilog-out mult.v
//             --testbench-out mult_tb.v --tech my45nm.tech
//   dalut_opt --benchmark log2 --deadline 30s --checkpoint ck.dalut
//   dalut_opt --benchmark log2 --checkpoint ck.dalut --resume
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <tuple>

#include "core/bound_size.hpp"
#include "core/serialize.hpp"
#include "core/table_io.hpp"
#include "hw/report.hpp"
#include "hw/simulator.hpp"
#include "hw/tech_io.hpp"
#include "hw/verilog.hpp"
#include "obs/event_log.hpp"
#include "obs/run_registry.hpp"
#include "session.hpp"
#include "suite/suite_runner.hpp"
#include "util/cli.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dalut;
using namespace dalut::tools;

/// Usage error (exit 2) unless --`name` is one of `choices`.
void require_choice(const util::CliParser& cli, const char* name,
                    std::initializer_list<const char*> choices) {
  const auto value = cli.str(name);
  std::string list;
  for (const char* choice : choices) {
    if (value == choice) return;
    list += list.empty() ? choice : std::string(" | ") + choice;
  }
  throw ExitError(kExitUsage, std::string("error: --") + name +
                                  " must be " + list + ", got '" + value +
                                  "'");
}

int run(int argc, char** argv) {
  util::CliParser cli(
      "dalut_opt - optimize an approximate LUT decomposition and emit "
      "configuration / report / RTL");
  cli.add_option("benchmark", "cos",
                 "built-in function (Table I or extended suite)");
  cli.add_option("table", "",
                 "truth-table file, text or binary container, auto-detected "
                 "(overrides --benchmark)");
  cli.add_option("table-load", "auto",
                 "auto | copy | map: mmap large binary tables in place "
                 "(auto), always copy to memory, or always map");
  cli.add_option("table-out", "",
                 "export the input truth table here before optimizing "
                 "(with --binary-tables this converts text tables and "
                 "built-in benchmarks to the binary container)");
  cli.add_flag("binary-tables",
               "write --table-out as the bit-packed dalut-table-bin v1 "
               "container instead of hex text");
  cli.add_option("width", "12", "bit width for built-in benchmarks");
  cli.add_option("algorithm", "bssa", "bssa | dalta");
  cli.add_option("arch", "dalta",
                 "dalta | bto-normal | bto-normal-nd (bssa only)");
  cli.add_option("bound", "0", "bound-set size b (0 = 9/16 of width)");
  cli.add_option("rounds", "3", "optimization rounds R");
  cli.add_option("partitions", "60", "partition budget P");
  cli.add_option("patterns", "12", "initial pattern vectors Z");
  cli.add_option("beams", "3", "beam width (bssa)");
  cli.add_option("chains", "3", "SA chains (bssa)");
  cli.add_option("metric", "med", "objective: med | mse | er");
  cli.add_option("delta", "0.01", "mode factor delta");
  cli.add_option("delta-prime", "0.1", "mode factor delta'");
  cli.add_option("seed", "1", "random seed");
  cli.add_option("threads", "0", "worker threads (0 = hardware)");
  cli.add_option("tech", "", "technology file (default: built-in 45nm)");
  cli.add_option("config-out", "", "write the optimized configuration here");
  cli.add_option("verilog-out", "", "write synthesizable Verilog here");
  cli.add_option("testbench-out", "", "write a self-checking testbench here");
  cli.add_option("tb-vectors", "64", "testbench vector count");
  cli.add_flag("report", "print the synthesis-style cost report");
  cli.add_flag("sweep-bound",
               "probe every bound-set size first and pick the best "
               "within --med-budget (0 = most accurate)");
  cli.add_option("med-budget", "0", "MED budget for --sweep-bound");
  cli.add_option("checkpoint", "",
                 "crash-safe search checkpoint file, rewritten atomically "
                 "during the run and deleted on success");
  cli.add_option("checkpoint-every", "2",
                 "bit-steps between checkpoints (with --checkpoint)");
  cli.add_flag("resume",
               "continue from --checkpoint (bit-identical to an "
               "uninterrupted run); fresh start if the file is missing");
  cli.add_flag("progress",
               "print a human-readable progress line (throttled, plus the "
               "final at-completion report) to stderr");
  add_session_options(cli);
  if (!parse_session_cli(cli, argc, argv)) return kExitOk;

  // The integer options are read through static_cast, so a value outside
  // its range would wrap: --patterns -1 became 4294967295 restarts inside
  // one uninterruptible OptForPart call, --tb-vectors -1 SIZE_MAX testbench
  // vectors. --width spans Partition's input range, --bound the manifest's.
  constexpr std::int64_t kUint = std::numeric_limits<unsigned>::max();
  constexpr std::tuple<const char*, std::int64_t, std::int64_t> kRanges[] = {
      {"width", 2, 26},       {"bound", 0, 25},
      {"patterns", 1, kUint}, {"rounds", 1, kUint},
      {"partitions", 0, kUint}, {"beams", 0, kUint},
      {"chains", 0, kUint},   {"checkpoint-every", 0, kUint},
      {"tb-vectors", 0, 1 << 20}};
  for (const auto& [name, min, max] : kRanges) {
    const std::int64_t value = cli.integer(name);
    if (value < min || value > max) {
      throw ExitError(kExitUsage,
                      "error: --" + std::string(name) +
                          " must be an integer in [" + std::to_string(min) +
                          ", " + std::to_string(max) + "]");
    }
  }
  require_choice(cli, "table-load", {"auto", "copy", "map"});
  require_choice(cli, "algorithm", {"bssa", "dalta"});
  require_choice(cli, "arch", {"dalta", "bto-normal", "bto-normal-nd"});
  require_choice(cli, "metric", {"med", "mse", "er"});
  if (cli.str("algorithm") == "dalta" && cli.str("arch") != "dalta") {
    throw ExitError(kExitUsage,
                    "error: the DALTA algorithm only supports --arch dalta");
  }
  const auto checkpoint_path = cli.str("checkpoint");
  if (cli.flag("resume") && checkpoint_path.empty()) {
    throw ExitError(kExitUsage, "error: --resume needs --checkpoint <file>");
  }

  // The job the flags describe; SuiteJob's defaults are this tool's.
  suite::SuiteJob job;
  job.benchmark = cli.str("benchmark");
  job.table = cli.str("table");
  job.width = static_cast<unsigned>(cli.integer("width"));
  job.algorithm = cli.str("algorithm");
  job.arch = cli.str("arch");
  job.bound = static_cast<unsigned>(cli.integer("bound"));
  job.rounds = static_cast<unsigned>(cli.integer("rounds"));
  job.partitions = static_cast<unsigned>(cli.integer("partitions"));
  job.patterns = static_cast<unsigned>(cli.integer("patterns"));
  job.beams = static_cast<unsigned>(cli.integer("beams"));
  job.chains = static_cast<unsigned>(cli.integer("chains"));
  job.metric = cli.str("metric");
  job.delta = cli.real("delta");
  job.delta_prime = cli.real("delta-prime");
  job.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  job.name = job.table.empty() ? job.benchmark : job.table;

  Session session(cli, stdout);
  util::RunControl& control = session.control();

  // The single run shows up on /runs under its function name.
  obs::EventLog& events = obs::EventLog::instance();
  obs::RunRegistry::instance().declare(job.name, job.algorithm);
  const obs::EventLog::JobScope event_scope(job.name);

  std::function<void(const util::RunProgress&)> progress_line;
  if (cli.flag("progress")) {
    progress_line = [](const util::RunProgress& p) {
      std::fprintf(stderr,
                   "progress: %s round %u bit %u (step %zu/%zu, best "
                   "%.4f)\n",
                   p.stage, p.round, p.bit, p.steps_done, p.steps_total,
                   p.best_error);
    };
  }
  // /runs rides the same throttled forward as the human progress line (the
  // first and at-completion reports always pass the throttle).
  std::function<void(const util::RunProgress&)> forward;
  if (progress_line || session.listening()) {
    forward = [&, run_name = job.name](const util::RunProgress& p) {
      obs::RunRegistry::instance().job_progress(run_name, p);
      if (progress_line) progress_line(p);
    };
  }
  const auto metrics_out = cli.str("metrics-out");
  util::telemetry::SnapshotPump pump;
  if (!metrics_out.empty()) {
    // The pump observes every report (for the trajectory) and applies the
    // progress line's own 5 s throttle when forwarding.
    pump.attach(control, forward, std::chrono::seconds(5));
  } else if (forward) {
    control.set_progress_callback(forward, std::chrono::seconds(5));
  }

  std::optional<core::SearchCheckpoint> resume_state;
  if (cli.flag("resume")) {
    if (auto loaded = suite::load_job_checkpoint(checkpoint_path)) {
      resume_state = std::move(loaded->checkpoint);
      std::fprintf(stderr,
                   "resuming from %s%s (%s, round %u, %u bits done, %.2f s "
                   "elapsed)\n",
                   checkpoint_path.c_str(),
                   loaded->from_previous ? " (previous generation)" : "",
                   resume_state->algorithm.c_str(), resume_state->round,
                   resume_state->bits_done, resume_state->elapsed_seconds);
    } else {
      std::fprintf(stderr,
                   "note: no usable checkpoint at '%s', starting fresh\n",
                   checkpoint_path.c_str());
    }
  }

  // Large binary tables are served from a file mapping under auto/map.
  const auto load = cli.str("table-load");
  const auto g = suite::load_job_function(
      job, load == "copy"  ? core::TableLoadMode::kCopy
           : load == "map" ? core::TableLoadMode::kMap
                           : core::TableLoadMode::kAuto);
  if (const auto path = cli.str("table-out"); !path.empty()) {
    const auto encoding = cli.flag("binary-tables")
                              ? core::TableEncoding::kBinary
                              : core::TableEncoding::kText;
    core::save_function_file(path, g, encoding);
    std::printf("wrote %s table to %s\n",
                encoding == core::TableEncoding::kBinary ? "binary" : "text",
                path.c_str());
  }
  const auto dist = core::InputDistribution::uniform(g.num_inputs());
  // resolve_worker_count clamps 0 (and nonsense like -1) to a real pool
  // size, so `--threads 0` cannot construct an empty, deadlocking pool.
  util::ThreadPool pool(util::resolve_worker_count(cli.integer("threads")));

  if (cli.flag("sweep-bound")) {
    core::BoundSweepParams sweep;
    sweep.probe.rounds = 2;
    sweep.probe.beam_width = 2;
    sweep.probe.sa.partition_limit = std::max(8u, job.partitions / 3);
    sweep.probe.sa.init_patterns = job.patterns;
    sweep.probe.sa.chains = job.chains;
    sweep.probe.seed = job.seed;
    sweep.probe.pool = &pool;
    sweep.probe.control = &control;
    double budget = cli.real("med-budget");
    if (budget <= 0.0) budget = -1.0;  // unreachable -> most accurate size
    const auto chosen = core::choose_bound_size(g, dist, budget, sweep);
    std::printf("bound-size sweep picked b = %u (probe MED %.4f, %zu "
                "entries/bit)\n",
                chosen.bound_size, chosen.med, chosen.entries_per_bit);
    job.bound = chosen.bound_size;
  }

  // --- Optimize. ---
  obs::RunRegistry::instance().job_started(job.name);
  events.emit("job.start");
  // An explicit --checkpoint whose digest does not match this run throws
  // (exit 3) rather than being discarded as a suite job's would.
  const auto result = suite::run_search_job(
      job, g, dist, &pool, control, checkpoint_path,
      static_cast<unsigned>(cli.integer("checkpoint-every")),
      resume_state ? &*resume_state : nullptr);
  events.emit("job.finish");
  obs::RunRegistry::instance().job_completed(job.name, result.report.med,
                                             /*from_cache=*/false,
                                             result.resumed);
  if (result.status != util::RunStatus::kCompleted) {
    std::fprintf(stderr,
                 "note: run stopped early (%s); emitting the best-so-far "
                 "result\n",
                 util::to_string(result.status));
  }
  std::printf(
      "optimized %u->%u-bit function: MED %.4f, MSE %.4f, error rate %.4f, "
      "max ED %g\n",
      g.num_inputs(), g.num_outputs(), result.report.med, result.report.mse,
      result.report.error_rate, result.report.max_ed);
  std::printf("runtime %.2f s, %zu partitions evaluated\n",
              result.runtime_seconds, result.partitions_evaluated);

  const auto lut = result.realize(g.num_inputs());
  std::printf("stored LUT bits: %zu (direct LUT: %zu)\n",
              lut.stored_entries(),
              g.domain_size() * g.num_outputs());

  // --- Technology + hardware. ---
  hw::Technology tech = hw::Technology::nangate45();
  if (const auto tech_path = cli.str("tech"); !tech_path.empty()) {
    std::ifstream in(tech_path);
    if (!in) {
      std::fprintf(stderr, "io error: cannot open tech file '%s': %s\n",
                   tech_path.c_str(), std::strerror(errno));
      return kExitIo;
    }
    tech = hw::read_technology(in);
  }
  const hw::ArchKind arch = job.arch == "bto-normal-nd"
                                ? hw::ArchKind::kBtoNormalNd
                                : job.arch == "bto-normal"
                                      ? hw::ArchKind::kBtoNormal
                                      : hw::ArchKind::kDalta;
  const hw::ApproxLutSystem system(arch, lut, tech);

  // Functional sign-off.
  const auto reference = lut.to_function();
  util::Rng rng(job.seed + 7);
  const auto sim = hw::simulate_random(hw::make_target(system), 1024,
                                       g.num_inputs(), &reference, tech, rng);
  if (sim.mismatches != 0) {
    std::fprintf(stderr, "FATAL: %zu hardware/functional mismatches\n",
                 sim.mismatches);
    return kExitFatal;
  }
  std::printf("hardware verified (1024 reads), avg %.0f fJ/read\n",
              sim.avg_read_energy);

  if (cli.flag("report")) {
    std::fputs(hw::format_report(system).c_str(), stdout);
  }

  // --- Outputs. ---
  if (const auto path = cli.str("config-out"); !path.empty()) {
    if (!write_artifact(path, "configuration", [&](std::ostream& out) {
          core::write_config(
              out, {g.num_inputs(), g.num_outputs(), result.settings});
        })) {
      return kExitIo;
    }
    std::printf("wrote configuration to %s\n", path.c_str());
  }
  if (const auto path = cli.str("verilog-out"); !path.empty()) {
    if (!write_artifact(path, "Verilog", [&](std::ostream& out) {
          out << hw::emit_system_verilog(system, "dalut_top");
        })) {
      return kExitIo;
    }
    std::printf("wrote Verilog to %s\n", path.c_str());
  }
  if (const auto path = cli.str("testbench-out"); !path.empty()) {
    if (!write_artifact(path, "testbench", [&](std::ostream& out) {
          out << hw::emit_system_testbench(
              system, "dalut_top",
              static_cast<std::size_t>(cli.integer("tb-vectors")), job.seed);
        })) {
      return kExitIo;
    }
    std::printf("wrote testbench to %s\n", path.c_str());
  }

  // --- Telemetry artifacts (also emitted for early-stopped runs). ---
  const int finish_code = session.finish(
      [&](std::ostream& out) {
        // Exact 17-digit round-trip for finite MEDs; non-finite values (a
        // run stopped before any result) must land as null, not bare
        // inf/nan.
        char med_buf[64] = "null";
        if (std::isfinite(result.med)) {
          std::snprintf(med_buf, sizeof med_buf, "%.17g", result.med);
        }
        out << "  \"run\": {\n    \"algorithm\": \"" << job.algorithm
            << "\",\n    \"arch\": \"" << job.arch
            << "\",\n    \"function\": \""
            << util::telemetry::json_escape(job.name)
            << "\",\n    \"num_inputs\": " << g.num_inputs()
            << ",\n    \"num_outputs\": " << g.num_outputs()
            << ",\n    \"threads\": " << cli.integer("threads")
            << ",\n    \"seed\": " << job.seed << ",\n    \"status\": \""
            << util::to_string(result.status) << "\",\n    \"med\": "
            << med_buf << ",\n    \"runtime_seconds\": "
            << result.runtime_seconds << ",\n    \"partitions_evaluated\": "
            << result.partitions_evaluated << "\n  }";
      },
      [&](std::ostream& out) { pump.write_trajectory_json(out, 2); });
  if (finish_code != kExitOk) return finish_code;
  return exit_code_of(result.status);
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
