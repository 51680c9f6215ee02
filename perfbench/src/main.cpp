// dalut benchmark program: runs one workload for a fixed time and prints its
// metrics as one JSON line (perfbench/README.md has the definitions).
//
//   perfbench --workload <search_nd14|serve_nd14|serve_mono14_reconfig>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--inject <flip-word|drop-reconfig|fail-job>]
//
// Exit codes: 0 every check passed; 1 a correctness check failed; 2 bad
// arguments, a refused thread budget, or an internal error.
#include <cstdio>
#include <exception>
#include <string>

#include "bench_util.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--inject") {
      opt.inject = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                           "--seconds <s> --trace <0|1>\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  void (*run)(const Options&, Result&, SpanLog&) = nullptr;
  if (opt.workload == "search_nd14") run = run_search_nd14;
  if (opt.workload == "serve_nd14") run = run_serve_nd14;
  if (opt.workload == "serve_mono14_reconfig") run = run_serve_mono14_reconfig;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  const unsigned cpus = host_cpus();
  const unsigned threads = workload_threads(cpus);
  std::printf("host: nproc=%u simd_isa=%s simd_lanes=%u pool_workers=%u "
              "workload_threads=%u workload=%s seed=%llu trace=%d\n",
              cpus, dalut::util::simd::isa_name(),
              static_cast<unsigned>(dalut::util::simd::kLanes), cpus, threads,
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  std::fflush(stdout);
  if (threads > cpus) {
    std::fprintf(stderr,
                 "refusing to run: %s needs %u threads but only %u CPUs are "
                 "available, so its numbers would measure oversubscription\n",
                 opt.workload.c_str(), threads, cpus);
    return 2;
  }

  dalut::util::telemetry::set_metrics_enabled(false);
  Result result;
  SpanLog spans;
  try {
    run(opt, result, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!opt.trace_out.empty() && !spans.write(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  const bool complete = result.print(opt.trace);
  if (!result.correct()) return 1;
  return complete ? 0 : 2;
}
