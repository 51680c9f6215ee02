#include "bench_util.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"med", "1"},
    {"reads_per_s", "1/s"},
    {"fj_per_read", "fJ"},
    {"reconfig_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"eval.opt_for_part_us", "us"},
    {"eval.gather_us", "us"},
    {"eval.slice_us", "us"},
    {"eval.gathers", "count"},
    {"eval.slices", "count"},
    {"eval.memo_hit_ratio", "1"},
    {"eval.kernel_share", "1"},
    {"sa.evaluated", "count"},
    {"sa.sweeps", "count"},
    {"sa.dedup_ratio", "1"},
    {"bssa.nd_trials", "count"},
    {"bit_cost.ms", "ms"},
    {"pool.idle_share", "1"},
    {"suite.job_s_p50", "s"},
    {"suite.job_s_max", "s"},
    {"stream.eval_ns_per_read", "ns"},
    {"stream.accounting_ns_per_read", "ns"},
    {"stream.compile_ms", "ms"},
    {"stream.wait_spins_per_batch", "1"},
    {"ring.push_ns_per_read", "ns"},
    {"ring.short_pushes", "count"},
    {"reconfig.swaps", "count"},
    {"reconfig_p99_us", "us"},
    {"reconfig.call_us_p50", "us"},
    {"reconfig.retire_us_p50", "us"},
    {"reconfig.gen_late_us_p99", "us"},
    {"sim.scalar_ns_per_read", "ns"},
    {"trace.overhead_pct", "%"},
    {"layers.unattributed_share", "1"},
};

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

void Result::op(bool ok, std::uint64_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Result::fail(const std::string& why) { failures_.push_back(why); }

bool Result::print(bool trace) const {
  const auto& defs = trace ? kPerLayer : kEndToEnd;
  bool complete = true;
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = values_.find(def.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "error: metric %s was not measured\n", def.name);
      complete = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, it->second, def.unit);
    metrics += buf;
  }
  for (const std::string& why : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  std::fflush(stderr);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), name_(std::move(name)), start_(Clock::now()) {}

SpanLog::Scope::~Scope() { log_.add(std::move(name_), start_, Clock::now()); }

void SpanLog::add(std::string name, Clock::time_point start,
                  Clock::time_point end) {
  spans_.push_back({std::move(name), seconds_between(origin_, start) * 1e6,
                    seconds_between(start, end) * 1e6});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                  s.name.c_str(), s.start_us, s.dur_us,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

}  // namespace perfbench
