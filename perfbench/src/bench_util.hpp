// Shared plumbing of the dalut benchmark: the metric catalogue, the result
// line, order statistics, the benchmark's own span log, and host facts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate corruption for the benchmark's own tests: "flip-word",
  /// "drop-reconfig" or "fail-job". Empty in real runs.
  std::string inject;
  std::string trace_out;  ///< Chrome trace JSON of the benchmark's spans
};

/// One metric of the catalogue: its name and unit as BENCHMARK.json lists
/// them.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed with --trace 0).
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics (printed with --trace 1).
extern const std::vector<MetricDef> kPerLayer;

/// What a workload run reports. Correctness failures are recorded, never
/// thrown, so the run still prints what it measured.
class Result {
 public:
  void set(const std::string& name, double value);
  /// Counts one operation; `ok == false` also counts it as failed.
  void op(bool ok, std::uint64_t n = 1);
  /// Records a failed correctness check with a human-readable reason.
  void fail(const std::string& why);
  bool correct() const noexcept { return failures_.empty(); }
  /// Prints the failures to stderr and the result JSON as the last stdout
  /// line. Returns false if a catalogue metric of the active set is missing.
  bool print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Order statistics ---------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

// ---- Spans --------------------------------------------------------------

/// The benchmark's own spans around the library calls it makes, kept in
/// memory and written as Chrome trace-event JSON at the end of a run.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::string name_;
    Clock::time_point start_;
  };

  void add(std::string name, Clock::time_point start, Clock::time_point end);
  /// Writes the spans; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- Host ---------------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
unsigned host_cpus();
/// VmHWM of this process in MB (peak resident set).
double peak_rss_mb();

}  // namespace perfbench
