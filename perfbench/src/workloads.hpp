// The benchmark's three workloads (see perfbench/README.md for why each
// exists and what every metric means).
#pragma once

#include "bench_util.hpp"

namespace perfbench {

/// Threads any workload runs at its busiest moment on a `cpus`-CPU host.
unsigned workload_threads(unsigned cpus);

/// BS-SA search of cos, exp and ln at width 14 through suite::run_suite.
void run_search_nd14(const Options& opt, Result& result, SpanLog& spans);
/// A searched BTO-Normal-ND cos system served read-only by StreamEngine.
void run_serve_nd14(const Options& opt, Result& result, SpanLog& spans);
/// An exact monolithic cos LUT served while a writer re-programs it.
void run_serve_mono14_reconfig(const Options& opt, Result& result,
                               SpanLog& spans);

}  // namespace perfbench
