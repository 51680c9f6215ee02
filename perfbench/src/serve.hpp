// Serve-side harness: drives hw::StreamEngine from producer threads, runs
// an open-loop reconfiguration writer beside it, and checks what it served.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/simulator.hpp"
#include "hw/stream_engine.hpp"

namespace perfbench {

using dalut::core::InputWord;
using dalut::core::OutputWord;
using Shards = std::vector<std::vector<InputWord>>;

/// Producer threads feeding every engine run.
inline constexpr std::size_t kProducers = 2;

/// `count` uniform samples of the `width`-bit domain.
std::vector<InputWord> make_samples(std::size_t count, unsigned width,
                                    std::uint64_t seed);

/// Open-loop reconfiguration schedule: swap i is due at start + (i+1) *
/// period, whether or not the previous one finished on time.
struct SwapPlan {
  std::size_t swaps = 0;
  std::chrono::microseconds period{2000};
  /// Publishes swap i and returns the epoch the consumer must reach.
  std::function<std::uint64_t(std::size_t)> publish;
};

/// Per-swap timings, appended across engine runs.
struct SwapSamples {
  std::vector<double> latency_us;  ///< due time -> applied_epoch() reached
  std::vector<double> call_us;     ///< reconfigure() call duration
  std::vector<double> retire_us;   ///< publish -> applied_epoch() reached
  std::vector<double> late_us;     ///< writer wake-up behind the due time
};

struct RunStats {
  dalut::hw::StreamReport report;
  double wall_s = 0.0;             ///< producers started -> all joined
  std::uint64_t push_ns = 0;       ///< time in try_push calls that pushed
  std::uint64_t pushed = 0;        ///< samples pushed
  std::uint64_t short_pushes = 0;  ///< try_push calls the ring cut short
  std::size_t swaps = 0;           ///< swaps the writer made
};

/// One engine run with kProducers producer threads and the caller as the
/// consumer. Without a plan every producer pushes its shard `passes` times;
/// with one, a writer thread makes plan->swaps swaps on schedule while the
/// producers push whole passes, and each producer pushes one more pass
/// after the writer is done, so a batch retires on the last epoch.
RunStats serve_run(dalut::hw::StreamTarget& target,
                   const dalut::hw::Technology& tech,
                   const dalut::hw::StreamConfig& config, const Shards& shards,
                   std::size_t passes, const SwapPlan* plan,
                   SwapSamples* samples, bool time_pushes);

/// Serves `sequence` through a fresh engine, chunk j to ring j % kProducers
/// so the merged order is `sequence` itself, and compares the engine report
/// with scalar simulate() on the same sequence. Returns "" when equal with
/// no mismatches, otherwise the reason.
std::string check_engine(dalut::hw::StreamTarget& target,
                         const dalut::hw::SimTarget& scalar,
                         const std::vector<InputWord>& sequence,
                         const dalut::core::MultiOutputFunction& reference,
                         const dalut::hw::Technology& tech,
                         const dalut::hw::StreamConfig& config);

/// Reads the target's current contents over the whole input domain and
/// counts words that differ from `expected`.
std::size_t readback_mismatches(
    dalut::hw::StreamTarget& target,
    const std::function<OutputWord(InputWord)>& expected);

/// Single-thread ns/read of eval_batch and accumulate_batch over `sequence`
/// in engine-sized batches.
struct KernelTimes {
  double eval_ns = 0.0;
  double accounting_ns = 0.0;
};
KernelTimes time_kernels(dalut::hw::StreamTarget& target,
                         const std::vector<InputWord>& sequence,
                         const dalut::hw::Technology& tech,
                         std::size_t batch);

}  // namespace perfbench
