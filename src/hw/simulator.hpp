// Functional + energy simulator: the library's stand-in for the paper's
// Synopsys VCS (functional verification) and PrimeTime (power measurement,
// "energy for 1024 read operations") steps.
//
// The simulator drives a read sequence through an architecture model,
// counting reads, bus-masked output toggles and (optionally) mismatches
// against a reference function. Energy is one closed form over the integer
// counters, reads * static_read_energy + toggles * wire_energy, so the
// report does not depend on how the sequence is batched; the stream engine
// shares this accounting (BatchAccumulator).
#pragma once

#include <functional>
#include <span>

#include "core/multi_output_function.hpp"
#include "hw/architectures.hpp"
#include "util/rng.hpp"

namespace dalut::hw {

struct SimulationReport {
  std::size_t reads = 0;
  double total_energy = 0.0;      ///< fJ over the whole sequence
  double avg_read_energy = 0.0;   ///< fJ per read
  std::size_t output_toggles = 0; ///< measured output-bus bit flips
  std::size_t mismatches = 0;     ///< reads differing from the reference

  bool operator==(const SimulationReport&) const = default;
};

/// Widest input width simulate_random accepts (InputWord is 32 bits).
inline constexpr unsigned kMaxSimInputs = 32;

/// Mask selecting the `num_outputs` wires of the output bus. Toggle
/// accounting masks `previous ^ y` with this so read values wider than the
/// bus (e.g. an out_shift overhang) can never inflate the wire energy.
constexpr core::OutputWord output_bus_mask(unsigned num_outputs) noexcept {
  return num_outputs >= 32
             ? ~core::OutputWord{0}
             : static_cast<core::OutputWord>(
                   (core::OutputWord{1} << num_outputs) - 1);
}

/// Any block exposing read(x) and a static per-read energy can be simulated.
struct SimTarget {
  std::function<core::OutputWord(core::InputWord)> read;
  double static_read_energy = 0.0;  ///< fJ, mode-dependent model energy
  unsigned num_outputs = 0;
};

/// The returned target references `system`/`lut`: it must not outlive them.
SimTarget make_target(const ApproxLutSystem& system);
SimTarget make_target(const MonolithicLut& lut, unsigned num_outputs);

/// Runs `sequence` through the target. `reference` may be null (skip the
/// functional check). `tech` provides the wire-toggle energy coefficient.
SimulationReport simulate(const SimTarget& target,
                          std::span<const core::InputWord> sequence,
                          const core::MultiOutputFunction* reference,
                          const Technology& tech);

/// Convenience: `count` uniform random reads (the paper averages 1024).
/// Throws std::invalid_argument unless 1 <= num_inputs <= kMaxSimInputs.
SimulationReport simulate_random(const SimTarget& target, std::size_t count,
                                 unsigned num_inputs,
                                 const core::MultiOutputFunction* reference,
                                 const Technology& tech, util::Rng& rng);

// ---- Batched accounting -------------------------------------------------

/// Cross-batch accounting state shared by simulate() and the stream
/// engine: integer counters plus the last read, which the next batch's
/// first read toggles against. Any split of a sequence into batches yields
/// the same report (operator==).
struct BatchAccumulator {
  SimulationReport report;
  core::OutputWord previous = 0;
  bool first = true;
};

/// Adds `count` reads y[i] = read(x[i]) to the counters (mismatches only
/// with a `reference`) and re-prices total_energy from them. `tech` and
/// `static_read_energy` must not change within one accumulator.
void accumulate_batch(BatchAccumulator& acc, const core::InputWord* x,
                      const core::OutputWord* y, std::size_t count,
                      const core::MultiOutputFunction* reference,
                      const Technology& tech, double static_read_energy,
                      core::OutputWord bus_mask);

/// Finalizes avg_read_energy and returns the report.
SimulationReport finish(BatchAccumulator& acc) noexcept;

}  // namespace dalut::hw
