#include "hw/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

namespace dalut::hw {

SimTarget make_target(const ApproxLutSystem& system) {
  SimTarget target;
  target.read = [&system](core::InputWord x) { return system.read(x); };
  target.static_read_energy = system.cost().read_energy;
  target.num_outputs = system.num_outputs();
  return target;
}

SimTarget make_target(const MonolithicLut& lut, unsigned num_outputs) {
  SimTarget target;
  target.read = [&lut](core::InputWord x) { return lut.read(x); };
  target.static_read_energy = lut.cost().read_energy;
  target.num_outputs = num_outputs;
  return target;
}

SimulationReport simulate(const SimTarget& target,
                          std::span<const core::InputWord> sequence,
                          const core::MultiOutputFunction* reference,
                          const Technology& tech) {
  constexpr std::size_t kChunk = 256;
  std::array<core::OutputWord, kChunk> y;
  BatchAccumulator acc;
  const core::OutputWord bus_mask = output_bus_mask(target.num_outputs);
  for (std::size_t done = 0; done < sequence.size(); done += kChunk) {
    const std::size_t take = std::min(kChunk, sequence.size() - done);
    for (std::size_t i = 0; i < take; ++i) {
      y[i] = target.read(sequence[done + i]);
    }
    accumulate_batch(acc, sequence.data() + done, y.data(), take, reference,
                     tech, target.static_read_energy, bus_mask);
  }
  return finish(acc);
}

SimulationReport simulate_random(const SimTarget& target, std::size_t count,
                                 unsigned num_inputs,
                                 const core::MultiOutputFunction* reference,
                                 const Technology& tech, util::Rng& rng) {
  if (num_inputs < 1 || num_inputs > kMaxSimInputs) {
    throw std::invalid_argument(
        "simulate_random: num_inputs must be in [1, " +
        std::to_string(kMaxSimInputs) + "], got " +
        std::to_string(num_inputs));
  }
  std::vector<core::InputWord> sequence(count);
  const std::uint64_t domain = std::uint64_t{1} << num_inputs;
  for (auto& x : sequence) {
    x = static_cast<core::InputWord>(rng.next_below(domain));
  }
  return simulate(target, sequence, reference, tech);
}

void accumulate_batch(BatchAccumulator& acc, const core::InputWord* x,
                      const core::OutputWord* y, std::size_t count,
                      const core::MultiOutputFunction* reference,
                      const Technology& tech, double static_read_energy,
                      core::OutputWord bus_mask) {
  if (count == 0) return;
  SimulationReport& report = acc.report;
  // Only the bus_mask wires exist (an out_shift overhang must not count).
  // The first read toggles against the previous batch's last, if any.
  std::size_t toggles =
      acc.first ? 0 : std::popcount((acc.previous ^ y[0]) & bus_mask);
  for (std::size_t i = 1; i < count; ++i) {
    toggles += std::popcount((y[i - 1] ^ y[i]) & bus_mask);
  }
  if (reference != nullptr) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < count; ++i) {
      mismatches += reference->value(x[i]) != y[i];
    }
    report.mismatches += mismatches;
  }
  report.reads += count;
  report.output_toggles += toggles;
  report.total_energy =
      static_cast<double>(report.reads) * static_read_energy +
      static_cast<double>(report.output_toggles) * tech.wire_energy;
  acc.previous = y[count - 1];
  acc.first = false;
}

SimulationReport finish(BatchAccumulator& acc) noexcept {
  if (acc.report.reads > 0) {
    acc.report.avg_read_energy =
        acc.report.total_energy / static_cast<double>(acc.report.reads);
  }
  return acc.report;
}

}  // namespace dalut::hw
