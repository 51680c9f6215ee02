#include "hw/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bssa.hpp"
#include "func/registry.hpp"

namespace dalut::hw {
namespace {

const Technology kTech = Technology::nangate45();

core::MultiOutputFunction benchmark(const std::string& name, unsigned width) {
  const auto spec = *func::benchmark_by_name(name, width);
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

TEST(Simulator, ExactLutHasZeroMismatches) {
  const auto g = benchmark("cos", 8);
  // Monolithic LUT holding the exact function.
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  const auto target = make_target(lut, 8);
  util::Rng rng(1);
  const auto report = simulate_random(target, 512, 8, &g, kTech, rng);
  EXPECT_EQ(report.reads, 512u);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GT(report.avg_read_energy, 0.0);
}

TEST(Simulator, ApproximateLutMismatchesDetected) {
  const auto g = benchmark("cos", 8);
  std::vector<std::uint32_t> wrong(g.values().begin(), g.values().end());
  for (auto& v : wrong) v ^= 0x01;  // every entry off by one LSB
  const MonolithicLut lut(8, 8, wrong, kTech);
  const auto target = make_target(lut, 8);
  util::Rng rng(2);
  const auto report = simulate_random(target, 100, 8, &g, kTech, rng);
  EXPECT_EQ(report.mismatches, 100u);
}

TEST(Simulator, EnergyAccumulatesPerRead) {
  const auto g = benchmark("exp", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  const auto target = make_target(lut, 8);
  // Constant address sequence: no output toggles, pure static energy.
  std::vector<core::InputWord> same(10, 42);
  const auto report = simulate(target, same, nullptr, kTech);
  EXPECT_EQ(report.output_toggles, 0u);
  EXPECT_NEAR(report.total_energy, 10 * target.static_read_energy, 1e-9);
}

TEST(Simulator, TogglesAddWireEnergy) {
  const auto g = core::MultiOutputFunction::from_eval(
      4, 4, [](core::InputWord x) { return x; });
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(4, 4, contents, kTech);
  const auto target = make_target(lut, 4);
  // 0 -> 15 -> 0: 4 bits toggle twice.
  std::vector<core::InputWord> sequence{0, 15, 0};
  const auto report = simulate(target, sequence, &g, kTech);
  EXPECT_EQ(report.output_toggles, 8u);
  EXPECT_NEAR(report.total_energy,
              3 * target.static_read_energy + 8 * kTech.wire_energy, 1e-9);
}

TEST(Simulator, SystemTargetVerifiesAgainstDecomposition) {
  const auto g = benchmark("ln", 8);
  core::BssaParams params;
  params.bound_size = 4;
  params.rounds = 2;
  params.beam_width = 2;
  params.sa.partition_limit = 12;
  params.sa.init_patterns = 6;
  params.seed = 3;
  const auto dist = core::InputDistribution::uniform(8);
  const auto lut = core::run_bssa(g, dist, params).realize(8);
  const ApproxLutSystem system(ArchKind::kDalta, lut, kTech);
  const auto target = make_target(system);

  // The hardware must match the functional model exactly (the VCS-style
  // functional verification step) even though it differs from g.
  const auto reference = lut.to_function();
  util::Rng rng(4);
  const auto report =
      simulate_random(target, 256, 8, &reference, kTech, rng);
  EXPECT_EQ(report.mismatches, 0u);
}

TEST(Simulator, TogglesAreMaskedToTheDeclaredBus) {
  // Regression: out_shift pushes stored bits above the declared output bus.
  // Toggle accounting must ignore wires the bus does not have; the old
  // unmasked previous ^ y counted phantom toggles on bits >= num_outputs.
  const MonolithicLut lut(2, 2, {3, 0, 3, 0}, kTech, 0, /*out_shift=*/2);
  const std::vector<core::InputWord> sequence{0, 1, 0, 1, 0};
  // 2-wire bus: the read values (12, 0, 12, ...) only differ in bits 2..3.
  const auto narrow = simulate(make_target(lut, 2), sequence, nullptr, kTech);
  EXPECT_EQ(narrow.output_toggles, 0u);
  EXPECT_NEAR(narrow.total_energy, 5 * lut.cost().read_energy, 1e-9);
  // 4-wire bus: both toggling bits exist, four transitions of two bits.
  const auto wide = simulate(make_target(lut, 4), sequence, nullptr, kTech);
  EXPECT_EQ(wide.output_toggles, 8u);
}

TEST(Simulator, RandomSimulationRejectsOutOfRangeWidths) {
  // Regression: num_inputs >= 64 shifted a 64-bit 1 by >= 64 (UB) before
  // sampling; 0 sampled from an empty domain. Both now throw up front.
  const auto g = benchmark("cos", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  const auto target = make_target(lut, 8);
  util::Rng rng(5);
  EXPECT_THROW(simulate_random(target, 16, 0, &g, kTech, rng),
               std::invalid_argument);
  EXPECT_THROW(simulate_random(target, 16, kMaxSimInputs + 1, &g, kTech, rng),
               std::invalid_argument);
  EXPECT_THROW(simulate_random(target, 16, 64, &g, kTech, rng),
               std::invalid_argument);
  EXPECT_THROW(simulate_random(target, 16, 200, &g, kTech, rng),
               std::invalid_argument);
  // The boundary width itself stays legal.
  const auto report = simulate_random(target, 4, kMaxSimInputs, nullptr,
                                      kTech, rng);
  EXPECT_EQ(report.reads, 4u);
}

TEST(Simulator, EmptySequence) {
  const auto g = benchmark("tan", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  const auto report =
      simulate(make_target(lut, 8), {}, nullptr, kTech);
  EXPECT_EQ(report.reads, 0u);
  EXPECT_DOUBLE_EQ(report.total_energy, 0.0);
  EXPECT_DOUBLE_EQ(report.avg_read_energy, 0.0);
}

// ---- Accounting contract: integer counters, one closed form -------------

/// Feeds x / y through one accumulator in consecutive chunks of the given
/// sizes (cycled until the sequence is exhausted).
SimulationReport accumulate_in_splits(
    const std::vector<core::InputWord>& x,
    const std::vector<core::OutputWord>& y,
    const std::vector<std::size_t>& splits,
    const core::MultiOutputFunction* reference, double static_read_energy,
    core::OutputWord bus_mask) {
  BatchAccumulator acc;
  std::size_t done = 0;
  for (std::size_t k = 0; done < x.size(); ++k) {
    const std::size_t take =
        std::min(splits[k % splits.size()], x.size() - done);
    accumulate_batch(acc, x.data() + done, y.data() + done, take, reference,
                     kTech, static_read_energy, bus_mask);
    done += take;
  }
  return finish(acc);
}

TEST(Simulator, ReportIsIndependentOfBatchSplits) {
  const auto g = benchmark("cos", 10);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  for (std::size_t i = 0; i < contents.size(); i += 37) contents[i] ^= 0x5;
  const MonolithicLut lut(10, 10, contents, kTech);
  const auto target = make_target(lut, 10);

  util::Rng rng(11);
  std::vector<core::InputWord> x(std::size_t{1} << 14);
  for (auto& v : x) v = static_cast<core::InputWord>(rng.next_below(1024));
  std::vector<core::OutputWord> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = lut.read(x[i]);

  const auto expected = simulate(target, x, &g, kTech);
  EXPECT_GT(expected.mismatches, 0u);
  EXPECT_GT(expected.output_toggles, 0u);
  const auto bus = output_bus_mask(10);
  for (const std::size_t split : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{255},
                                  std::size_t{1024}, x.size()}) {
    EXPECT_EQ(accumulate_in_splits(x, y, {split}, &g,
                                   target.static_read_energy, bus),
              expected)
        << "split " << split;
  }
  for (int pattern = 0; pattern < 20; ++pattern) {
    std::vector<std::size_t> splits(1 + rng.next_below(8));
    for (auto& s : splits) s = 1 + rng.next_below(3000);
    EXPECT_EQ(accumulate_in_splits(x, y, splits, &g,
                                   target.static_read_energy, bus),
              expected)
        << "random split pattern " << pattern;
  }
}

TEST(Simulator, EnergyIsTheClosedFormOfTheCounters) {
  const auto g = benchmark("exp", 10);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(10, 10, contents, kTech);
  const auto target = make_target(lut, 10);
  util::Rng rng(12);
  const auto report = simulate_random(target, 3001, 10, &g, kTech, rng);
  ASSERT_EQ(report.reads, 3001u);
  ASSERT_GT(report.output_toggles, 0u);
  const double total =
      static_cast<double>(report.reads) * target.static_read_energy +
      static_cast<double>(report.output_toggles) * kTech.wire_energy;
  EXPECT_EQ(report.total_energy, total);
  EXPECT_EQ(report.avg_read_energy,
            total / static_cast<double>(report.reads));
}

TEST(Simulator, TogglesOnBatchBoundariesAreCounted) {
  // Constant within each batch, so every toggle sits on a boundary:
  // 0x0 -> 0xF (4), 0xF -> 0x5 (2), 0x5 -> 0x0 (2).
  const std::vector<std::vector<core::OutputWord>> batches{
      {0x0, 0x0, 0x0}, {0xF, 0xF}, {0x5}, {0x0, 0x0}};
  const double static_energy = 3.0;
  BatchAccumulator acc;
  std::vector<core::OutputWord> whole;
  for (const auto& y : batches) {
    const std::vector<core::InputWord> x(y.size(), 0);
    accumulate_batch(acc, x.data(), y.data(), y.size(), nullptr, kTech,
                     static_energy, output_bus_mask(4));
    whole.insert(whole.end(), y.begin(), y.end());
  }
  const auto split = finish(acc);
  EXPECT_EQ(split.reads, 8u);
  EXPECT_EQ(split.output_toggles, 8u);
  EXPECT_EQ(split.total_energy, 8 * static_energy + 8 * kTech.wire_energy);

  BatchAccumulator one;
  const std::vector<core::InputWord> x(whole.size(), 0);
  accumulate_batch(one, x.data(), whole.data(), whole.size(), nullptr, kTech,
                   static_energy, output_bus_mask(4));
  EXPECT_EQ(finish(one), split);
}

TEST(Simulator, FirstReadOfTheStreamTogglesNothing) {
  // The bus has no value before the first read: a stream opening on 0xF
  // counts no toggle, whether that read is a batch of its own or not.
  const std::vector<core::OutputWord> y{0xF, 0xF, 0xF};
  const std::vector<core::InputWord> x(y.size(), 0);
  BatchAccumulator whole;
  accumulate_batch(whole, x.data(), y.data(), 3, nullptr, kTech, 1.0,
                   output_bus_mask(4));
  EXPECT_EQ(finish(whole).output_toggles, 0u);
  BatchAccumulator split;
  accumulate_batch(split, x.data(), y.data(), 1, nullptr, kTech, 1.0,
                   output_bus_mask(4));
  accumulate_batch(split, x.data() + 1, y.data() + 1, 2, nullptr, kTech, 1.0,
                   output_bus_mask(4));
  EXPECT_EQ(finish(split), finish(whole));
  EXPECT_EQ(split.report.total_energy, 3.0);
}

}  // namespace
}  // namespace dalut::hw
