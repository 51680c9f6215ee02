#include "hw/stream_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>
#include <thread>
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

std::vector<core::InputWord> random_sequence(std::size_t count,
                                             unsigned num_inputs,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::InputWord> sequence(count);
  const std::uint64_t domain = std::uint64_t{1} << num_inputs;
  for (auto& x : sequence) {
    x = static_cast<core::InputWord>(rng.next_below(domain));
  }
  return sequence;
}

core::ApproxLut searched_lut(unsigned width, std::uint64_t seed) {
  const auto g = benchmark("ln", width);
  core::BssaParams params;
  params.bound_size = width / 2;
  params.rounds = 2;
  params.beam_width = 2;
  params.sa.partition_limit = 12;
  params.sa.init_patterns = 6;
  params.seed = seed;
  const auto dist = core::InputDistribution::uniform(width);
  return core::run_bssa(g, dist, params).realize(width);
}

/// A hand-built 3-output ApproxLut exercising all three operating modes
/// (normal, BTO, non-disjoint) in one system.
core::ApproxLut all_modes_lut() {
  const unsigned n = 4;
  core::Setting normal;
  normal.error = 0.0;
  normal.partition = core::Partition(n, 0b0011);
  normal.mode = core::DecompMode::kNormal;
  normal.pattern = {0, 1, 1, 0};
  normal.types = {core::RowType::kAllZero, core::RowType::kAllOne,
                  core::RowType::kPattern, core::RowType::kComplement};

  core::Setting bto;
  bto.error = 0.0;
  bto.partition = core::Partition(n, 0b0101);
  bto.mode = core::DecompMode::kBto;
  bto.pattern = {1, 0, 0, 1};

  core::Setting nd;
  nd.error = 0.0;
  nd.partition = core::Partition(n, 0b0110);
  nd.mode = core::DecompMode::kNonDisjoint;
  nd.shared_bit = 1;  // member of the bound set 0b0110
  nd.pattern0 = {0, 1};
  nd.pattern1 = {1, 1};
  nd.types0 = {core::RowType::kPattern, core::RowType::kComplement,
               core::RowType::kAllOne, core::RowType::kAllZero};
  nd.types1 = {core::RowType::kComplement, core::RowType::kPattern,
               core::RowType::kAllZero, core::RowType::kAllOne};

  return core::ApproxLut::realize(n, {normal, bto, nd});
}

/// A random partition of n inputs with `bound_size` bound bits, `forced`
/// among them.
core::Partition random_partition(unsigned n, unsigned bound_size,
                                 std::uint32_t forced, util::Rng& rng) {
  std::uint32_t mask = forced;
  while (static_cast<unsigned>(std::popcount(mask)) < bound_size) {
    mask |= std::uint32_t{1} << rng.next_below(n);
  }
  return core::Partition(n, mask);
}

std::vector<std::uint8_t> random_bits(std::size_t count, util::Rng& rng) {
  std::vector<std::uint8_t> bits(count);
  for (auto& b : bits) b = rng.next_bool() ? 1 : 0;
  return bits;
}

std::vector<core::RowType> random_types(std::size_t count, util::Rng& rng) {
  std::vector<core::RowType> types(count);
  for (auto& t : types) t = static_cast<core::RowType>(1 + rng.next_below(4));
  return types;
}

/// A random n-input system cycling Normal, BTO and ND units. Unit 0's bound
/// set straddles the byte boundary at input 8 (bits 6..8), and the ND units
/// share input 8 or higher, so every index chunk carries column and row
/// bits. `fill_of(k)` supplies unit k's table contents; two calls with the
/// same `structure_seed` give the same partitions and modes.
template <typename FillOf>
core::ApproxLut filled_all_modes_lut(unsigned n, std::uint64_t structure_seed,
                                     FillOf&& fill_of) {
  util::Rng shape(structure_seed);
  const unsigned outputs = 7;
  std::vector<core::Setting> settings;
  for (unsigned k = 0; k < outputs; ++k) {
    util::Rng& fill = fill_of(k);
    core::Setting s;
    s.error = 0.0;
    const unsigned bound_size =
        4 + static_cast<unsigned>(shape.next_below(n / 2 - 2));
    const std::uint32_t straddle = k == 0 ? 0b111000000u : 0u;
    s.mode = static_cast<core::DecompMode>(k % 3);
    if (s.mode == core::DecompMode::kNonDisjoint) {
      s.shared_bit = 8 + static_cast<unsigned>(shape.next_below(n - 8));
      s.partition = random_partition(
          n, bound_size, std::uint32_t{1} << s.shared_bit, shape);
      const std::size_t cols = s.partition.num_cols();
      const std::size_t rows = s.partition.num_rows();
      s.pattern0 = random_bits(cols / 2, fill);
      s.pattern1 = random_bits(cols / 2, fill);
      s.types0 = random_types(rows, fill);
      s.types1 = random_types(rows, fill);
    } else {
      s.partition = random_partition(n, bound_size, straddle, shape);
      s.pattern = random_bits(s.partition.num_cols(), fill);
      s.types = s.mode == core::DecompMode::kBto
                    ? std::vector<core::RowType>(s.partition.num_rows(),
                                                 core::RowType::kPattern)
                    : random_types(s.partition.num_rows(), fill);
    }
    settings.push_back(std::move(s));
  }
  return core::ApproxLut::realize(n, settings);
}

/// All units' contents drawn from one `contents_seed` stream.
core::ApproxLut random_all_modes_lut(unsigned n, std::uint64_t structure_seed,
                                     std::uint64_t contents_seed) {
  util::Rng fill(contents_seed);
  return filled_all_modes_lut(
      n, structure_seed, [&](unsigned) -> util::Rng& { return fill; });
}

/// Unit k's contents drawn from its own `unit_seeds[k]` stream, so systems
/// that share a seed share that unit's tables.
core::ApproxLut random_all_modes_lut(
    unsigned n, std::uint64_t structure_seed,
    const std::vector<std::uint64_t>& unit_seeds) {
  std::vector<util::Rng> fills;
  for (const std::uint64_t seed : unit_seeds) fills.emplace_back(seed);
  return filled_all_modes_lut(
      n, structure_seed, [&](unsigned k) -> util::Rng& { return fills[k]; });
}

/// eval_batch on `image` against ApproxLutSystem::read, word by word.
void expect_reads_match(const StreamTarget& target,
                        const ApproxLutSystem& system,
                        const std::vector<core::InputWord>& words) {
  std::uint64_t epoch = 0;
  const TableImage& image = target.acquire(epoch);
  std::vector<core::OutputWord> y(words.size());
  target.eval_batch(image, words.data(), y.data(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(y[i], system.read(words[i])) << "x = " << words[i];
  }
}

// ---- Bit identity: batched kernels vs the scalar simulate() loop --------

TEST(StreamEngine, MonolithicBitIdenticalToSimulate) {
  const auto g = benchmark("cos", 10);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(10, 10, contents, kTech);
  const auto sequence = random_sequence(5000, 10, 7);

  const auto scalar =
      simulate(make_target(lut, 10), sequence, &g, kTech);
  auto target = StreamTarget::compile(lut, 10);
  for (const std::size_t batch : {1u, 7u, 256u, 1024u, 8192u}) {
    const auto batched = stream_simulate(target, sequence, &g, kTech, batch);
    EXPECT_EQ(batched, scalar) << "batch size " << batch;
  }
}

TEST(StreamEngine, MonolithicShiftedReadsBitIdentical) {
  // RoundIn / RoundOut shapes: dropped address LSBs and output shifts.
  const auto g = benchmark("exp", 8);
  std::vector<std::uint32_t> contents;
  for (std::uint32_t i = 0; i < 64; ++i) {
    contents.push_back(g.value(i << 2) >> 1);
  }
  const MonolithicLut lut(6, 7, contents, kTech, /*addr_shift=*/2,
                          /*out_shift=*/1);
  const auto sequence = random_sequence(2000, 8, 9);
  const auto scalar = simulate(make_target(lut, 8), sequence, &g, kTech);
  auto target = StreamTarget::compile(lut, 8);
  EXPECT_EQ(stream_simulate(target, sequence, &g, kTech, 64), scalar);
}

TEST(StreamEngine, ArchitecturesBitIdenticalToSimulate) {
  const unsigned width = 8;
  const auto lut = searched_lut(width, 3);
  const auto reference = lut.to_function();
  const auto sequence = random_sequence(4096, width, 5);

  for (const auto kind : {ArchKind::kDalta, ArchKind::kBtoNormalNd}) {
    const ApproxLutSystem system(kind, lut, kTech);
    const auto scalar =
        simulate(make_target(system), sequence, &reference, kTech);
    auto target = StreamTarget::compile(system);
    for (const std::size_t batch : {1u, 33u, 1024u}) {
      const auto batched =
          stream_simulate(target, sequence, &reference, kTech, batch);
      EXPECT_EQ(batched, scalar)
          << to_string(kind) << " batch " << batch;
    }
  }
}

TEST(StreamEngine, AllThreeModesBitIdenticalOverFullDomain) {
  const auto lut = all_modes_lut();
  const auto reference = lut.to_function();
  const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);

  std::vector<core::InputWord> domain(16);
  for (core::InputWord x = 0; x < 16; ++x) domain[x] = x;
  auto shuffled = random_sequence(3000, 4, 13);
  domain.insert(domain.end(), shuffled.begin(), shuffled.end());

  const auto scalar =
      simulate(make_target(system), domain, &reference, kTech);
  EXPECT_EQ(scalar.mismatches, 0u);  // hardware == functional model
  auto target = StreamTarget::compile(system);
  EXPECT_EQ(stream_simulate(target, domain, &reference, kTech, 5), scalar);
}

TEST(StreamEngine, RandomSystemsMatchReadAcrossIndexByteBoundaries) {
  // Widths with two (9, 14, 16) and three (17, 20) index chunks; the full
  // domain up to 16 inputs, 2^16 seeded random words above.
  for (const unsigned n : {9u, 14u, 16u, 17u, 20u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const auto lut = random_all_modes_lut(n, 1000 + n, 2000 + n);
    const auto reference = lut.to_function();
    const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);
    ASSERT_EQ(system.units()[0].decomposition().partition().bound_mask() &
                  0b111000000u,
              0b111000000u);

    std::vector<core::InputWord> words;
    if (n <= 16) {
      words.resize(std::size_t{1} << n);
      for (std::size_t i = 0; i < words.size(); ++i) {
        words[i] = static_cast<core::InputWord>(i);
      }
    } else {
      words = random_sequence(std::size_t{1} << 16, n, 3000 + n);
    }

    // Every check runs through a moved target, pinning the move
    // constructor's transfer of the index tables.
    auto compiled = StreamTarget::compile(system);
    StreamTarget target(std::move(compiled));
    expect_reads_match(target, system, words);
    EXPECT_EQ(stream_simulate(target, words, &reference, kTech, 1000),
              simulate(make_target(system), words, &reference, kTech));

    // Same structure, new contents: reconfigure() rewrites the whole
    // inactive image and the index tables keep serving.
    const ApproxLutSystem next(ArchKind::kBtoNormalNd,
                               random_all_modes_lut(n, 1000 + n, 4000 + n),
                               kTech);
    target.reconfigure(next);
    expect_reads_match(target, next, words);
  }
}

TEST(StreamEngine, ReconfigureChainReflattensOnlyChangedUnits) {
  // Same-structure systems whose consecutive members differ in zero, one,
  // several and all units, and one that returns to the contents two swaps
  // back. reconfigure() diffs against the inactive image, which holds the
  // system published two swaps earlier (both images hold the compiled one
  // at first), and must re-flatten exactly the units that differ from it.
  const std::vector<std::vector<std::uint64_t>> chain = {
      {1, 2, 3, 4, 5, 6, 7},         // compiled
      {1, 2, 3, 4, 5, 6, 7},         // no unit changed
      {1, 2, 3, 40, 5, 6, 7},        // one
      {10, 2, 30, 40, 5, 50, 7},     // several
      {11, 12, 13, 14, 15, 16, 17},  // all
      {11, 12, 13, 14, 15, 16, 70},  // one
      {11, 21, 13, 14, 24, 16, 70},  // several
      {11, 12, 13, 14, 15, 16, 70},  // back to two swaps earlier
  };
  for (const unsigned n : {9u, 14u, 17u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<core::InputWord> domain(std::size_t{1} << n);
    for (std::size_t i = 0; i < domain.size(); ++i) {
      domain[i] = static_cast<core::InputWord>(i);
    }
    const ApproxLutSystem first(
        ArchKind::kBtoNormalNd, random_all_modes_lut(n, 500 + n, chain[0]),
        kTech);
    auto target = StreamTarget::compile(first);
    expect_reads_match(target, first, domain);
    EXPECT_EQ(target.units_reflattened(), 0u);

    for (std::size_t step = 1; step < chain.size(); ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const auto& two_back = chain[step < 2 ? 0 : step - 2];
      std::uint64_t differing = 0;
      for (std::size_t k = 0; k < chain[step].size(); ++k) {
        differing += chain[step][k] != two_back[k] ? 1 : 0;
      }
      const ApproxLutSystem system(
          ArchKind::kBtoNormalNd,
          random_all_modes_lut(n, 500 + n, chain[step]), kTech);
      const std::uint64_t before = target.units_reflattened();
      const auto epoch = target.reconfigure(system);
      EXPECT_EQ(target.units_reflattened() - before, differing);
      expect_reads_match(target, system, domain);
      target.mark_applied(epoch);
    }
  }
}

TEST(StreamEngine, CompileRejectsSystemsAboveTheFlatImageBound) {
  // One BTO unit over 25 inputs: small tables, but a 2^25-word image.
  const unsigned n = LutRam::kMaxAddrBits + 1;
  core::Setting bto;
  bto.error = 0.0;
  bto.partition = core::Partition(n, 0xfffu);
  bto.mode = core::DecompMode::kBto;
  bto.pattern.assign(bto.partition.num_cols(), 1);
  bto.types.assign(bto.partition.num_rows(), core::RowType::kPattern);
  const ApproxLutSystem system(ArchKind::kBtoNormalNd,
                               core::ApproxLut::realize(n, {bto}), kTech);
  EXPECT_THROW(StreamTarget::compile(system), std::invalid_argument);
}

TEST(StreamEngine, TogglesUseCorrectedMaskedAccounting) {
  // Reads wider than the declared output bus: the batched engine must
  // reproduce the *masked* toggle numbers of the fixed simulate() loop.
  const MonolithicLut lut(2, 2, {3, 0, 3, 0}, kTech, 0, /*out_shift=*/2);
  const std::vector<core::InputWord> sequence{0, 1, 0, 1, 0};
  // Declared bus of 2 wires: the shifted-out value toggles only bits 2..3,
  // which do not exist on the bus.
  const auto scalar = simulate(make_target(lut, 2), sequence, nullptr, kTech);
  EXPECT_EQ(scalar.output_toggles, 0u);
  EXPECT_NEAR(scalar.total_energy, 5 * lut.cost().read_energy, 1e-9);
  auto narrow = StreamTarget::compile(lut, 2);
  EXPECT_EQ(stream_simulate(narrow, sequence, nullptr, kTech, 2), scalar);

  // A 4-wire bus sees both toggling bits.
  const auto wide_scalar =
      simulate(make_target(lut, 4), sequence, nullptr, kTech);
  EXPECT_EQ(wide_scalar.output_toggles, 8u);
  auto wide = StreamTarget::compile(lut, 4);
  EXPECT_EQ(stream_simulate(wide, sequence, nullptr, kTech, 3), wide_scalar);
}

TEST(StreamEngine, MismatchesCountAcrossBatchBoundaries) {
  // Identity LUT with two wrong entries; each pass over the domain reads
  // both once, wherever the batch boundaries fall.
  const auto g = core::MultiOutputFunction::from_eval(
      4, 4, [](core::InputWord x) { return x; });
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  contents[5] ^= 0x1;
  contents[9] ^= 0x8;
  const MonolithicLut lut(4, 4, contents, kTech);
  std::vector<core::InputWord> sequence;
  for (int pass = 0; pass < 3; ++pass) {
    for (core::InputWord x = 0; x < 16; ++x) sequence.push_back(x);
  }
  const auto scalar = simulate(make_target(lut, 4), sequence, &g, kTech);
  EXPECT_EQ(scalar.mismatches, 6u);
  auto target = StreamTarget::compile(lut, 4);
  for (const std::size_t batch : {1u, 2u, 5u, 6u, 9u, 48u}) {
    EXPECT_EQ(stream_simulate(target, sequence, &g, kTech, batch), scalar)
        << "batch " << batch;
  }
}

TEST(StreamEngine, OutShiftOverhangStaysMaskedAcrossBatchBoundaries) {
  // Reads 12, 0, 12, ... on a 2-wire bus: every change is overhang, so no
  // batch split may count a toggle, and the energy is exactly static.
  const MonolithicLut lut(2, 2, {3, 0, 3, 0}, kTech, 0, /*out_shift=*/2);
  const std::vector<core::InputWord> sequence{0, 1, 2, 3, 0, 1, 2};
  // A 4-output reference that disagrees with the hardware at x == 2.
  const auto reference = core::MultiOutputFunction::from_eval(
      2, 4, [](core::InputWord x) { return x == 0 ? 12u : 0u; });
  auto target = StreamTarget::compile(lut, 2);
  for (const std::size_t batch : {1u, 2u, 3u, 7u}) {
    const auto report =
        stream_simulate(target, sequence, &reference, kTech, batch);
    EXPECT_EQ(report.output_toggles, 0u) << "batch " << batch;
    EXPECT_EQ(report.mismatches, 2u) << "batch " << batch;
    EXPECT_EQ(report.total_energy, 7 * lut.cost().read_energy)
        << "batch " << batch;
  }
}

// ---- Multi-producer engine ----------------------------------------------

/// The engine's documented deterministic drain order: round-robin over the
/// rings, min(batch, remaining) from each per cycle.
std::vector<core::InputWord> expected_merge(
    const std::vector<std::vector<core::InputWord>>& shards,
    std::size_t batch) {
  std::vector<std::size_t> pos(shards.size(), 0);
  std::vector<bool> done(shards.size(), false);
  std::size_t open = shards.size();
  std::vector<core::InputWord> merged;
  while (open > 0) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (done[i]) continue;
      const std::size_t remaining = shards[i].size() - pos[i];
      const std::size_t take = std::min(batch, remaining);
      if (take == 0) {
        done[i] = true;
        --open;
        continue;
      }
      merged.insert(merged.end(), shards[i].begin() + pos[i],
                    shards[i].begin() + pos[i] + take);
      pos[i] += take;
    }
  }
  return merged;
}

void push_shard(util::SpscRing<core::InputWord>& ring,
                const std::vector<core::InputWord>& shard) {
  std::size_t pushed = 0;
  while (pushed < shard.size()) {
    pushed += ring.try_push(shard.data() + pushed, shard.size() - pushed);
    if (pushed < shard.size()) std::this_thread::yield();
  }
  ring.close();
}

TEST(StreamEngine, EngineReportBitIdenticalAtOneAndEightProducers) {
  const unsigned width = 8;
  const auto lut = searched_lut(width, 4);
  const auto reference = lut.to_function();
  const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);

  for (const std::size_t producers : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::vector<core::InputWord>> shards;
    for (std::size_t p = 0; p < producers; ++p) {
      // Deliberately ragged shard sizes: partial final batches everywhere.
      shards.push_back(
          random_sequence(1500 + 331 * p, width, 100 + p));
    }

    StreamConfig config;
    config.batch_size = 256;
    config.ring_capacity = 512;
    auto target = StreamTarget::compile(system);
    StreamEngine engine(target, kTech, producers, config);

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back(push_shard, std::ref(engine.ring(p)),
                           std::cref(shards[p]));
    }
    const auto report = engine.run(&reference);
    for (auto& t : threads) t.join();

    const auto merged = expected_merge(shards, config.batch_size);
    const auto scalar =
        simulate(make_target(system), merged, &reference, kTech);
    EXPECT_EQ(report.sim, scalar) << producers << " producers";
    EXPECT_EQ(report.sim.reads, merged.size());
    EXPECT_GT(report.batches, 0u);
    EXPECT_EQ(report.reconfigs_observed, 0u);
  }
}

TEST(StreamEngine, EngineIsReusableAcrossRuns) {
  const auto g = benchmark("cos", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  auto target = StreamTarget::compile(lut, 8);

  const auto shard = random_sequence(700, 8, 21);
  SimulationReport first;
  for (int round = 0; round < 2; ++round) {
    StreamEngine engine(target, kTech, 2, {64, 128});
    std::thread a(push_shard, std::ref(engine.ring(0)), std::cref(shard));
    std::thread b(push_shard, std::ref(engine.ring(1)), std::cref(shard));
    const auto report = engine.run(&g);
    a.join();
    b.join();
    if (round == 0) {
      first = report.sim;
    } else {
      EXPECT_EQ(report.sim, first);  // timing-independent determinism
    }
  }
}

// ---- Runtime reconfiguration --------------------------------------------

TEST(StreamEngine, ReconfigureRejectsShapeMismatch) {
  const auto g = benchmark("cos", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  auto target = StreamTarget::compile(lut, 8);
  target.mark_applied(target.published_epoch());

  const MonolithicLut narrower(7, 8,
                               std::vector<std::uint32_t>(128, 0), kTech);
  EXPECT_THROW(target.reconfigure(narrower), std::invalid_argument);
  const MonolithicLut shifted(8, 8, contents, kTech, 0, 1);
  EXPECT_THROW(target.reconfigure(shifted), std::invalid_argument);

  const auto lut_a = all_modes_lut();
  const ApproxLutSystem sys_a(ArchKind::kBtoNormalNd, lut_a, kTech);
  EXPECT_THROW(target.reconfigure(sys_a), std::invalid_argument);
}

TEST(StreamEngine, ReconfigureSwapsContentsBetweenBatches) {
  // Identity vs complement contents: every read unambiguously identifies
  // which table generation served it.
  std::vector<std::uint32_t> identity(256), complement(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    identity[i] = i;
    complement[i] = ~i & 0xffu;
  }
  const MonolithicLut lut_a(8, 8, identity, kTech);
  const MonolithicLut lut_b(8, 8, complement, kTech);
  auto target = StreamTarget::compile(lut_a, 8);
  target.mark_applied(target.published_epoch());

  const auto e1 = target.reconfigure(lut_b);
  EXPECT_EQ(e1, 1u);
  target.mark_applied(e1);
  const auto sequence = random_sequence(100, 8, 3);
  std::vector<core::OutputWord> y(sequence.size());
  std::uint64_t epoch = 0;
  const TableImage& image = target.acquire(epoch);
  EXPECT_EQ(epoch, e1);
  target.eval_batch(image, sequence.data(), y.data(), sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(y[i], complement[sequence[i]]);
  }
}

/// A writer thread publishes generations[1], [2], ... [0], [1], ... (epoch e
/// holds generations[e % size]) while this thread evaluates batches. Every
/// batch must be served entirely by the epoch it acquired: a single
/// mixed-generation read would break the expectation.
template <typename Source>
void expect_no_torn_reads(StreamTarget& target,
                          const std::vector<const Source*>& generations,
                          const std::vector<core::InputWord>& sequence) {
  std::vector<std::vector<core::OutputWord>> expected;
  for (const Source* source : generations) {
    expected.emplace_back();
    for (const core::InputWord x : sequence) {
      expected.back().push_back(source->read(x));
    }
  }

  constexpr std::uint64_t kSwaps = 200;
  std::thread writer([&] {
    for (std::uint64_t s = 1; s <= kSwaps; ++s) {
      target.reconfigure(*generations[s % generations.size()]);
    }
  });

  std::vector<core::OutputWord> y(sequence.size());
  std::uint64_t max_epoch = 0;
  while (max_epoch < kSwaps) {
    std::uint64_t epoch = 0;
    const TableImage& image = target.acquire(epoch);
    target.eval_batch(image, sequence.data(), y.data(), sequence.size());
    const auto& want = expected[epoch % generations.size()];
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      ASSERT_EQ(y[i], want[i]) << "torn read at epoch " << epoch;
    }
    target.mark_applied(epoch);
    max_epoch = std::max(max_epoch, epoch);
  }
  writer.join();
  EXPECT_EQ(target.published_epoch(), kSwaps);
}

TEST(StreamEngine, NoTornReadsAcrossConcurrentSwapEpochs) {
  // Monolithic: identity <-> complement, every entry re-programmed.
  std::vector<std::uint32_t> identity(256), complement(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    identity[i] = i;
    complement[i] = ~i & 0xffu;
  }
  const MonolithicLut lut_a(8, 8, identity, kTech);
  const MonolithicLut lut_b(8, 8, complement, kTech);
  auto mono = StreamTarget::compile(lut_a, 8);
  expect_no_torn_reads<MonolithicLut>(mono, {&lut_a, &lut_b},
                                      random_sequence(64, 8, 17));

  // BTO-Normal-ND: three same-structure systems in rotation, so the image
  // each swap writes always held a different system and every swap
  // re-flattens units while the consumer reads the other image.
  const unsigned n = 9;
  std::vector<ApproxLutSystem> systems;
  for (std::uint64_t contents = 0; contents < 3; ++contents) {
    systems.emplace_back(ArchKind::kBtoNormalNd,
                         random_all_modes_lut(n, 77, 900 + contents), kTech);
  }
  auto nd = StreamTarget::compile(systems[0]);
  expect_no_torn_reads<ApproxLutSystem>(
      nd, {&systems[0], &systems[1], &systems[2]},
      random_sequence(64, n, 19));
  EXPECT_GT(nd.units_reflattened(), 0u);
}

TEST(StreamEngine, MidStreamReconfigurationObservedByEngine) {
  std::vector<std::uint32_t> identity(256), complement(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    identity[i] = i;
    complement[i] = ~i & 0xffu;
  }
  const MonolithicLut lut_a(8, 8, identity, kTech);
  const MonolithicLut lut_b(8, 8, complement, kTech);
  auto target = StreamTarget::compile(lut_a, 8);

  StreamConfig config;
  config.batch_size = 64;
  StreamEngine engine(target, kTech, 1, config);

  // The producer holds the second half of the stream until every swap has
  // been published and applied, so the engine is guaranteed to retire at
  // least one batch on the final epoch.
  const auto shard = random_sequence(1 << 14, 8, 23);
  constexpr int kSwaps = 4;
  std::atomic<bool> half_pushed{false};
  std::atomic<bool> swaps_done{false};
  std::thread producer([&] {
    auto& ring = engine.ring(0);
    const std::size_t half = shard.size() / 2;  // multiple of batch_size
    std::size_t pushed = 0;
    while (pushed < half) {
      pushed += ring.try_push(shard.data() + pushed, half - pushed);
      if (pushed < half) std::this_thread::yield();
    }
    half_pushed.store(true, std::memory_order_release);
    while (!swaps_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (pushed < shard.size()) {
      pushed += ring.try_push(shard.data() + pushed, shard.size() - pushed);
      if (pushed < shard.size()) std::this_thread::yield();
    }
    ring.close();
  });
  std::thread writer([&] {
    // Only swap once the engine has provably consumed batches (the first
    // half drained), so every epoch advance happens mid-stream.
    while (!half_pushed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (!engine.ring(0).empty()) std::this_thread::yield();
    for (int s = 0; s < kSwaps; ++s) {
      const auto epoch = target.reconfigure(s % 2 == 0 ? lut_b : lut_a);
      // Swap latency: publish -> consumer retires the new table (a batch,
      // or an idle tick while it waits for the held-back half).
      while (target.applied_epoch() < epoch) std::this_thread::yield();
    }
    swaps_done.store(true, std::memory_order_release);
  });

  const auto report = engine.run(nullptr);
  producer.join();
  writer.join();

  EXPECT_EQ(report.sim.reads, shard.size());
  EXPECT_EQ(report.reconfigs_observed, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(target.applied_epoch(), target.published_epoch());
  EXPECT_GT(report.reads_per_sec, 0.0);
}

}  // namespace
}  // namespace dalut::hw
