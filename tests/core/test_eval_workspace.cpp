// Equivalence tests for the EvalWorkspace evaluation engine: every kernel
// must reproduce the reference CostMatrix / opt_for_part path bit-for-bit.
#include "core/eval_workspace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "core/algorithm_common.hpp"
#include "core/multi_shared.hpp"
#include "core/partition_opt.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace dalut::core {
namespace {

struct CostFixture {
  unsigned num_inputs;
  std::vector<double> c0;
  std::vector<double> c1;

  explicit CostFixture(unsigned n, std::uint64_t seed) : num_inputs(n) {
    util::Rng rng(seed);
    const std::size_t domain = std::size_t{1} << n;
    c0.resize(domain);
    c1.resize(domain);
    for (std::size_t x = 0; x < domain; ++x) {
      c0[x] = rng.next_double();
      c1[x] = rng.next_double();
    }
  }

  CostView view() const { return CostView(c0, c1); }
  CostView stamped() const { return CostView(c0, c1, next_cost_epoch()); }
};

void expect_same_matrix(const InterleavedCostMatrix& actual,
                        const CostMatrix& expected) {
  ASSERT_EQ(actual.rows, expected.rows);
  ASSERT_EQ(actual.cols, expected.cols);
  for (std::size_t r = 0; r < expected.rows; ++r) {
    for (std::size_t c = 0; c < expected.cols; ++c) {
      EXPECT_EQ(actual.at0(r, c), expected.at0(r, c)) << r << "," << c;
      EXPECT_EQ(actual.at1(r, c), expected.at1(r, c)) << r << "," << c;
    }
  }
}

void expect_same_result(const VtResult& actual, const VtResult& expected) {
  EXPECT_EQ(actual.error, expected.error);  // bit-identical, not just close
  EXPECT_EQ(actual.pattern, expected.pattern);
  EXPECT_EQ(actual.types, expected.types);
}

TEST(EvalWorkspace, FullMatrixMatchesReferenceBuild) {
  const CostFixture fx(8, 11);
  util::Rng rng(1);
  auto& workspace = EvalWorkspace::local();
  for (unsigned bound = 2; bound <= 6; ++bound) {
    const auto p = Partition::random(fx.num_inputs, bound, rng);
    const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
    // Unstamped view: split source arrays.
    expect_same_matrix(workspace.full_matrix(p, fx.view()), reference);
    // Stamped view: interleaved source mirror.
    expect_same_matrix(workspace.full_matrix(p, fx.stamped()), reference);
  }

  // Nothing is cached across calls: the same stamped partition requested
  // three times is gathered three times, each time equal to the reference,
  // and one conditioned slice counts one slice.
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
  const CostView stamped = fx.stamped();
  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);
  for (int i = 0; i < 3; ++i) {
    expect_same_matrix(workspace.full_matrix(p, stamped), reference);
  }
  auto snap = util::telemetry::snapshot_metrics();
  EXPECT_EQ(snap.counter_value("evalcache.gathers"), 3u);
  EXPECT_EQ(snap.counter_value("evalcache.slices"), 0u);
  const std::uint32_t shared = p.bound_mask() & (~p.bound_mask() + 1);
  (void)workspace.conditioned(workspace.full_matrix(p, stamped), p, shared,
                              0);
  snap = util::telemetry::snapshot_metrics();
  EXPECT_EQ(snap.counter_value("evalcache.gathers"), 4u);
  EXPECT_EQ(snap.counter_value("evalcache.slices"), 1u);
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::reset_metrics_for_test();
}

// Regression: the per-thread deposit-table cache flushes wholesale once it
// holds 256 masks. A flush triggered by the bound-mask lookup used to
// invalidate the free-mask table already referenced by the same gather.
// Within one input width masks enter in complement pairs, keeping the map
// size even and landing every flush on the harmless first lookup, so the
// trigger needs partitions of different widths sharing one workspace — as
// in a batch run over tables of different sizes.
TEST(EvalWorkspace, GatherSurvivesDepositTableFlush) {
  const CostFixture fx12(12, 13);
  const CostFixture fx10(10, 14);
  // A fresh thread gets a pristine thread-local workspace, making the
  // deposit-table fill sequence below exact.
  std::thread([&] {
    auto& workspace = EvalWorkspace::local();
    const auto check = [&](const Partition& p, const CostFixture& fx) {
      const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
      expect_same_matrix(workspace.full_matrix(p, fx.view()), reference);
    };
    // 127 distinct popcount-6 bound masks cache 254 tables (each gather
    // inserts the bound mask and its complement).
    unsigned pairs = 0;
    for (std::uint32_t mask = 0; mask < 0x1000 && pairs < 127; ++mask) {
      if (std::popcount(mask) != 6 || mask > (0xFFFu ^ mask)) continue;
      check(Partition(12, mask), fx12);
      ++pairs;
    }
    // A 10-input gather caches free mask 0x3FC without its 12-bit
    // complement, reaching the 256-entry flush threshold.
    check(Partition(10, 0x003), fx10);
    // Now free mask 0x3FC hits while bound mask 0xC03 misses at capacity:
    // the miss flushes the cache while the free-mask table is referenced
    // by the in-flight gather.
    check(Partition(12, 0xC03), fx12);
  }).join();
}

TEST(EvalWorkspace, ConditionedSliceMatchesReferenceBuilds) {
  const CostFixture fx(8, 12);
  util::Rng rng(2);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto& full = workspace.full_matrix(p, fx.view());

  for (const unsigned shared : p.bound_inputs()) {
    const std::uint32_t mask = std::uint32_t{1} << shared;
    for (std::uint32_t value = 0; value < 2; ++value) {
      const auto reference = CostMatrix::build_conditioned(
          p, shared, value != 0, fx.c0, fx.c1);
      expect_same_matrix(workspace.conditioned(full, p, mask, value),
                         reference);
    }
  }

  // Two shared bits: against the generalized set builder.
  const auto bound = p.bound_inputs();
  const std::uint32_t pair_mask =
      (std::uint32_t{1} << bound[0]) | (std::uint32_t{1} << bound[2]);
  for (std::uint32_t values = 0; values < 4; ++values) {
    const auto reference = CostMatrix::build_conditioned_set(
        p, pair_mask, values, fx.c0, fx.c1);
    expect_same_matrix(workspace.conditioned(full, p, pair_mask, values),
                       reference);
  }
}

TEST(EvalWorkspace, OptForPartBitIdenticalToReference) {
  const CostFixture fx(9, 13);
  util::Rng part_rng(3);
  auto& workspace = EvalWorkspace::local();
  for (const unsigned restarts : {1u, 7u, 30u}) {
    const auto p = Partition::random(fx.num_inputs, 4, part_rng);
    const auto reference_matrix = CostMatrix::build(p, fx.c0, fx.c1);
    const OptForPartParams params{restarts, 64};

    util::Rng ref_rng(77);
    const auto expected = opt_for_part(reference_matrix, params, ref_rng);

    util::Rng ws_rng(77);
    const auto actual = workspace.opt_for_part(
        workspace.full_matrix(p, fx.view()), params, ws_rng);

    expect_same_result(actual, expected);
    // Identical RNG stream: both sides must leave the generator in the
    // same state.
    EXPECT_EQ(ref_rng.next_double(), ws_rng.next_double());
  }
}

TEST(EvalWorkspace, OptForPartBitIdenticalAcrossBlockSizes) {
  const CostFixture fx(8, 14);
  util::Rng part_rng(4);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const OptForPartParams params{10, 64};

  util::Rng ref_rng(5);
  const auto expected =
      opt_for_part(CostMatrix::build(p, fx.c0, fx.c1), params, ref_rng);

  // Forcing 1-, 3-, and 4-restart blocks must not change anything: each
  // restart's arithmetic is independent of how restarts are grouped.
  for (const unsigned block : {1u, 3u, 4u, 10u}) {
    workspace.set_opt_restart_block_for_test(block);
    util::Rng ws_rng(5);
    const auto actual = workspace.opt_for_part(
        workspace.full_matrix(p, fx.view()), params, ws_rng);
    expect_same_result(actual, expected);
  }
  workspace.set_opt_restart_block_for_test(0);
}

TEST(EvalWorkspace, BtoBitIdenticalToReference) {
  const CostFixture fx(8, 15);
  util::Rng rng(6);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 5, rng);
  const auto expected = opt_for_part_bto(CostMatrix::build(p, fx.c0, fx.c1));
  const auto actual =
      workspace.opt_for_part_bto(workspace.full_matrix(p, fx.view()));
  expect_same_result(actual, expected);
}

TEST(EvalWorkspace, EvaluateVtMatchesReference) {
  const CostFixture fx(8, 16);
  util::Rng rng(7);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto reference_matrix = CostMatrix::build(p, fx.c0, fx.c1);
  const auto vt = opt_for_part(reference_matrix, {8, 64}, rng);

  const auto& matrix = workspace.full_matrix(p, fx.view());
  EXPECT_EQ(workspace.evaluate_vt(matrix, vt.pattern, vt.types),
            evaluate_vt(reference_matrix, vt.pattern, vt.types));
}

TEST(EvalWorkspace, EvaluateVtAgreesWithSettingErrorUnderCosts) {
  const CostFixture fx(8, 17);
  util::Rng rng(8);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto setting = optimize_normal(p, fx.c0, fx.c1, {8, 64}, rng);

  // Different summation orders (realized 2^n domain vs row-major matrix),
  // so agreement is up to FP reassociation only.
  const double realized = setting_error_under_costs(setting, fx.c0, fx.c1);
  const double gathered = workspace.evaluate_vt(
      workspace.full_matrix(p, fx.view()), setting.pattern, setting.types);
  EXPECT_NEAR(gathered, realized, 1e-12 * (1.0 + std::abs(realized)));
  EXPECT_NEAR(setting.error, realized, 1e-12 * (1.0 + std::abs(realized)));
}

TEST(EvalWorkspace, OptimizeNormalBitIdenticalToLegacyPath) {
  const CostFixture fx(9, 18);
  util::Rng part_rng(9);
  const auto p = Partition::random(fx.num_inputs, 5, part_rng);
  const OptForPartParams params{12, 64};

  util::Rng ref_rng(21);
  const auto expected =
      opt_for_part(CostMatrix::build(p, fx.c0, fx.c1), params, ref_rng);

  util::Rng rng(21);
  const auto setting = optimize_normal(p, fx.c0, fx.c1, params, rng);
  EXPECT_EQ(setting.error, expected.error);
  EXPECT_EQ(setting.pattern, expected.pattern);
  EXPECT_EQ(setting.types, expected.types);
  EXPECT_EQ(setting.mode, DecompMode::kNormal);
}

TEST(EvalWorkspace, OptimizeNondisjointBitIdenticalToLegacyPath) {
  const CostFixture fx(8, 19);
  util::Rng part_rng(10);
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const OptForPartParams params{6, 64};

  // Replicate the pre-engine implementation: per shared bit, two
  // conditioned builds then two reference optimizations in order.
  Setting expected;
  util::Rng ref_rng(31);
  for (const unsigned shared : p.bound_inputs()) {
    const auto m0 =
        CostMatrix::build_conditioned(p, shared, false, fx.c0, fx.c1);
    const auto m1 =
        CostMatrix::build_conditioned(p, shared, true, fx.c0, fx.c1);
    auto vt0 = opt_for_part(m0, params, ref_rng);
    auto vt1 = opt_for_part(m1, params, ref_rng);
    const double error = vt0.error + vt1.error;
    if (error < expected.error) {
      expected.error = error;
      expected.shared_bit = shared;
      expected.pattern0 = std::move(vt0.pattern);
      expected.types0 = std::move(vt0.types);
      expected.pattern1 = std::move(vt1.pattern);
      expected.types1 = std::move(vt1.types);
    }
  }

  util::Rng rng(31);
  const auto actual = optimize_nondisjoint(p, fx.c0, fx.c1, params, rng);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.shared_bit, expected.shared_bit);
  EXPECT_EQ(actual.pattern0, expected.pattern0);
  EXPECT_EQ(actual.types0, expected.types0);
  EXPECT_EQ(actual.pattern1, expected.pattern1);
  EXPECT_EQ(actual.types1, expected.types1);
}

TEST(EvalWorkspace, MultiSharedBitIdenticalToLegacyPath) {
  const CostFixture fx(8, 20);
  util::Rng part_rng(11);
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const OptForPartParams params{5, 64};
  const auto bound = p.bound_inputs();
  const std::vector<unsigned> shared{bound[1], bound[3]};
  const std::uint32_t mask =
      (std::uint32_t{1} << shared[0]) | (std::uint32_t{1} << shared[1]);

  MultiSharedSetting expected;
  expected.error = 0.0;
  util::Rng ref_rng(41);
  for (std::uint32_t j = 0; j < 4; ++j) {
    const auto matrix =
        CostMatrix::build_conditioned_set(p, mask, j, fx.c0, fx.c1);
    auto vt = opt_for_part(matrix, params, ref_rng);
    expected.error += vt.error;
    expected.patterns.push_back(std::move(vt.pattern));
    expected.types.push_back(std::move(vt.types));
  }

  util::Rng rng(41);
  const auto actual = optimize_for_shared_set(p, shared, fx.c0, fx.c1,
                                              params, rng);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.patterns, expected.patterns);
  EXPECT_EQ(actual.types, expected.types);
}

}  // namespace
}  // namespace dalut::core
