// Google-benchmark micro benchmarks for the core kernels: cost-array
// construction, cost-matrix scatter, OptForPart, the SA search, and the
// realized-LUT read path. These are the hot loops of both algorithms.
#include <benchmark/benchmark.h>

#include <optional>

#include "core/bit_cost.hpp"
#include "core/bssa.hpp"
#include "core/dalta.hpp"
#include "core/eval_workspace.hpp"
#include "core/partition_opt.hpp"
#include "core/sa_search.hpp"
#include "func/registry.hpp"
#include "hw/simulator.hpp"
#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace {

using namespace dalut;

core::MultiOutputFunction make_cos(unsigned width) {
  const auto spec = *func::benchmark_by_name("cos", width);
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

void BM_BuildBitCosts(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto cache = g.values();
  for (auto _ : state) {
    auto costs = core::build_bit_costs(g, cache, width - 1,
                                       core::LsbModel::kPredictive, dist);
    benchmark::DoNotOptimize(costs.c0.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_BuildBitCosts)->Arg(10)->Arg(12)->Arg(14);

void BM_CostMatrixScatter(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(1);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  for (auto _ : state) {
    auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
    benchmark::DoNotOptimize(matrix.cost0.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_CostMatrixScatter)->Arg(10)->Arg(12)->Arg(14)->Arg(16);

void BM_CostMatrixGather(benchmark::State& state) {
  // The EvalWorkspace replacement for BM_CostMatrixScatter: interleaved
  // source + thread-local scratch; every iteration pays the full gather.
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(1);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  auto& workspace = core::EvalWorkspace::local();
  for (auto _ : state) {
    const auto& matrix = workspace.full_matrix(p, costs);
    benchmark::DoNotOptimize(matrix.cells.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_CostMatrixGather)->Arg(10)->Arg(12)->Arg(14)->Arg(16);

void BM_OptForPart(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(2);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  const auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
  for (auto _ : state) {
    auto result = core::opt_for_part(matrix, {30, 64}, rng);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_OptForPart)->Arg(10)->Arg(12)->Arg(14);

void BM_OptForPartWorkspace(benchmark::State& state) {
  // The restart-blocked EvalWorkspace kernel on the same problem as
  // BM_OptForPart (bit-identical results; register-tiled types and pattern
  // sweeps over all Z restarts at once).
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(2);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  auto& workspace = core::EvalWorkspace::local();
  const auto& matrix = workspace.full_matrix(p, costs);
  for (auto _ : state) {
    auto result = workspace.opt_for_part(matrix, {30, 64}, rng);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_OptForPartWorkspace)->Arg(10)->Arg(12)->Arg(14);

void BM_OptForPartBto(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(3);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  const auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
  for (auto _ : state) {
    auto result = core::opt_for_part_bto(matrix);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_OptForPartBto)->Arg(10)->Arg(12);

void BM_FindBestSettings(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  core::SaParams params;
  params.partition_limit = static_cast<unsigned>(state.range(0));
  params.init_patterns = 8;
  params.chains = 3;
  util::Rng rng(4);
  for (auto _ : state) {
    auto result = core::find_best_settings(width, 6, costs.c0, costs.c1, 3,
                                           params, rng, nullptr, false);
    benchmark::DoNotOptimize(result.top.data());
  }
}
BENCHMARK(BM_FindBestSettings)->Arg(10)->Arg(40);

void BM_TelemetryOverhead(benchmark::State& state) {
  // The instrumented SA hot path — find_best_settings drives OptForPart per
  // candidate and carries the sa.* counters and sweep spans — with telemetry
  // off (Arg 0) vs. metrics + tracing on (Arg 1). The delta between the two
  // rows is the telemetry tax; the acceptance bound is < 2%
  // (docs/observability.md).
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  core::SaParams params;
  params.partition_limit = 20;
  params.init_patterns = 8;
  params.chains = 3;
  const bool enabled = state.range(0) != 0;
  util::telemetry::set_metrics_enabled(enabled);
  util::telemetry::set_tracing_enabled(enabled);
  util::Rng rng(4);
  for (auto _ : state) {
    auto result = core::find_best_settings(width, 6, costs.c0, costs.c1, 3,
                                           params, rng, nullptr, false);
    benchmark::DoNotOptimize(result.top.data());
  }
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::set_tracing_enabled(false);
  util::telemetry::reset_metrics_for_test();
  util::telemetry::reset_tracing_for_test();
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- Parallel scaling: Arg is the pool worker count (0 = no pool). ----
// Run with several Args to measure speedup; results are bit-identical
// across worker counts by the determinism contract (docs/parallelism.md).

void BM_BuildBitCostsParallel(benchmark::State& state) {
  const unsigned width = 16;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto cache = g.values();
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::optional<util::ThreadPool> pool;
  if (workers > 0) pool.emplace(workers);
  util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  for (auto _ : state) {
    auto costs =
        core::build_bit_costs(g, cache, width - 1, core::LsbModel::kPredictive,
                              dist, core::CostMetric::kMed, pool_ptr);
    benchmark::DoNotOptimize(costs.c0.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_BuildBitCostsParallel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_FindBestSettingsParallel(benchmark::State& state) {
  // The acceptance benchmark of the parallel BS-SA rework: a 16-input
  // search whose cross-chain sweep batches feed the pool.
  const unsigned width = 16;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::optional<util::ThreadPool> pool;
  if (workers > 0) pool.emplace(workers);
  util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  const auto costs =
      core::build_bit_costs(g, g.values(), width - 1,
                            core::LsbModel::kPredictive, dist,
                            core::CostMetric::kMed, pool_ptr);
  core::SaParams params;
  params.partition_limit = 40;
  params.init_patterns = 6;
  params.chains = 10;
  for (auto _ : state) {
    util::Rng rng(4);
    auto result = core::find_best_settings(width, 9, costs.c0, costs.c1, 3,
                                           params, rng, pool_ptr, false);
    benchmark::DoNotOptimize(result.top.data());
  }
  state.SetItemsProcessed(state.iterations() * params.partition_limit);
}
BENCHMARK(BM_FindBestSettingsParallel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NonDisjointOptimize(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kCurrentApprox, dist);
  util::Rng rng(5);
  const auto p = core::Partition::random(width, 6, rng);
  for (auto _ : state) {
    auto result =
        core::optimize_nondisjoint(p, costs.c0, costs.c1, {8, 64}, rng);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_NonDisjointOptimize);

void BM_ApproxLutRead(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  core::BssaParams params;
  params.bound_size = 6;
  params.rounds = 2;
  params.sa.partition_limit = 20;
  params.sa.init_patterns = 6;
  params.seed = 6;
  const auto lut = core::run_bssa(g, dist, params).realize(width);
  core::InputWord x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.eval(x));
    x = (x + 97) & ((1u << width) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApproxLutRead);

void BM_HardwareSimulation(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  core::BssaParams params;
  params.bound_size = 6;
  params.rounds = 2;
  params.sa.partition_limit = 20;
  params.sa.init_patterns = 6;
  params.seed = 7;
  const auto lut = core::run_bssa(g, dist, params).realize(width);
  const auto tech = hw::Technology::nangate45();
  const hw::ApproxLutSystem system(hw::ArchKind::kDalta, lut, tech);
  const auto target = hw::make_target(system);
  util::Rng rng(8);
  for (auto _ : state) {
    auto report = hw::simulate_random(target, 256, width, nullptr, tech, rng);
    benchmark::DoNotOptimize(report.total_energy);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_HardwareSimulation);

}  // namespace

BENCHMARK_MAIN();
