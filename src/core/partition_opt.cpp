#include "core/partition_opt.hpp"

#include <limits>

namespace dalut::core {

Setting optimize_normal(const Partition& partition, const CostView& costs,
                        const OptForPartParams& params, util::Rng& rng) {
  auto& workspace = EvalWorkspace::local();
  const auto& matrix = workspace.full_matrix(partition, costs);
  auto vt = workspace.opt_for_part(matrix, params, rng);

  Setting setting;
  setting.error = vt.error;
  setting.partition = partition;
  setting.mode = DecompMode::kNormal;
  setting.pattern = std::move(vt.pattern);
  setting.types = std::move(vt.types);
  return setting;
}

Setting optimize_bto(const Partition& partition, const CostView& costs) {
  auto& workspace = EvalWorkspace::local();
  const auto& matrix = workspace.full_matrix(partition, costs);
  auto vt = workspace.opt_for_part_bto(matrix);

  Setting setting;
  setting.error = vt.error;
  setting.partition = partition;
  setting.mode = DecompMode::kBto;
  setting.pattern = std::move(vt.pattern);
  setting.types = std::move(vt.types);
  return setting;
}

Setting optimize_nondisjoint(const Partition& partition,
                             const CostView& costs,
                             const OptForPartParams& params, util::Rng& rng) {
  auto& workspace = EvalWorkspace::local();
  // One full gather; every conditional sub-matrix below is a column slice
  // of it. RNG consumption order (x_s = 0 then x_s = 1, bound inputs
  // ascending) matches the per-pair builds this replaces.
  const auto& full = workspace.full_matrix(partition, costs);

  Setting best;
  best.error = std::numeric_limits<double>::infinity();

  for (const unsigned shared : partition.bound_inputs()) {
    // The cost arrays are already weighted by the joint probabilities, so
    // summing the two conditional sub-problems' errors gives the total MED
    // contribution directly (the conditional normalization of Eq. (2)
    // rescales each sub-problem by a positive constant, which does not
    // change its argmin).
    const std::uint32_t shared_mask = std::uint32_t{1} << shared;
    auto vt0 = workspace.opt_for_part(
        workspace.conditioned(full, partition, shared_mask, 0), params, rng);
    auto vt1 = workspace.opt_for_part(
        workspace.conditioned(full, partition, shared_mask, 1), params, rng);
    const double error = vt0.error + vt1.error;
    if (error < best.error) {
      best.error = error;
      best.partition = partition;
      best.mode = DecompMode::kNonDisjoint;
      best.shared_bit = shared;
      best.pattern0 = std::move(vt0.pattern);
      best.types0 = std::move(vt0.types);
      best.pattern1 = std::move(vt1.pattern);
      best.types1 = std::move(vt1.types);
    }
  }
  return best;
}

}  // namespace dalut::core
