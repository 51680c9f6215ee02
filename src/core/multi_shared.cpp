#include "core/multi_shared.hpp"

#include <cassert>
#include <stdexcept>

#include "util/bits.hpp"

namespace dalut::core {

namespace {

std::vector<std::uint8_t> free_table_from_types(
    const std::vector<RowType>& types) {
  std::vector<std::uint8_t> table(types.size() * 2);
  for (std::size_t row = 0; row < types.size(); ++row) {
    std::uint8_t at_phi0 = 0;
    std::uint8_t at_phi1 = 0;
    switch (types[row]) {
      case RowType::kAllZero:
        break;
      case RowType::kAllOne:
        at_phi0 = at_phi1 = 1;
        break;
      case RowType::kPattern:
        at_phi1 = 1;
        break;
      case RowType::kComplement:
        at_phi0 = 1;
        break;
    }
    table[(row << 1) | 0] = at_phi0;
    table[(row << 1) | 1] = at_phi1;
  }
  return table;
}

/// Mask (within the packed bound-column index space) of the shared bits'
/// rank positions.
std::uint32_t shared_rank_mask(const Partition& partition,
                               std::span<const unsigned> shared) {
  std::uint32_t mask = 0;
  for (const unsigned bit : shared) {
    const unsigned rank = util::popcount(
        partition.bound_mask() & ((std::uint32_t{1} << bit) - 1));
    mask |= std::uint32_t{1} << rank;
  }
  return mask;
}

}  // namespace

MultiSharedSetting optimize_for_shared_set(const Partition& partition,
                                           std::span<const unsigned> shared,
                                           const CostView& costs,
                                           const OptForPartParams& params,
                                           util::Rng& rng) {
  for (const unsigned bit : shared) {
    if (!partition.in_bound_set(bit)) {
      throw std::invalid_argument("shared bits must lie in the bound set");
    }
  }
  if (shared.size() >= partition.bound_size()) {
    throw std::invalid_argument("shared set must leave bound inputs over");
  }

  MultiSharedSetting setting;
  setting.error = 0.0;
  setting.partition = partition;
  setting.shared_bits.assign(shared.begin(), shared.end());

  const std::size_t assignments = std::size_t{1} << shared.size();
  setting.patterns.resize(assignments);
  setting.types.resize(assignments);

  std::uint32_t shared_mask = 0;
  for (const unsigned bit : shared) shared_mask |= std::uint32_t{1} << bit;

  auto& workspace = EvalWorkspace::local();
  const auto& full = workspace.full_matrix(partition, costs);
  for (std::size_t j = 0; j < assignments; ++j) {
    auto vt = shared.empty()
                  ? workspace.opt_for_part(full, params, rng)
                  : workspace.opt_for_part(
                        workspace.conditioned(
                            full, partition, shared_mask,
                            static_cast<std::uint32_t>(j)),
                        params, rng);
    setting.error += vt.error;
    setting.patterns[j] = std::move(vt.pattern);
    setting.types[j] = std::move(vt.types);
  }
  return setting;
}

MultiSharedSetting optimize_multi_shared(const Partition& partition,
                                         unsigned shared_count,
                                         const CostView& costs,
                                         const OptForPartParams& params,
                                         util::Rng& rng,
                                         util::RunControl* control) {
  assert(shared_count < partition.bound_size());
  const auto bound = partition.bound_inputs();

  MultiSharedSetting best;
  std::vector<unsigned> combo(shared_count);

  // Enumerate size-`shared_count` combinations of the bound inputs.
  std::vector<unsigned> index(shared_count);
  for (unsigned i = 0; i < shared_count; ++i) index[i] = i;
  for (;;) {
    if (control != nullptr && control->stop_requested()) break;
    for (unsigned i = 0; i < shared_count; ++i) combo[i] = bound[index[i]];
    auto trial =
        optimize_for_shared_set(partition, combo, costs, params, rng);
    if (trial.error < best.error) best = std::move(trial);

    if (shared_count == 0) break;
    // Next combination (lexicographic).
    int pos = static_cast<int>(shared_count) - 1;
    while (pos >= 0 &&
           index[pos] == bound.size() - shared_count + pos) {
      --pos;
    }
    if (pos < 0) break;
    ++index[pos];
    for (unsigned i = pos + 1; i < shared_count; ++i) {
      index[i] = index[i - 1] + 1;
    }
  }
  return best;
}

MultiSharedBit MultiSharedBit::realize(const MultiSharedSetting& setting) {
  if (!setting.valid()) {
    throw std::invalid_argument("cannot realize an invalid setting");
  }
  MultiSharedBit bit;
  bit.partition_ = setting.partition;
  bit.shared_bits_ = setting.shared_bits;
  bit.shared_input_mask_ = 0;
  for (const unsigned b : setting.shared_bits) {
    bit.shared_input_mask_ |= std::uint32_t{1} << b;
  }

  const std::size_t cols = setting.partition.num_cols();
  const std::uint32_t rank_mask =
      shared_rank_mask(setting.partition, setting.shared_bits);
  const std::uint32_t reduced_mask =
      static_cast<std::uint32_t>(cols - 1) & ~rank_mask;

  // Combined bound table: phi(B) selects the conditional pattern matching
  // the shared bits inside the column index.
  bit.bound_table_.resize(cols);
  for (std::uint32_t c = 0; c < cols; ++c) {
    const auto j = static_cast<std::size_t>(util::extract_bits(c, rank_mask));
    const auto reduced =
        static_cast<std::size_t>(util::extract_bits(c, reduced_mask));
    bit.bound_table_[c] = setting.patterns[j][reduced];
  }

  bit.free_tables_.reserve(setting.types.size());
  for (const auto& types : setting.types) {
    bit.free_tables_.push_back(free_table_from_types(types));
  }
  return bit;
}

bool MultiSharedBit::eval(InputWord x) const noexcept {
  const std::uint32_t col = partition_.col_of(x);
  const bool phi = bound_table_[col] != 0;
  const std::uint32_t row = partition_.row_of(x);
  const auto j = static_cast<std::size_t>(
      util::extract_bits(x, shared_input_mask_));
  const auto& table = free_tables_[j];
  return table[(row << 1) | (phi ? 1u : 0u)] != 0;
}

std::size_t MultiSharedBit::stored_entries() const noexcept {
  std::size_t total = bound_table_.size();
  for (const auto& table : free_tables_) total += table.size();
  return total;
}

}  // namespace dalut::core
