#include "core/eval_workspace.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/bits.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace dalut::core {

namespace {

namespace simd = util::simd;

// ---- Blocked gather kernel ----------------------------------------------
//
// The scattered gather is a pure bit-permutation copy: the destination pair
// of input x is row pext(x, free) and column pext(x, bound). Instead of
// walking the destination and computing scattered source addresses, the
// kernel walks the source in aligned 64-byte blocks — the 4-pair subcube of
// the low two input bits — and scatters each block with at most four wide
// stores. The outer loops enumerate the high free bits (destination rows
// ascending) then the high bound bits (destination columns ascending) with
// incremental subset counters, so every store stream is sequential and no
// per-element pext is ever computed. Contents are byte-identical to the
// scalar reference loop (it is a permutation copy), which remains below for
// the forced-scalar path and degenerate shapes.

/// Advances a subset-enumeration counter k steps (k small).
inline std::uint64_t subset_advance(std::uint64_t x, std::uint64_t m,
                                    unsigned k) noexcept {
  while (k--) x = (x - m) & m;
  return x;
}

/// Yields the 64-byte source block of pairs {x, x+1, x+2, x+3} from the
/// interleaved per-epoch source copy.
struct InterleavedBlockLoader {
  const double* src;
  void operator()(std::uint64_t x, simd::D4& lo, simd::D4& hi) const noexcept {
    lo = simd::loadu4(src + 2 * x);
    hi = simd::loadu4(src + 2 * x + 4);
  }
  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(src + 2 * x);
  }
};

/// Same block, interleaved on the fly from the split c0/c1 arrays (raw
/// views and domains too large for a mirrored source copy).
struct SplitBlockLoader {
  const double* c0;
  const double* c1;
  void operator()(std::uint64_t x, simd::D4& lo, simd::D4& hi) const noexcept {
    simd::interleave4(simd::loadu4(c0 + x), simd::loadu4(c1 + x), lo, hi);
  }
  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(c0 + x);
    simd::prefetch(c1 + x);
  }
};

template <typename Loader>
void gather_blocked(double* cells, std::uint32_t bound,
                    std::uint32_t free_mask, std::size_t cols,
                    const Loader& load) noexcept {
  const std::uint32_t lb = bound & 3u;
  const std::uint64_t hb = bound & ~std::uint64_t{3};
  const std::uint64_t hf = free_mask & ~std::uint64_t{3};
  const std::size_t row_words = 2 * cols;
  // Software-prefetch distance in 64-byte source blocks; the destination
  // streams are sequential, so only the source side needs help.
  constexpr unsigned kAhead = 8;
  const unsigned row_shift = util::popcount(free_mask & 3u);

  std::uint64_t xf = 0;
  std::size_t row = 0;
  do {
    double* row_base = cells + (row << row_shift) * row_words;
    std::uint64_t xb = 0;
    std::uint64_t xb_pre = subset_advance(0, hb, kAhead);
    std::size_t col = 0;
    if (lb == 3) {
      // Both low bits bound: the block is one contiguous 4-column run.
      do {
        load.prefetch(xf | xb_pre);
        xb_pre = (xb_pre - hb) & hb;
        simd::D4 lo, hi;
        load(xf | xb, lo, hi);
        double* d = row_base + 8 * col;
        simd::storeu4(d, lo);
        simd::storeu4(d + 4, hi);
        ++col;
        xb = (xb - hb) & hb;
      } while (xb != 0);
    } else if (lb == 0) {
      // Both low bits free: one pair onto each of four row streams.
      do {
        load.prefetch(xf | xb_pre);
        xb_pre = (xb_pre - hb) & hb;
        simd::D4 lo, hi;
        load(xf | xb, lo, hi);
        double* d = row_base + 2 * col;
        simd::storeu2(d, simd::low2(lo));
        simd::storeu2(d + row_words, simd::high2(lo));
        simd::storeu2(d + 2 * row_words, simd::low2(hi));
        simd::storeu2(d + 3 * row_words, simd::high2(hi));
        ++col;
        xb = (xb - hb) & hb;
      } while (xb != 0);
    } else {
      // One low bit bound, one free: two 2-column runs on two row streams.
      // lb == 1 keeps the block halves as-is; lb == 2 regroups them (bit 0
      // toggles the row there, bit 1 the column).
      do {
        load.prefetch(xf | xb_pre);
        xb_pre = (xb_pre - hb) & hb;
        simd::D4 lo, hi;
        load(xf | xb, lo, hi);
        simd::D4 r0, r1;
        if (lb == 1) {
          r0 = lo;
          r1 = hi;
        } else {
          r0 = simd::join2(simd::low2(lo), simd::low2(hi));
          r1 = simd::join2(simd::high2(lo), simd::high2(hi));
        }
        double* d = row_base + 4 * col;
        simd::storeu4(d, r0);
        simd::storeu4(d + row_words, r1);
        ++col;
        xb = (xb - hb) & hb;
      } while (xb != 0);
    }
    ++row;
    xf = (xf - hf) & hf;
  } while (xf != 0);
}

// ---- Sweep kernels ------------------------------------------------------

/// match[z] += blend of {b0, b1} under pat[z] for z in [0, block): the
/// vector body is elementwise over independent accumulators, so it adds
/// bit-identical values in the same per-z order as the scalar tail.
inline void blend_add_row(double* match, const std::uint64_t* pat,
                          std::uint32_t block, std::uint64_t b0,
                          std::uint64_t b1, bool vec) noexcept {
  std::uint32_t z = 0;
  if (vec) {
    const simd::VecU vb0 = simd::ubroadcast(b0);
    const simd::VecU vb1 = simd::ubroadcast(b1);
    for (; z + simd::kLanes <= block; z += simd::kLanes) {
      const simd::VecU p = simd::uloadu(pat + z);
      const simd::VecD pick = simd::as_double(
          simd::uor(simd::uand(p, vb1), simd::uandnot(p, vb0)));
      simd::dstoreu(match + z, simd::dadd(simd::dloadu(match + z), pick));
    }
  }
  for (; z < block; ++z) {
    match[z] += std::bit_cast<double>((b0 & ~pat[z]) | (b1 & pat[z]));
  }
}

/// even[c] += row[2c], odd[c] += row[2c+1] for c in [0, cols): the pair
/// deinterleave feeds the same independent per-column accumulators as the
/// scalar tail, in the same per-column order across calls.
inline void pair_accumulate(double* even, double* odd, const double* row,
                            std::size_t cols, bool vec) noexcept {
  std::size_t c = 0;
  if (vec) {
    for (; c + 4 <= cols; c += 4) {
      simd::D4 evens, odds;
      simd::deinterleave4(simd::loadu4(row + 2 * c),
                          simd::loadu4(row + 2 * c + 4), evens, odds);
      simd::storeu4(even + c,
                    simd::add4(simd::loadu4(even + c), evens));
      simd::storeu4(odd + c, simd::add4(simd::loadu4(odd + c), odds));
    }
  }
  for (; c < cols; ++c) {
    even[c] += row[2 * c];
    odd[c] += row[2 * c + 1];
  }
}

// ---- Gather telemetry ---------------------------------------------------

/// Write-only registry handles for the gather and slice kernels.
struct GatherMetrics {
  util::telemetry::Counter gathers =
      util::telemetry::Counter::get("evalcache.gathers");
  util::telemetry::Counter slices =
      util::telemetry::Counter::get("evalcache.slices");
};

GatherMetrics& gather_metrics() {
  static GatherMetrics metrics;
  return metrics;
}

}  // namespace

// ---- EvalWorkspace ------------------------------------------------------

EvalWorkspace& EvalWorkspace::local() {
  thread_local EvalWorkspace workspace;
  return workspace;
}

const std::vector<InputWord>& EvalWorkspace::deposit_table(
    std::uint32_t mask) {
  const auto it = deposits_.find(mask);
  if (it != deposits_.end()) return it->second;
  if (deposits_.size() >= 256) deposits_.clear();
  auto& table = deposits_[mask];
  table.resize(std::size_t{1} << util::popcount(mask));
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<InputWord>(util::deposit_bits(i, mask));
  }
  return table;
}

const double* EvalWorkspace::interleaved_source(const CostView& costs) {
  const std::size_t domain = costs.c0.size();
  // Past ~2M inputs (2^21: a 32 MiB mirror) the copy no longer pays for
  // itself within one epoch and would double the resident footprint of
  // out-of-core tables; the gather then reads the split arrays directly.
  constexpr std::size_t kMaxInterleavedDomain = std::size_t{1} << 21;
  if (costs.epoch == 0 || domain > kMaxInterleavedDomain) return nullptr;
  ++source_tick_;
  SourceSlot* slot = &sources_.front();
  for (auto& candidate : sources_) {
    if (candidate.epoch == costs.epoch) {
      candidate.last_use = source_tick_;
      return candidate.data.data();
    }
    if (candidate.last_use < slot->last_use) slot = &candidate;
  }
  slot->epoch = costs.epoch;
  slot->last_use = source_tick_;
  slot->data.resize(2 * domain);
  double* out = slot->data.data();
  const double* c0 = costs.c0.data();
  const double* c1 = costs.c1.data();
  std::size_t x = 0;
  if (simd::enabled()) {
    for (; x + 4 <= domain; x += 4) {
      simd::D4 lo, hi;
      simd::interleave4(simd::loadu4(c0 + x), simd::loadu4(c1 + x), lo, hi);
      simd::storeu4(out + 2 * x, lo);
      simd::storeu4(out + 2 * x + 4, hi);
    }
  }
  for (; x < domain; ++x) {
    out[2 * x] = c0[x];
    out[2 * x + 1] = c1[x];
  }
  return out;
}

const InterleavedCostMatrix& EvalWorkspace::full_matrix(
    const Partition& partition, const CostView& costs) {
  assert(costs.c0.size() ==
         (std::size_t{1} << partition.num_inputs()));
  assert(costs.c1.size() == costs.c0.size());
  InterleavedCostMatrix& out = full_scratch_;
  out.rows = partition.num_rows();
  out.cols = partition.num_cols();
  out.cells.resize(2 * out.rows * out.cols);
  double* cells = out.cells.data();
  util::assert_aligned64(cells);

  const std::size_t domain = costs.c0.size();
  if (simd::enabled() && domain >= 4) {
    // Blocked permutation copy (see gather_blocked above). It walks the
    // source directly with incremental subset counters, so the deposit
    // tables are not needed — at n = 24 they alone would be 96 MiB.
    if (const double* src = interleaved_source(costs)) {
      gather_blocked(cells, partition.bound_mask(), partition.free_mask(),
                     out.cols, InterleavedBlockLoader{src});
    } else {
      gather_blocked(cells, partition.bound_mask(), partition.free_mask(),
                     out.cols,
                     SplitBlockLoader{costs.c0.data(), costs.c1.data()});
    }
    gather_metrics().gathers.add(1);
    return out;
  }

  // deposit_table() may flush its cache when inserting a new entry, which
  // would invalidate a reference obtained from an earlier call. Touch both
  // masks first so the references taken below cannot be separated by a
  // flush: after the two priming calls the bound-mask entry exists, so the
  // final bound-mask lookup is a hit (no mutation), and a free-mask miss
  // inserts into a near-empty table (unordered_map insertion never moves
  // existing entries).
  deposit_table(partition.free_mask());
  deposit_table(partition.bound_mask());
  const auto& row_x = deposit_table(partition.free_mask());
  const auto& col_x = deposit_table(partition.bound_mask());

  if (const double* src = interleaved_source(costs)) {
    // One interleaved source read per cell: both costs share a cache line.
    for (std::size_t r = 0; r < out.rows; ++r) {
      const InputWord rx = row_x[r];
      double* dst = cells + 2 * r * out.cols;
      for (std::size_t c = 0; c < out.cols; ++c) {
        const double* pair = src + 2 * (rx | col_x[c]);
        dst[2 * c] = pair[0];
        dst[2 * c + 1] = pair[1];
      }
    }
  } else {
    const double* c0 = costs.c0.data();
    const double* c1 = costs.c1.data();
    for (std::size_t r = 0; r < out.rows; ++r) {
      const InputWord rx = row_x[r];
      double* dst = cells + 2 * r * out.cols;
      for (std::size_t c = 0; c < out.cols; ++c) {
        const InputWord x = rx | col_x[c];
        dst[2 * c] = c0[x];
        dst[2 * c + 1] = c1[x];
      }
    }
  }
  gather_metrics().gathers.add(1);
  return out;
}

const InterleavedCostMatrix& EvalWorkspace::conditioned(
    const InterleavedCostMatrix& full, const Partition& partition,
    std::uint32_t shared_mask, std::uint32_t shared_values) {
  assert(shared_mask != 0 &&
         (shared_mask & ~partition.bound_mask()) == 0);
  assert(full.rows == partition.num_rows() &&
         full.cols == partition.num_cols());
  assert(&full != &cond_scratch_);

  // Rank positions of the shared input bits inside the packed column index.
  std::uint32_t rank_mask = 0;
  for (std::uint32_t bits = shared_mask; bits != 0; bits &= bits - 1) {
    const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
    const unsigned rank = util::popcount(
        partition.bound_mask() & ((std::uint32_t{1} << bit) - 1));
    rank_mask |= std::uint32_t{1} << rank;
  }
  const std::uint32_t reduced_mask =
      (static_cast<std::uint32_t>(full.cols) - 1) & ~rank_mask;
  const auto fixed_cols = static_cast<std::uint32_t>(
      util::deposit_bits(shared_values, rank_mask));

  cond_scratch_.rows = full.rows;
  cond_scratch_.cols = full.cols >> util::popcount(shared_mask);
  cond_scratch_.cells.resize(2 * cond_scratch_.rows * cond_scratch_.cols);

  cond_cols_.resize(cond_scratch_.cols);
  for (std::size_t c = 0; c < cond_cols_.size(); ++c) {
    cond_cols_[c] = static_cast<std::uint32_t>(
                        util::deposit_bits(c, reduced_mask)) |
                    fixed_cols;
  }

  const double* src = full.cells.data();
  double* dst = cond_scratch_.cells.data();
  for (std::size_t r = 0; r < cond_scratch_.rows; ++r) {
    const double* src_row = src + 2 * r * full.cols;
    for (std::size_t c = 0; c < cond_scratch_.cols; ++c, dst += 2) {
      const double* pair = src_row + 2 * cond_cols_[c];
      dst[0] = pair[0];
      dst[1] = pair[1];
    }
  }
  gather_metrics().slices.add(1);
  return cond_scratch_;
}

unsigned EvalWorkspace::restart_block(std::size_t rows, std::size_t cols,
                                      unsigned restarts) const {
  if (opt_block_override_ != 0) {
    return std::min(opt_block_override_, restarts);
  }
  // Keep the per-block column accumulators and pattern/type arrays within
  // ~1 MiB so they stay cache-resident next to the matrix itself.
  const std::size_t per_restart = 2 * sizeof(double) * cols +
                                  sizeof(std::uint64_t) * cols + rows + 64;
  const std::size_t budget = std::size_t{1} << 20;
  const auto block = static_cast<unsigned>(
      std::clamp<std::size_t>(budget / per_restart, 1, restarts));
  return block;
}

void EvalWorkspace::types_sweep(const InterleavedCostMatrix& matrix,
                                unsigned block, bool compute_sums,
                                util::aligned_vector<double>& totals) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const std::size_t active_count = active_.size();
  // The direct loop touches every restart in the block but vectorizes; the
  // active-indexed loop is scalar but proportional to the survivors. Cross
  // over when the active set has thinned to ~1/4 of the block, so straggler
  // restarts do not pay full-block sweeps. Either path adds bit-identical
  // values for the active restarts; inactive slots are never read.
  const bool direct = 4 * active_count >= block;
  const bool vec = simd::enabled();
  util::assert_aligned64(match_.data());
  util::assert_aligned64(patterns_.data());
  for (const std::uint32_t z : active_) totals[z] = 0.0;

  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = matrix.cells.data() + 2 * r * cols;
    if (direct) {
      std::fill_n(match_.data(), block, 0.0);
    } else {
      for (const std::uint32_t z : active_) match_[z] = 0.0;
    }

    // The pattern entries are full-width masks, so selecting a cost is a
    // bitwise blend: the added double is bit-for-bit the one the reference
    // ternary would pick, but the loop has no data-dependent branch and
    // vectorizes (explicitly via blend_add_row when SIMD is on; the blend
    // is elementwise per restart, so lane count cannot affect results).
    double s0 = 0.0;
    double s1 = 0.0;
    if (compute_sums) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double c0 = row[2 * c];
        const double c1 = row[2 * c + 1];
        s0 += c0;
        s1 += c1;
        blend_add_row(match_.data(), patterns_.data() + c * block, block,
                      std::bit_cast<std::uint64_t>(c0),
                      std::bit_cast<std::uint64_t>(c1), vec);
      }
      sums0_[r] = s0;
      sums1_[r] = s1;
    } else if (direct) {
      for (std::size_t c = 0; c < cols; ++c) {
        blend_add_row(match_.data(), patterns_.data() + c * block, block,
                      std::bit_cast<std::uint64_t>(row[2 * c]),
                      std::bit_cast<std::uint64_t>(row[2 * c + 1]), vec);
      }
      s0 = sums0_[r];
      s1 = sums1_[r];
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::uint64_t b0 = std::bit_cast<std::uint64_t>(row[2 * c]);
        const std::uint64_t b1 = std::bit_cast<std::uint64_t>(row[2 * c + 1]);
        const std::uint64_t* pat = patterns_.data() + c * block;
        for (const std::uint32_t z : active_) {
          match_[z] += std::bit_cast<double>((b0 & ~pat[z]) | (b1 & pat[z]));
        }
      }
      s0 = sums0_[r];
      s1 = sums1_[r];
    }

    std::uint8_t* row_types = types_.data() + r * block;
    for (const std::uint32_t z : active_) {
      const double match = match_[z];
      const double complement = s0 + s1 - match;
      auto best = RowType::kAllZero;
      double best_cost = s0;
      if (s1 < best_cost) {
        best = RowType::kAllOne;
        best_cost = s1;
      }
      if (match < best_cost) {
        best = RowType::kPattern;
        best_cost = match;
      }
      if (complement < best_cost) {
        best = RowType::kComplement;
        best_cost = complement;
      }
      row_types[z] = static_cast<std::uint8_t>(best);
      totals[z] += best_cost;
    }
  }
}

void EvalWorkspace::pattern_sweep(const InterleavedCostMatrix& matrix,
                                  unsigned block) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  if_zero_.resize(cols * block);
  if_one_.resize(cols * block);

  // Unlike the types sweep, the pattern accumulation is restart-major: a row
  // only contributes to the restarts whose current type for it is kPattern or
  // kComplement, and with realistic cost arrays that is sparse (most rows
  // settle on kAllZero/kAllOne for most restarts). Looping restarts outside
  // keeps the work strictly proportional to the participating (row, restart)
  // pairs, and gives each participating row a contiguous column loop that
  // vectorizes. The per-(c, z) accumulation order is rows ascending — the
  // reference order — and the {cost0, cost1} pairs still arrive one cache
  // line per cell. Accumulator rows of inactive restarts are left stale;
  // they are never read (the pattern update below is active-only).
  const double* cells = matrix.cells.data();
  const bool vec = simd::enabled();
  for (const std::uint32_t z : active_) {
    double* zero = if_zero_.data() + std::size_t{z} * cols;
    double* one = if_one_.data() + std::size_t{z} * cols;
    std::fill_n(zero, cols, 0.0);
    std::fill_n(one, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto type = static_cast<RowType>(types_[r * block + z]);
      if (type != RowType::kPattern && type != RowType::kComplement) continue;
      const double* row = cells + 2 * r * cols;
      // kComplement charges the costs with the roles reversed, which is the
      // same accumulation with the two destination arrays swapped.
      if (type == RowType::kPattern) {
        pair_accumulate(zero, one, row, cols, vec);
      } else {
        pair_accumulate(one, zero, row, cols, vec);
      }
    }
  }

  for (const std::uint32_t z : active_) {
    const double* zero = if_zero_.data() + std::size_t{z} * cols;
    const double* one = if_one_.data() + std::size_t{z} * cols;
    std::uint64_t* pat = patterns_.data();
    for (std::size_t c = 0; c < cols; ++c) {
      pat[c * block + z] = one[c] < zero[c] ? ~std::uint64_t{0} : 0;
    }
  }
}

VtResult EvalWorkspace::opt_for_part(const InterleavedCostMatrix& matrix,
                                     const OptForPartParams& params,
                                     util::Rng& rng) {
  assert(params.init_patterns >= 1);
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const unsigned restarts = std::max(1u, params.init_patterns);
  const unsigned block = restart_block(rows, cols, restarts);

  sums0_.resize(rows);
  sums1_.resize(rows);
  match_.resize(block);
  error_.resize(block);
  after_.resize(block);

  VtResult best;
  best.error = std::numeric_limits<double>::infinity();
  bool sums_ready = false;

  for (unsigned base = 0; base < restarts; base += block) {
    const unsigned count = std::min(block, restarts - base);
    patterns_.resize(cols * count);
    types_.resize(rows * count);

    // Initial pattern vectors, drawn restart-major so the RNG stream is
    // identical to the reference implementation's per-restart draws.
    for (unsigned z = 0; z < count; ++z) {
      for (std::size_t c = 0; c < cols; ++c) {
        patterns_[c * count + z] = rng.next_bool() ? ~std::uint64_t{0} : 0;
      }
    }

    active_.resize(count);
    for (unsigned z = 0; z < count; ++z) active_[z] = z;
    types_sweep(matrix, count, !sums_ready, error_);
    sums_ready = true;

    // Both steps are exact coordinate minimizations, so each restart's
    // error is non-increasing; a restart leaves the active set at its first
    // sweep without improvement (same epsilon rule as the reference).
    for (unsigned iter = 0;
         iter < params.max_iterations && !active_.empty(); ++iter) {
      pattern_sweep(matrix, count);
      types_sweep(matrix, count, false, after_);
      next_active_.clear();
      for (const std::uint32_t z : active_) {
        if (after_[z] >= error_[z] - 1e-15) {
          error_[z] = std::min(error_[z], after_[z]);
        } else {
          error_[z] = after_[z];
          next_active_.push_back(z);
        }
      }
      active_.swap(next_active_);
    }

    for (unsigned z = 0; z < count; ++z) {
      if (error_[z] < best.error) {
        best.error = error_[z];
        best.pattern.resize(cols);
        for (std::size_t c = 0; c < cols; ++c) {
          best.pattern[c] = patterns_[c * count + z] ? 1 : 0;
        }
        best.types.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          best.types[r] = static_cast<RowType>(types_[r * count + z]);
        }
      }
    }
  }
  return best;
}

VtResult EvalWorkspace::opt_for_part_bto(const InterleavedCostMatrix& matrix) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  if_zero_.assign(cols, 0.0);
  if_one_.assign(cols, 0.0);

  const double* cells = matrix.cells.data();
  const bool vec = simd::enabled();
  for (std::size_t r = 0; r < rows; ++r) {
    pair_accumulate(if_zero_.data(), if_one_.data(), cells + 2 * r * cols,
                    cols, vec);
  }

  VtResult result;
  result.types.assign(rows, RowType::kPattern);
  result.pattern.assign(cols, 0);
  result.error = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    if (if_one_[c] < if_zero_[c]) {
      result.pattern[c] = 1;
      result.error += if_one_[c];
    } else {
      result.error += if_zero_[c];
    }
  }
  return result;
}

double EvalWorkspace::evaluate_vt(const InterleavedCostMatrix& matrix,
                                  std::span<const std::uint8_t> pattern,
                                  std::span<const RowType> types) const {
  assert(pattern.size() == matrix.cols);
  assert(types.size() == matrix.rows);
  double total = 0.0;
  const double* cells = matrix.cells.data();
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    const double* row = cells + 2 * r * matrix.cols;
    for (std::size_t c = 0; c < matrix.cols; ++c) {
      bool value = false;
      switch (types[r]) {
        case RowType::kAllZero:
          value = false;
          break;
        case RowType::kAllOne:
          value = true;
          break;
        case RowType::kPattern:
          value = pattern[c] != 0;
          break;
        case RowType::kComplement:
          value = pattern[c] == 0;
          break;
      }
      total += value ? row[2 * c + 1] : row[2 * c];
    }
  }
  return total;
}

}  // namespace dalut::core
