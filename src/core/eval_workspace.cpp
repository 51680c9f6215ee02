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
//
// Both OptForPart sweeps keep their running sums in registers for a whole
// tile. Every (row, restart) match sum and every (column, restart) pattern
// cost is still one accumulator that starts at 0.0 and adds in the
// reference order (columns ascending, rows ascending): tiling changes which
// sums are in flight together, never the arithmetic of any one of them.

/// Rows per types-sweep tile.
constexpr std::size_t kTileRows = 4;
/// Columns per pattern-sweep tile.
constexpr std::size_t kTileCols = 16;

/// Lane policies of match_tile: kLanes restarts per SIMD vector, or one
/// restart in a plain scalar (the forced-scalar path and block tails).
struct VecLane {
  static constexpr unsigned kWidth = simd::kLanes;
  using Acc = simd::VecD;
  using Mask = simd::VecU;
  static Acc zero() noexcept { return simd::dzero(); }
  static Mask load(const std::uint64_t* p) noexcept { return simd::uloadu(p); }
  static Mask broadcast(std::uint64_t v) noexcept {
    return simd::ubroadcast(v);
  }
  /// The pattern masks are full-width (0 or ~0), so selecting a cost is a
  /// bitwise blend: the added double is bit-for-bit the one the reference
  /// ternary picks, with no data-dependent branch.
  static Acc add_pick(Acc acc, Mask p, Mask b0, Mask b1) noexcept {
    return simd::dadd(
        acc, simd::as_double(simd::uor(simd::uand(p, b1),
                                       simd::uandnot(p, b0))));
  }
  static void store(double* p, Acc v) noexcept { simd::dstoreu(p, v); }
};

struct ScalarLane {
  static constexpr unsigned kWidth = 1;
  using Acc = double;
  using Mask = std::uint64_t;
  static Acc zero() noexcept { return 0.0; }
  static Mask load(const std::uint64_t* p) noexcept { return *p; }
  static Mask broadcast(std::uint64_t v) noexcept { return v; }
  static Acc add_pick(Acc acc, Mask p, Mask b0, Mask b1) noexcept {
    return acc + std::bit_cast<double>((b0 & ~p) | (b1 & p));
  }
  static void store(double* p, Acc v) noexcept { *p = v; }
};

/// Match sums of kTileRows rows against kVecs * L::kWidth consecutive
/// restarts: out[k * out_stride + j] = the sum over columns c ascending of
/// the cost of rows[k] that mask pat[c * pat_stride + j] selects. The
/// kTileRows * kVecs accumulators stay in registers across the column loop,
/// and each pattern vector is loaded once per column for all the rows.
template <typename L, unsigned kVecs>
inline void match_tile(const double* const* rows, std::size_t cols,
                       const std::uint64_t* pat, std::size_t pat_stride,
                       double* out, std::size_t out_stride) noexcept {
  typename L::Acc acc[kTileRows][kVecs];
  for (auto& row_acc : acc) {
    for (auto& a : row_acc) a = L::zero();
  }
  for (std::size_t c = 0; c < cols; ++c) {
    typename L::Mask p[kVecs];
    for (unsigned v = 0; v < kVecs; ++v) {
      p[v] = L::load(pat + c * pat_stride + v * L::kWidth);
    }
    for (std::size_t k = 0; k < kTileRows; ++k) {
      const auto b0 =
          L::broadcast(std::bit_cast<std::uint64_t>(rows[k][2 * c]));
      const auto b1 =
          L::broadcast(std::bit_cast<std::uint64_t>(rows[k][2 * c + 1]));
      for (unsigned v = 0; v < kVecs; ++v) {
        acc[k][v] = L::add_pick(acc[k][v], p[v], b0, b1);
      }
    }
  }
  for (std::size_t k = 0; k < kTileRows; ++k) {
    for (unsigned v = 0; v < kVecs; ++v) {
      L::store(out + k * out_stride + v * L::kWidth, acc[k][v]);
    }
  }
}

/// Points rows[k] at row r0 + k of `cells`. Slots past the last row alias
/// row r0, so a short final group runs the same tile and its extra sums
/// are discarded.
inline void tile_rows(const double* cells, std::size_t cols, std::size_t r0,
                      std::size_t count, const double** rows) noexcept {
  for (std::size_t k = 0; k < kTileRows; ++k) {
    rows[k] = cells + 2 * (r0 + (k < count ? k : 0)) * cols;
  }
}

/// Pair policies of column_sums: a D4 holds the interleaved
/// {if_zero, if_one} accumulators of two columns, a ScalarPairs::T those of
/// one.
struct VecPairs {
  static constexpr std::size_t kCols = 2;
  using T = simd::D4;
  static T load(const double* p) noexcept { return simd::loadu4(p); }
  static T add(T a, T b) noexcept { return simd::add4(a, b); }
  static T swap(T v) noexcept { return simd::swap_pairs4(v); }
  static void store(double* p, T v) noexcept { simd::storeu4(p, v); }
};

struct ScalarPairs {
  static constexpr std::size_t kCols = 1;
  struct T {
    double zero, one;
  };
  static T load(const double* p) noexcept { return {p[0], p[1]}; }
  static T add(T a, T b) noexcept { return {a.zero + b.zero, a.one + b.one}; }
  static T swap(T v) noexcept { return {v.one, v.zero}; }
  static void store(double* p, T v) noexcept {
    p[0] = v.zero;
    p[1] = v.one;
  }
};

/// column_sums over kGranules * P::kCols columns from c0, with the sums in
/// register accumulators.
template <typename P, std::size_t kGranules, typename Emit>
inline void column_tile(const double* cells, std::size_t cols, std::size_t c0,
                        const std::vector<std::uint32_t>& members,
                        Emit& emit) {
  constexpr std::size_t kWords = 2 * P::kCols;
  typename P::T acc[kGranules]{};
  for (const std::uint32_t m : members) {
    const double* cell = cells + 2 * ((m >> 1) * cols + c0);
    if (m & 1u) {
      for (std::size_t g = 0; g < kGranules; ++g) {
        acc[g] = P::add(acc[g], P::swap(P::load(cell + kWords * g)));
      }
    } else {
      for (std::size_t g = 0; g < kGranules; ++g) {
        acc[g] = P::add(acc[g], P::load(cell + kWords * g));
      }
    }
  }
  double sums[kWords * kGranules];
  for (std::size_t g = 0; g < kGranules; ++g) {
    P::store(sums + kWords * g, acc[g]);
  }
  for (std::size_t j = 0; j < P::kCols * kGranules; ++j) {
    emit(c0 + j, sums[2 * j], sums[2 * j + 1]);
  }
}

/// Calls emit(c, if_zero, if_one) for every column c ascending, where
/// if_zero / if_one are the costs of value 0 / 1 in column c summed over
/// the rows in `members` (ascending, entry = row << 1 | complement) in row
/// order. A kComplement row charges the costs with the roles reversed, so
/// it adds its pair swapped. Columns go in 16-column register tiles, then
/// narrower tails.
template <typename Emit>
void column_sums(const double* cells, std::size_t cols,
                 const std::vector<std::uint32_t>& members, Emit&& emit) {
  std::size_t c = 0;
  if (simd::enabled()) {
    for (; c + kTileCols <= cols; c += kTileCols) {
      column_tile<VecPairs, kTileCols / VecPairs::kCols>(cells, cols, c,
                                                         members, emit);
    }
    for (; c + VecPairs::kCols <= cols; c += VecPairs::kCols) {
      column_tile<VecPairs, 1>(cells, cols, c, members, emit);
    }
  } else {
    for (; c + kTileCols <= cols; c += kTileCols) {
      column_tile<ScalarPairs, kTileCols>(cells, cols, c, members, emit);
    }
  }
  for (; c < cols; ++c) {
    column_tile<ScalarPairs, 1>(cells, cols, c, members, emit);
  }
}

/// sums0[r] / sums1[r] = row r's cost0 / cost1 sum, columns ascending (the
/// kAllZero / kAllOne row costs). kTileRows rows run side by side so their
/// sequential sums overlap.
void row_sums(const InterleavedCostMatrix& matrix, double* sums0,
              double* sums1) noexcept {
  for (std::size_t r0 = 0; r0 < matrix.rows; r0 += kTileRows) {
    const std::size_t count = std::min(kTileRows, matrix.rows - r0);
    const double* rows[kTileRows];
    tile_rows(matrix.cells.data(), matrix.cols, r0, count, rows);
    ScalarPairs::T acc[kTileRows]{};
    for (std::size_t c = 0; c < matrix.cols; ++c) {
      for (std::size_t k = 0; k < kTileRows; ++k) {
        acc[k] = ScalarPairs::add(acc[k], ScalarPairs::load(rows[k] + 2 * c));
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      sums0[r0 + k] = acc[k].zero;
      sums1[r0 + k] = acc[k].one;
    }
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
  // Keep the per-block pattern/type arrays within ~1 MiB so they stay
  // cache-resident next to the matrix itself.
  const std::size_t per_restart = sizeof(std::uint64_t) * cols + rows + 64;
  const std::size_t budget = std::size_t{1} << 20;
  const auto block = static_cast<unsigned>(
      std::clamp<std::size_t>(budget / per_restart, 1, restarts));
  return block;
}

void EvalWorkspace::types_sweep(const InterleavedCostMatrix& matrix,
                                unsigned block,
                                util::aligned_vector<double>& totals) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const double* cells = matrix.cells.data();
  const std::uint64_t* pat = patterns_.data();
  // The direct tiles touch every restart in the block but vectorize; the
  // active-indexed tiles are scalar but proportional to the survivors.
  // Cross over when the active set has thinned to ~1/4 of the block, so
  // straggler restarts do not pay full-block sweeps. Either path adds
  // bit-identical values for the active restarts; inactive slots are never
  // read.
  const bool direct = 4 * active_.size() >= block;
  const bool vec = simd::enabled();
  constexpr unsigned kLanes = simd::kLanes;
  util::assert_aligned64(match_.data());
  util::assert_aligned64(patterns_.data());
  for (const std::uint32_t z : active_) totals[z] = 0.0;

  for (std::size_t r0 = 0; r0 < rows; r0 += kTileRows) {
    const std::size_t count = std::min(kTileRows, rows - r0);
    const double* tile[kTileRows];
    tile_rows(cells, cols, r0, count, tile);
    // match_[k * block + z] = match sum of row r0 + k under restart z.
    if (direct) {
      unsigned z = 0;
      if (vec) {
        for (; z + 2 * kLanes <= block; z += 2 * kLanes) {
          match_tile<VecLane, 2>(tile, cols, pat + z, block, &match_[z],
                                 block);
        }
        for (; z + kLanes <= block; z += kLanes) {
          match_tile<VecLane, 1>(tile, cols, pat + z, block, &match_[z],
                                 block);
        }
      }
      for (; z < block; ++z) {
        match_tile<ScalarLane, 1>(tile, cols, pat + z, block, &match_[z],
                                  block);
      }
    } else {
      for (const std::uint32_t z : active_) {
        match_tile<ScalarLane, 1>(tile, cols, pat + z, block, &match_[z],
                                  block);
      }
    }

    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t r = r0 + k;
      const double s0 = sums0_[r];
      const double s1 = sums1_[r];
      const double* match_row = match_.data() + k * block;
      std::uint8_t* row_types = types_.data() + r * block;
      for (const std::uint32_t z : active_) {
        const double match = match_row[z];
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
}

void EvalWorkspace::pattern_sweep(const InterleavedCostMatrix& matrix,
                                  unsigned block) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const double* cells = matrix.cells.data();

  // Unlike the types sweep, the pattern step is restart-major: a row only
  // contributes to the restarts whose current type for it is kPattern or
  // kComplement, and with realistic cost arrays that is sparse (most rows
  // settle on kAllZero/kAllOne for most restarts). Listing each restart's
  // participating rows first keeps the work strictly proportional to the
  // participating (row, restart) pairs; each column tile then walks that
  // list with its sums in registers. Patterns of inactive restarts are left
  // stale; they are never read.
  for (const std::uint32_t z : active_) {
    members_.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      const auto type = static_cast<RowType>(types_[r * block + z]);
      if (type == RowType::kPattern || type == RowType::kComplement) {
        members_.push_back(static_cast<std::uint32_t>(r << 1) |
                           (type == RowType::kComplement ? 1u : 0u));
      }
    }
    std::uint64_t* pat = patterns_.data() + z;
    column_sums(cells, cols, members_,
                [pat, block](std::size_t c, double zero, double one) {
                  pat[c * block] = one < zero ? ~std::uint64_t{0} : 0;
                });
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
  row_sums(matrix, sums0_.data(), sums1_.data());
  match_.resize(kTileRows * block);
  members_.reserve(rows);
  error_.resize(block);
  after_.resize(block);

  VtResult best;
  best.error = std::numeric_limits<double>::infinity();

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
    types_sweep(matrix, count, error_);

    // Both steps are exact coordinate minimizations, so each restart's
    // error is non-increasing; a restart leaves the active set at its first
    // sweep without improvement (same epsilon rule as the reference).
    for (unsigned iter = 0;
         iter < params.max_iterations && !active_.empty(); ++iter) {
      pattern_sweep(matrix, count);
      types_sweep(matrix, count, after_);
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
  // Every row is typed kPattern, so every row takes part in the column sums.
  members_.clear();
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    members_.push_back(static_cast<std::uint32_t>(r << 1));
  }

  VtResult result;
  result.types.assign(matrix.rows, RowType::kPattern);
  result.pattern.assign(matrix.cols, 0);
  result.error = 0.0;
  column_sums(matrix.cells.data(), matrix.cols, members_,
              [&result](std::size_t c, double zero, double one) {
                if (one < zero) {
                  result.pattern[c] = 1;
                  result.error += one;
                } else {
                  result.error += zero;
                }
              });
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
