// Candidate-evaluation engine for the decomposition searches.
//
// Every candidate partition the BS-SA / DALTA searches touch needs the same
// sequence: scatter the per-input cost arrays into a 2D cost matrix, then run
// an OptForPart variant on it. With the searches themselves parallelized
// (PR 1), that per-candidate kernel dominates runtime. EvalWorkspace is the
// allocation-free, cache-aware implementation of that kernel that all
// production paths (SA chains, beam extension, the ND round, DALTA, and the
// multi-shared generalization) route through:
//
//  * Interleaved layout. InterleavedCostMatrix stores {cost0, cost1} pairs
//    adjacently. Every consumer reads both costs of a cell (or one of the
//    two, data-dependently), so pairing them puts each cell on one cache
//    line instead of two. The per-epoch cost arrays are likewise mirrored
//    into an interleaved source copy once per thread, halving the random
//    cache-line traffic of the 2^n scattered gather.
//
//  * Thread-local scratch. Matrices, deposit tables, row sums,
//    participating-row lists, and restart state all live in per-thread
//    buffers that are reused across candidates, so steady-state evaluation
//    performs no heap allocations (only the small output pattern/type
//    vectors of a result are freshly allocated).
//
//  * Restart-blocked OptForPart. All Z random restarts advance in lock-step
//    sweeps over the matrix, and both sweeps run in register tiles: the
//    types step keeps the match sums of 4 rows x up to two SIMD vectors of
//    restarts in registers across the column loop, and the pattern step
//    sums one restart's participating rows into 16-column tiles of
//    {if_zero, if_one} pairs (the BTO variant is that pass over every row).
//    Each (row, restart) and (column, restart) sum is still one accumulator
//    added in the reference order, so every restart's result is
//    bit-identical to the reference implementation in opt_for_part.cpp.
//
//  * No gather memo. The searches see each (cost epoch, partition) pair
//    about once -- the SA visited-set dedup skips repeats and every
//    refinement round rebuilds the cost arrays under a fresh epoch -- so a
//    cache of gathered matrices almost never hits (docs/performance.md).
//    Every full_matrix() call gathers into thread-local scratch.
//
//  * Conditioned slicing. The conditioned matrices of the non-disjoint and
//    multi-shared modes are column slices of the full matrix, so they are
//    sliced from it (sequential reads) instead of re-scattering the 2^n cost
//    arrays once per shared assignment.
//
// CostMatrix::build + opt_for_part remain as the reference implementation;
// tests assert the engine reproduces them bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/bit_cost.hpp"
#include "core/opt_for_part.hpp"
#include "core/partition.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dalut::core {

/// Lightweight view of one output bit's cost arrays. `epoch` identifies the
/// arrays' contents for the per-thread interleaved source mirror; 0 (the
/// default for raw spans) means "unknown provenance" and makes the gather
/// read the split arrays directly.
struct CostView {
  std::span<const double> c0;
  std::span<const double> c1;
  std::uint64_t epoch = 0;

  CostView() = default;
  CostView(std::span<const double> cost0, std::span<const double> cost1,
           std::uint64_t epoch_id = 0)
      : c0(cost0), c1(cost1), epoch(epoch_id) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  CostView(const BitCostArrays& costs)
      : c0(costs.c0), c1(costs.c1), epoch(costs.epoch) {}
};

/// Cost matrix with the two per-cell costs stored adjacently:
/// cells[2 * (r * cols + c)] = cost0, cells[2 * (r * cols + c) + 1] = cost1.
/// Cell storage is 64-byte aligned (the SIMD kernels' alignment contract,
/// docs/performance.md).
struct InterleavedCostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  util::aligned_vector<double> cells;

  double at0(std::size_t r, std::size_t c) const noexcept {
    return cells[2 * (r * cols + c)];
  }
  double at1(std::size_t r, std::size_t c) const noexcept {
    return cells[2 * (r * cols + c) + 1];
  }
};

/// Former name of the full_matrix() result type, kept as an alias because
/// the benchmark sources under perfbench/ still spell it.
using MatrixRef = const InterleavedCostMatrix&;

class EvalWorkspace {
 public:
  /// The calling thread's workspace (created on first use, reused after).
  static EvalWorkspace& local();

  /// Full cost matrix of `partition` under `costs`, gathered into
  /// thread-local scratch. The reference is valid until the next
  /// full_matrix() call on this thread.
  const InterleavedCostMatrix& full_matrix(const Partition& partition,
                                           const CostView& costs);

  /// Conditioned matrix (the |C| >= 1 generalization of Sec. IV-B1) sliced
  /// from an already-built full matrix of `partition`. `shared_mask` selects
  /// the shared bound inputs (input-space mask, nonempty subset of the bound
  /// set) and `shared_values` their packed assignment. The returned
  /// reference is valid until the next conditioned() call on this thread.
  const InterleavedCostMatrix& conditioned(const InterleavedCostMatrix& full,
                                           const Partition& partition,
                                           std::uint32_t shared_mask,
                                           std::uint32_t shared_values);

  /// Alternating (V, T) optimization; bit-identical to the reference
  /// opt_for_part() for the same matrix contents and RNG state.
  VtResult opt_for_part(const InterleavedCostMatrix& matrix,
                        const OptForPartParams& params, util::Rng& rng);

  /// BTO variant; bit-identical to the reference opt_for_part_bto().
  VtResult opt_for_part_bto(const InterleavedCostMatrix& matrix);

  /// Error of an explicit (V, T); bit-identical to the reference
  /// evaluate_vt() for the same matrix contents.
  double evaluate_vt(const InterleavedCostMatrix& matrix,
                     std::span<const std::uint8_t> pattern,
                     std::span<const RowType> types) const;

  /// Caps the restarts advanced per block (0 = size automatically from the
  /// scratch budget). Exists so tests can force multi-block execution on
  /// small matrices.
  void set_opt_restart_block_for_test(unsigned block) {
    opt_block_override_ = block;
  }

 private:
  EvalWorkspace() = default;

  /// Deposit table for `mask`, cached per thread.
  const std::vector<InputWord>& deposit_table(std::uint32_t mask);
  /// Interleaved copy of the epoch's cost arrays (nullptr when epoch == 0).
  const double* interleaved_source(const CostView& costs);

  unsigned restart_block(std::size_t rows, std::size_t cols,
                         unsigned restarts) const;
  /// One types step for the active restarts of the current block. Writes
  /// each restart's total into `totals`.
  void types_sweep(const InterleavedCostMatrix& matrix, unsigned block,
                   util::aligned_vector<double>& totals);
  /// One pattern step for the active restarts of the current block.
  void pattern_sweep(const InterleavedCostMatrix& matrix, unsigned block);

  // Deposit-table cache (node-based map: references stay valid on insert).
  std::unordered_map<std::uint32_t, std::vector<InputWord>> deposits_;

  // Interleaved per-epoch source copies (LRU over a few slots, so nested
  // parallel sections that interleave work from different epochs on one
  // thread do not thrash a single buffer).
  struct SourceSlot {
    std::uint64_t epoch = 0;
    std::uint64_t last_use = 0;
    util::aligned_vector<double> data;
  };
  std::array<SourceSlot, 4> sources_;
  std::uint64_t source_tick_ = 0;

  InterleavedCostMatrix full_scratch_;
  InterleavedCostMatrix cond_scratch_;
  std::vector<std::uint32_t> cond_cols_;  ///< reduced col -> full col

  // Restart-blocked OptForPart scratch. Per-restart arrays are laid out
  // restart-minor ([item * block + restart]) so the types tiles load a
  // vector of restarts contiguously.
  // patterns_ holds one full-width select mask per entry (0 or ~0), so the
  // types sweep can blend {cost0, cost1} bitwise instead of branching per
  // cell. The pattern sweep is restart-major instead (see pattern_sweep).
  util::aligned_vector<double> sums0_, sums1_;     // rows
  util::aligned_vector<std::uint64_t> patterns_;   // cols * block
  std::vector<std::uint8_t> types_;                // rows * block
  util::aligned_vector<double> match_;             // tile rows * block
  util::aligned_vector<double> error_, after_;     // block
  std::vector<std::uint32_t> active_, next_active_;
  std::vector<std::uint32_t> members_;  // rows summed by column_sums
  unsigned opt_block_override_ = 0;
};

}  // namespace dalut::core
