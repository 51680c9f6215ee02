// Streaming inference engine: batched LUT serving with runtime
// reconfiguration (docs/streaming.md).
//
// The cycle-accurate simulator (hw/simulator) verifies one read at a time
// through a std::function hop. This layer is its throughput backend: a
// StreamTarget *compiles* a programmed ApproxLutSystem / MonolithicLut into
// a flat word image, and every batch is served by one devirtualized word
// kernel, y = words[(x >> addr_shift) & mask] << out_shift — no indirect
// call, no per-unit work at read time. A monolithic target's image is its
// RAM contents; an approximate system's is its 2^n-word truth table, which
// ApproxLutSystem::read defines as a pure function of x. The modeled
// hardware is still the decomposed architecture: accounting (reads, output
// toggles, mismatches, energy) is simulate()'s own, integer counters fed
// through hw::accumulate_batch and priced with the system's per-read
// energy, so a StreamEngine report equals simulate()'s on the same sequence
// under operator==, however the sequence is batched: a drop-in faster
// backend, not a fork.
//
// Runtime reconfiguration follows the dynamic-reconfiguration approximate-
// multiplier scheme (PAPERS.md): LUT contents are double-buffered in two
// TableImage generations selected by an epoch counter. The writer
// (reconfigure) fills the inactive image and publishes it with one atomic
// release increment; the consumer acquires the epoch once per batch, so
// in-flight batches always finish on the table they started with — no torn
// reads — and the writer can measure swap latency as publish -> first batch
// retired on the new epoch. An approximate system's swap re-flattens only
// the units whose tables differ from the ones the inactive image was last
// flattened from.
//
// Producers feed the engine through lock-free SPSC rings
// (util/spsc_ring.hpp), one per producer. The engine drains rings in a
// deterministic round-robin schedule (exactly one batch per open ring per
// cycle), so the merged sample order — and therefore the report — is a pure
// function of the shard contents, independent of producer timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/multi_output_function.hpp"
#include "hw/architectures.hpp"
#include "hw/simulator.hpp"
#include "util/simd.hpp"
#include "util/spsc_ring.hpp"

namespace dalut::hw {

/// One generation of LUT contents in compiled form: the word image reads
/// index (the 2^n-word truth table of an approximate system, the packed RAM
/// contents of a monolithic LUT) and, for approximate systems, the byte
/// arena of unit bound/free tables that image was flattened from. Opaque —
/// layout and interpretation belong to the StreamTarget that built it.
class TableImage {
 private:
  friend class StreamTarget;
  util::aligned_vector<std::uint8_t> bytes_;   ///< approx-unit tables
  util::aligned_vector<std::uint32_t> words_;  ///< served words
};

/// A compiled, devirtualized simulation target with double-buffered,
/// epoch-swapped contents.
///
/// Threading contract: at most one writer thread (reconfigure) and at most
/// one consumer thread (acquire / mark_applied, i.e. one StreamEngine::run
/// or stream_simulate at a time). The structural shape — unit count,
/// partitions, modes, word widths — is frozen at compile(); reconfiguration
/// swaps *contents* only, exactly like re-programming the DFF arrays of the
/// physical LUTs.
class StreamTarget {
 public:
  /// Compiles the system's units (index tables, modes, table offsets),
  /// snapshots its contents and flattens them into both images' 2^n words.
  /// Throws std::invalid_argument above LutRam::kMaxAddrBits inputs, the
  /// bound of a monolithic target's table.
  static StreamTarget compile(const ApproxLutSystem& system);
  static StreamTarget compile(const MonolithicLut& lut, unsigned num_outputs);

  /// Movable only before writer/consumer threads attach (the epoch atomics
  /// are transferred non-atomically).
  StreamTarget(StreamTarget&& other) noexcept;
  StreamTarget& operator=(StreamTarget&&) = delete;
  StreamTarget(const StreamTarget&) = delete;
  StreamTarget& operator=(const StreamTarget&) = delete;

  unsigned num_inputs() const noexcept { return num_inputs_; }
  unsigned num_outputs() const noexcept { return num_outputs_; }
  double static_read_energy() const noexcept { return static_read_energy_; }

  /// Evaluates `count` samples with `image`'s contents: y[i] = read(x[i]),
  /// bit-identical to the scalar read path of the source target.
  void eval_batch(const TableImage& image, const core::InputWord* x,
                  core::OutputWord* y, std::size_t count) const noexcept;

  // ---- Epoch protocol ---------------------------------------------------

  /// Epoch of the most recently committed contents.
  std::uint64_t published_epoch() const noexcept {
    return published_.load(std::memory_order_acquire);
  }
  /// Epoch of the newest contents the consumer has finished a batch on.
  std::uint64_t applied_epoch() const noexcept {
    return applied_.load(std::memory_order_acquire);
  }

  /// Writer: shape-checked content swaps. The source must match the
  /// compiled structure exactly (same units, partitions, modes / same
  /// geometry and shifts); throws std::invalid_argument otherwise. Blocks
  /// until the consumer has retired the previous epoch (applied_epoch() >=
  /// published_epoch()), so it never scribbles over an image a batch is
  /// still reading; with no consumer attached, call
  /// mark_applied(published_epoch()) first. Then fills the inactive image
  /// and publishes it; in-flight batches finish on the old image. Returns
  /// the new epoch.
  ///
  /// The system overload compares each unit's tables with the ones the
  /// inactive image was last flattened from and re-flattens only the units
  /// that differ (one output bit lane of the 2^n words each); an unchanged
  /// unit costs one table comparison. The LUT overload copies the table.
  std::uint64_t reconfigure(const ApproxLutSystem& system);
  std::uint64_t reconfigure(const MonolithicLut& lut);

  /// Units re-flattened by reconfigure() over this target's lifetime (also
  /// counted in stream.reconfig.units_reflattened). Writer thread only.
  std::uint64_t units_reflattened() const noexcept {
    return units_reflattened_;
  }

  /// Consumer: acquires the current contents for one batch. The returned
  /// image stays valid until mark_applied() confirms an epoch >= the one
  /// written to `epoch`.
  const TableImage& acquire(std::uint64_t& epoch) const noexcept {
    epoch = published_.load(std::memory_order_acquire);
    return images_[epoch & 1];
  }
  /// Consumer: records that a batch evaluated on `epoch` has fully retired
  /// (its results are accounted). Monotone.
  void mark_applied(std::uint64_t epoch) noexcept {
    if (epoch > applied_.load(std::memory_order_relaxed)) {
      applied_.store(epoch, std::memory_order_release);
    }
  }

 private:
  StreamTarget() = default;

  /// Per-output-bit compiled form of a DecomposedBit (approx targets).
  struct CompiledUnit {
    core::DecompMode mode = core::DecompMode::kNormal;
    std::uint32_t bound_mask = 0;  ///< partition bound set (col packing)
    unsigned shared_bit = 0;       ///< ND x_s input index
    std::size_t index_off = 0;     ///< offset into index_
    std::size_t bound_off = 0;     ///< offsets into TableImage::bytes_
    std::size_t free0_off = 0;
    std::size_t free1_off = 0;
    std::size_t bound_size = 0;    ///< table byte counts (shape check)
    std::size_t free_size = 0;
  };

  /// Waits until the consumer retired the published epoch and returns the
  /// inactive image.
  TableImage& inactive_image();
  /// Publishes the inactive image; returns the new epoch.
  std::uint64_t commit_update() noexcept;
  /// Copies unit k's tables into `image`'s arena unless they are already
  /// there; returns whether anything changed.
  bool store_unit(TableImage& image, std::size_t k,
                  const core::DecomposedBit& bit) const;
  /// Re-flatten engine: rewrites output bit k of every word of `image`
  /// from unit k's tables in its arena.
  void flatten_unit(TableImage& image, std::size_t k) const noexcept;
  void check_shape(const ApproxLutSystem& system) const;
  void check_shape(const MonolithicLut& lut) const;

  unsigned num_inputs_ = 0;
  unsigned num_outputs_ = 0;
  double static_read_energy_ = 0.0;
  // The word kernel's read transform (0, 2^n - 1, 0 for approx targets).
  unsigned addr_shift_ = 0;
  std::uint32_t addr_mask_ = 0;
  unsigned out_shift_ = 0;

  // Approx form: one CompiledUnit per output bit, tables in bytes_.
  std::vector<CompiledUnit> units_;
  // Byte-split index tables, index_chunks_ blocks of 256 entries per unit:
  // entry [c][b] holds col | (row << 1) << 32 for input byte c == b, with
  // col / row the extract_bits of that byte under the bound / free mask.
  // PEXT is linear over disjoint bit chunks, so OR-ing one entry per input
  // byte yields the read's column (low half) and free-table row offset
  // (high half). Structure, not contents: reconfiguration never touches it.
  std::vector<std::uint64_t> index_;
  unsigned index_chunks_ = 0;
  std::uint64_t units_reflattened_ = 0;
  // Monolithic geometry, for the shape check.
  bool monolithic_ = false;
  unsigned mono_width_ = 0;

  TableImage images_[2];  ///< double buffer; active = published_ & 1
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> applied_{0};
};

// ---- Engine -------------------------------------------------------------

struct StreamConfig {
  std::size_t batch_size = 1024;        ///< samples per kernel invocation
  std::size_t ring_capacity = 1 << 14;  ///< per-producer ring slots
};

/// Engine-level report: the simulator accounting plus throughput numbers.
struct StreamReport {
  SimulationReport sim;
  std::size_t batches = 0;
  std::uint64_t reconfigs_observed = 0;  ///< epoch advances seen mid-stream
  std::uint64_t wait_spins = 0;          ///< consumer spins on empty rings
  double elapsed_seconds = 0.0;
  double reads_per_sec = 0.0;
};

/// Drop-in batched replacement for simulate(): chunks `sequence` into
/// batches, evaluates through the compiled kernels, and returns a report
/// bit-identical to simulate(make_target(...), sequence, ...). Acts as the
/// target's consumer (acquires/retires epochs per batch).
SimulationReport stream_simulate(StreamTarget& target,
                                 std::span<const core::InputWord> sequence,
                                 const core::MultiOutputFunction* reference,
                                 const Technology& tech,
                                 std::size_t batch_size = 1024);

/// Multi-producer streaming front end: `num_producers` SPSC rings feed one
/// consuming engine thread (the caller of run()).
///
/// Producer contract: producer i pushes its shard into ring(i) and calls
/// close() when done; a producer that stops pushing without closing stalls
/// the engine. The engine drains rings in deterministic round-robin: one
/// batch_size batch per open ring per cycle (waiting for a slow producer
/// rather than skipping it), the sub-batch remainder once the ring closes.
/// The merged order — hence the report — depends only on the shard
/// contents, not on thread timing.
class StreamEngine {
 public:
  StreamEngine(StreamTarget& target, const Technology& tech,
               std::size_t num_producers, StreamConfig config = {});

  std::size_t num_producers() const noexcept { return rings_.size(); }
  util::SpscRing<core::InputWord>& ring(std::size_t producer) {
    return *rings_[producer];
  }

  /// Consumes until every ring is closed and drained. Records stream.*
  /// telemetry counters (visible on /metrics when a tool enables the
  /// exporter). Call from exactly one thread; reentrant after return.
  StreamReport run(const core::MultiOutputFunction* reference = nullptr);

 private:
  StreamTarget& target_;
  Technology tech_;
  StreamConfig config_;
  std::vector<std::unique_ptr<util::SpscRing<core::InputWord>>> rings_;
};

}  // namespace dalut::hw
