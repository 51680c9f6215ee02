#include "hw/stream_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "util/bits.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace dalut::hw {

namespace {

/// Input bits resolved by one block of 256 index entries.
constexpr unsigned kIndexChunkBits = 8;
constexpr std::size_t kIndexBlock = std::size_t{1} << kIndexChunkBits;

/// Samples per index pass of eval_batch (a stack buffer of entries).
constexpr std::size_t kIndexTile = 256;

/// entry[i] = one unit's column (low half) and doubled free-table row (high
/// half) for input x[i]: one index-table load per input byte, OR-combined.
/// Chunks outer, samples inner keeps each pass a plain load-OR loop.
void unit_entries(const std::uint64_t* index, unsigned chunks,
                  const core::InputWord* x, std::uint64_t* entry,
                  std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) entry[i] = 0;
  for (unsigned c = 0; c < chunks; ++c) {
    const std::uint64_t* block = index + c * kIndexBlock;
    const unsigned shift = c * kIndexChunkBits;
    for (std::size_t i = 0; i < count; ++i) {
      entry[i] |= block[(x[i] >> shift) & (kIndexBlock - 1)];
    }
  }
}

}  // namespace

// ---- Compilation --------------------------------------------------------

StreamTarget::StreamTarget(StreamTarget&& other) noexcept
    : num_inputs_(other.num_inputs_),
      num_outputs_(other.num_outputs_),
      static_read_energy_(other.static_read_energy_),
      units_(std::move(other.units_)),
      index_(std::move(other.index_)),
      index_chunks_(other.index_chunks_),
      monolithic_(other.monolithic_),
      mono_addr_bits_(other.mono_addr_bits_),
      mono_width_(other.mono_width_),
      mono_addr_mask_(other.mono_addr_mask_),
      mono_addr_shift_(other.mono_addr_shift_),
      mono_out_shift_(other.mono_out_shift_),
      images_{std::move(other.images_[0]), std::move(other.images_[1])},
      published_(other.published_.load(std::memory_order_relaxed)),
      applied_(other.applied_.load(std::memory_order_relaxed)) {}

StreamTarget StreamTarget::compile(const ApproxLutSystem& system) {
  StreamTarget target;
  target.num_inputs_ = system.num_inputs();
  target.num_outputs_ = system.num_outputs();
  target.static_read_energy_ = system.cost().read_energy;
  target.monolithic_ = false;

  const unsigned chunks =
      (target.num_inputs_ + kIndexChunkBits - 1) / kIndexChunkBits;
  target.index_chunks_ = chunks;
  target.index_.resize(system.units().size() * chunks * kIndexBlock);

  std::size_t arena_size = 0;
  target.units_.reserve(system.units().size());
  for (const auto& unit : system.units()) {
    const core::DecomposedBit& bit = unit.decomposition();
    const core::Partition& p = bit.partition();
    CompiledUnit compiled;
    compiled.mode = bit.mode();
    compiled.bound_mask = p.bound_mask();
    compiled.shared_bit = bit.shared_bit();
    compiled.index_off = target.units_.size() * chunks * kIndexBlock;
    // Built with extract_bits itself, so col / row equal the scalar
    // Partition::col_of / row_of by construction.
    for (unsigned c = 0; c < chunks; ++c) {
      for (std::size_t b = 0; b < kIndexBlock; ++b) {
        const std::uint64_t word = std::uint64_t{b} << (c * kIndexChunkBits);
        const std::uint64_t col = util::extract_bits(word, p.bound_mask());
        const std::uint64_t row = util::extract_bits(word, p.free_mask());
        target.index_[compiled.index_off + c * kIndexBlock + b] =
            col | ((row << 1) << 32);
      }
    }
    compiled.bound_size = bit.bound_table().size();
    compiled.free_size = bit.free_table0().size();
    compiled.bound_off = arena_size;
    arena_size += compiled.bound_size;
    compiled.free0_off = arena_size;
    arena_size += bit.free_table0().size();
    compiled.free1_off = arena_size;
    arena_size += bit.free_table1().size();
    target.units_.push_back(compiled);
  }

  for (TableImage& image : target.images_) {
    image.bytes_.assign(arena_size, 0);
  }
  target.fill_image(target.images_[0], system);
  return target;
}

StreamTarget StreamTarget::compile(const MonolithicLut& lut,
                                   unsigned num_outputs) {
  StreamTarget target;
  target.num_inputs_ = lut.ram().addr_bits() + lut.addr_shift();
  target.num_outputs_ = num_outputs;
  target.static_read_energy_ = lut.cost().read_energy;
  target.monolithic_ = true;
  target.mono_addr_bits_ = lut.ram().addr_bits();
  target.mono_width_ = lut.ram().width();
  target.mono_addr_mask_ = lut.ram().addr_mask();
  target.mono_addr_shift_ = lut.addr_shift();
  target.mono_out_shift_ = lut.out_shift();

  for (TableImage& image : target.images_) {
    image.words_.assign(lut.ram().entries(), 0);
  }
  target.fill_image(target.images_[0], lut);
  return target;
}

void StreamTarget::fill_image(TableImage& image,
                              const ApproxLutSystem& system) const {
  for (std::size_t k = 0; k < units_.size(); ++k) {
    const CompiledUnit& compiled = units_[k];
    const core::DecomposedBit& bit =
        system.units()[k].decomposition();
    const auto arena = image.bytes_.begin();
    std::copy(bit.bound_table().begin(), bit.bound_table().end(),
              arena + static_cast<std::ptrdiff_t>(compiled.bound_off));
    std::copy(bit.free_table0().begin(), bit.free_table0().end(),
              arena + static_cast<std::ptrdiff_t>(compiled.free0_off));
    std::copy(bit.free_table1().begin(), bit.free_table1().end(),
              arena + static_cast<std::ptrdiff_t>(compiled.free1_off));
  }
}

void StreamTarget::fill_image(TableImage& image,
                              const MonolithicLut& lut) const {
  const auto& contents = lut.ram().contents();
  std::copy(contents.begin(), contents.end(), image.words_.begin());
}

void StreamTarget::check_shape(const ApproxLutSystem& system) const {
  if (monolithic_ || system.num_inputs() != num_inputs_ ||
      system.num_outputs() != num_outputs_) {
    throw std::invalid_argument(
        "StreamTarget::reconfigure: system shape mismatch");
  }
  for (std::size_t k = 0; k < units_.size(); ++k) {
    const CompiledUnit& compiled = units_[k];
    const core::DecomposedBit& bit = system.units()[k].decomposition();
    if (bit.mode() != compiled.mode ||
        bit.partition().bound_mask() != compiled.bound_mask ||
        bit.shared_bit() != compiled.shared_bit ||
        bit.bound_table().size() != compiled.bound_size ||
        bit.free_table0().size() != compiled.free_size) {
      throw std::invalid_argument(
          "StreamTarget::reconfigure: unit " + std::to_string(k) +
          " structure differs (reconfiguration swaps contents only)");
    }
  }
}

void StreamTarget::check_shape(const MonolithicLut& lut) const {
  if (!monolithic_ || lut.ram().addr_bits() != mono_addr_bits_ ||
      lut.ram().width() != mono_width_ ||
      lut.addr_shift() != mono_addr_shift_ ||
      lut.out_shift() != mono_out_shift_) {
    throw std::invalid_argument(
        "StreamTarget::reconfigure: LUT geometry mismatch "
        "(reconfiguration swaps contents only)");
  }
}

// ---- Epoch protocol -----------------------------------------------------

TableImage& StreamTarget::inactive_image() {
  const std::uint64_t published = published_.load(std::memory_order_acquire);
  // The inactive image may still be under a batch that acquired the
  // previous epoch; wait until the consumer retires it.
  while (applied_.load(std::memory_order_acquire) < published) {
    std::this_thread::yield();
  }
  return images_[(published + 1) & 1];
}

TableImage& StreamTarget::begin_update() {
  TableImage& next = inactive_image();
  const TableImage& active =
      images_[published_.load(std::memory_order_relaxed) & 1];
  next.bytes_ = active.bytes_;
  next.words_ = active.words_;
  return next;
}

std::uint64_t StreamTarget::commit_update() noexcept {
  return published_.fetch_add(1, std::memory_order_release) + 1;
}

// Both fill_image overloads overwrite the whole image, so the swaps skip
// begin_update()'s copy of the active contents.
std::uint64_t StreamTarget::reconfigure(const ApproxLutSystem& system) {
  check_shape(system);
  fill_image(inactive_image(), system);
  return commit_update();
}

std::uint64_t StreamTarget::reconfigure(const MonolithicLut& lut) {
  check_shape(lut);
  fill_image(inactive_image(), lut);
  return commit_update();
}

// ---- Batch kernels ------------------------------------------------------

void StreamTarget::eval_batch(const TableImage& image,
                              const core::InputWord* x, core::OutputWord* y,
                              std::size_t count) const noexcept {
  if (monolithic_) {
    const std::uint32_t* words = image.words_.data();
    const unsigned addr_shift = mono_addr_shift_;
    const unsigned out_shift = mono_out_shift_;
    const std::uint32_t mask = mono_addr_mask_;
    for (std::size_t i = 0; i < count; ++i) {
      y[i] = static_cast<core::OutputWord>(words[(x[i] >> addr_shift) & mask]
                                           << out_shift);
    }
    return;
  }

  // Structure of arrays: per tile of samples, units outer and samples
  // inner, so one unit's index and content tables stay cache resident
  // across the tile. A unit first resolves every sample's column and row
  // with one index-table load per input byte (see index_), then reads its
  // data-dependent table bytes; those gathers are why the loops stay scalar
  // (util/simd.hpp has no gather granule). Every select is arithmetic, not
  // a branch: on random inputs a `? :` on a table bit mispredicts half the
  // time.
  const std::uint8_t* bytes = image.bytes_.data();
  std::uint64_t entry[kIndexTile];
  for (std::size_t base = 0; base < count; base += kIndexTile) {
    const std::size_t tile = std::min(kIndexTile, count - base);
    const core::InputWord* xt = x + base;
    core::OutputWord* yt = y + base;
    for (std::size_t i = 0; i < tile; ++i) yt[i] = 0;
    for (std::size_t k = 0; k < units_.size(); ++k) {
      const CompiledUnit& unit = units_[k];
      unit_entries(index_.data() + unit.index_off, index_chunks_, xt, entry,
                   tile);
      const std::uint8_t* bound = bytes + unit.bound_off;
      switch (unit.mode) {
        case core::DecompMode::kBto: {
          for (std::size_t i = 0; i < tile; ++i) {
            const std::uint32_t col = static_cast<std::uint32_t>(entry[i]);
            yt[i] |= core::OutputWord(bound[col] != 0) << k;
          }
          break;
        }
        case core::DecompMode::kNormal: {
          const std::uint8_t* free0 = bytes + unit.free0_off;
          for (std::size_t i = 0; i < tile; ++i) {
            const std::uint64_t phi =
                bound[static_cast<std::uint32_t>(entry[i])] != 0;
            yt[i] |= core::OutputWord(free0[(entry[i] >> 32) | phi] != 0)
                     << k;
          }
          break;
        }
        case core::DecompMode::kNonDisjoint: {
          const std::uint8_t* free0 = bytes + unit.free0_off;
          const std::uint8_t* free1 = bytes + unit.free1_off;
          const unsigned shared_bit = unit.shared_bit;
          for (std::size_t i = 0; i < tile; ++i) {
            const std::uint64_t phi =
                bound[static_cast<std::uint32_t>(entry[i])] != 0;
            const std::uint64_t slot = (entry[i] >> 32) | phi;
            // x_s picks free1 over free0 by masking, both bytes loaded.
            const unsigned xs = (xt[i] >> shared_bit) & 1u;
            const unsigned value =
                (free0[slot] & (xs - 1u)) | (free1[slot] & (0u - xs));
            yt[i] |= core::OutputWord(value != 0) << k;
          }
          break;
        }
      }
    }
  }
}

// ---- Single-stream drop-in ----------------------------------------------

SimulationReport stream_simulate(StreamTarget& target,
                                 std::span<const core::InputWord> sequence,
                                 const core::MultiOutputFunction* reference,
                                 const Technology& tech,
                                 std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  std::vector<core::OutputWord> y(batch_size);
  BatchAccumulator acc;
  const core::OutputWord bus_mask = output_bus_mask(target.num_outputs());
  std::size_t done = 0;
  while (done < sequence.size()) {
    const std::size_t take =
        std::min(batch_size, sequence.size() - done);
    std::uint64_t epoch = 0;
    const TableImage& image = target.acquire(epoch);
    target.eval_batch(image, sequence.data() + done, y.data(), take);
    accumulate_batch(acc, sequence.data() + done, y.data(), take, reference,
                     tech, target.static_read_energy(), bus_mask);
    target.mark_applied(epoch);
    done += take;
  }
  return finish(acc);
}

// ---- Multi-producer engine ----------------------------------------------

StreamEngine::StreamEngine(StreamTarget& target, const Technology& tech,
                           std::size_t num_producers, StreamConfig config)
    : target_(target), tech_(tech), config_(config) {
  if (num_producers == 0) {
    throw std::invalid_argument("StreamEngine needs at least one producer");
  }
  if (config_.batch_size == 0) config_.batch_size = 1;
  // A ring smaller than one batch would deadlock the deterministic drain
  // (consumer waits for a full batch the producer can never buffer).
  if (config_.ring_capacity < config_.batch_size) {
    config_.ring_capacity = config_.batch_size;
  }
  rings_.reserve(num_producers);
  for (std::size_t i = 0; i < num_producers; ++i) {
    rings_.push_back(std::make_unique<util::SpscRing<core::InputWord>>(
        config_.ring_capacity));
  }
}

StreamReport StreamEngine::run(const core::MultiOutputFunction* reference) {
  static const auto reads_counter =
      util::telemetry::Counter::get("stream.reads");
  static const auto batches_counter =
      util::telemetry::Counter::get("stream.batches");
  static const auto reconfig_counter =
      util::telemetry::Counter::get("stream.reconfig.applied");
  static const auto wait_counter =
      util::telemetry::Counter::get("stream.consumer.wait_spins");
  static const auto epoch_gauge =
      util::telemetry::Gauge::get("stream.epoch");

  const std::size_t batch = config_.batch_size;
  std::vector<core::InputWord> xs(batch);
  std::vector<core::OutputWord> ys(batch);
  BatchAccumulator acc;
  const core::OutputWord bus_mask = output_bus_mask(target_.num_outputs());

  StreamReport stream;
  std::vector<bool> done(rings_.size(), false);
  std::size_t open = rings_.size();
  std::uint64_t last_epoch = target_.published_epoch();

  util::WallTimer timer;
  while (open > 0) {
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      if (done[i]) continue;
      auto& ring = *rings_[i];
      // Deterministic drain: wait for a full batch or for the producer to
      // close, never skip ahead — the merged order must not depend on
      // producer timing.
      std::size_t avail = ring.size();
      while (avail < batch && !ring.closed()) {
        ++stream.wait_spins;
        // Idle: no batch in flight, so the newest published contents are
        // trivially safe to retire. Keeps a concurrent writer's
        // begin_update() live while producers are slow.
        target_.mark_applied(target_.published_epoch());
        std::this_thread::yield();
        avail = ring.size();
      }
      if (avail < batch) avail = ring.size();  // closed: final count
      const std::size_t take = std::min(batch, avail);
      if (take == 0) {
        // Closed and drained.
        done[i] = true;
        --open;
        continue;
      }
      const std::size_t got = ring.try_pop(xs.data(), take);
      std::uint64_t epoch = 0;
      const TableImage& image = target_.acquire(epoch);
      target_.eval_batch(image, xs.data(), ys.data(), got);
      accumulate_batch(acc, xs.data(), ys.data(), got, reference, tech_,
                       target_.static_read_energy(), bus_mask);
      target_.mark_applied(epoch);
      if (epoch != last_epoch) {
        stream.reconfigs_observed += epoch - last_epoch;
        reconfig_counter.add(epoch - last_epoch);
        epoch_gauge.set(static_cast<double>(epoch));
        last_epoch = epoch;
      }
      ++stream.batches;
      batches_counter.add(1);
      reads_counter.add(got);
    }
  }
  stream.elapsed_seconds = timer.seconds();
  // Stream finished: retire whatever is published so a writer blocked in
  // begin_update() is released.
  target_.mark_applied(target_.published_epoch());
  wait_counter.add(stream.wait_spins);

  stream.sim = finish(acc);
  stream.reads_per_sec =
      stream.elapsed_seconds > 0.0
          ? static_cast<double>(stream.sim.reads) / stream.elapsed_seconds
          : 0.0;
  return stream;
}

}  // namespace dalut::hw
