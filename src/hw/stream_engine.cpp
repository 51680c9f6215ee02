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

}  // namespace

// ---- Compilation --------------------------------------------------------

StreamTarget::StreamTarget(StreamTarget&& other) noexcept
    : num_inputs_(other.num_inputs_),
      num_outputs_(other.num_outputs_),
      static_read_energy_(other.static_read_energy_),
      addr_shift_(other.addr_shift_),
      addr_mask_(other.addr_mask_),
      out_shift_(other.out_shift_),
      units_(std::move(other.units_)),
      index_(std::move(other.index_)),
      index_chunks_(other.index_chunks_),
      units_reflattened_(other.units_reflattened_),
      monolithic_(other.monolithic_),
      mono_width_(other.mono_width_),
      images_{std::move(other.images_[0]), std::move(other.images_[1])},
      published_(other.published_.load(std::memory_order_relaxed)),
      applied_(other.applied_.load(std::memory_order_relaxed)) {}

StreamTarget StreamTarget::compile(const ApproxLutSystem& system) {
  // The flat image holds 2^n words, the same bound and memory as a
  // monolithic LUT of n address bits.
  if (system.num_inputs() > LutRam::kMaxAddrBits) {
    throw std::invalid_argument(
        "StreamTarget::compile: " + std::to_string(system.num_inputs()) +
        " inputs exceed the flat image bound of " +
        std::to_string(LutRam::kMaxAddrBits));
  }
  StreamTarget target;
  target.num_inputs_ = system.num_inputs();
  target.num_outputs_ = system.num_outputs();
  target.static_read_energy_ = system.cost().read_energy;
  target.addr_mask_ = (std::uint32_t{1} << target.num_inputs_) - 1;
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

  // Both images start as the compiled system, so the first reconfigure()
  // diffs against real contents.
  TableImage& first = target.images_[0];
  first.bytes_.assign(arena_size, 0);
  first.words_.assign(std::size_t{1} << target.num_inputs_, 0);
  for (std::size_t k = 0; k < target.units_.size(); ++k) {
    target.store_unit(first, k, system.units()[k].decomposition());
    target.flatten_unit(first, k);
  }
  target.images_[1] = first;
  return target;
}

StreamTarget StreamTarget::compile(const MonolithicLut& lut,
                                   unsigned num_outputs) {
  StreamTarget target;
  target.num_inputs_ = lut.ram().addr_bits() + lut.addr_shift();
  target.num_outputs_ = num_outputs;
  target.static_read_energy_ = lut.cost().read_energy;
  target.addr_shift_ = lut.addr_shift();
  target.addr_mask_ = lut.ram().addr_mask();
  target.out_shift_ = lut.out_shift();
  target.monolithic_ = true;
  target.mono_width_ = lut.ram().width();

  const auto& contents = lut.ram().contents();
  for (TableImage& image : target.images_) {
    image.words_.assign(contents.begin(), contents.end());
  }
  return target;
}

bool StreamTarget::store_unit(TableImage& image, std::size_t k,
                              const core::DecomposedBit& bit) const {
  const CompiledUnit& unit = units_[k];
  bool changed = false;
  const auto store = [&](const std::vector<std::uint8_t>& table,
                         std::size_t offset) {
    const auto at = image.bytes_.begin() + static_cast<std::ptrdiff_t>(offset);
    if (!std::equal(table.begin(), table.end(), at)) {
      std::copy(table.begin(), table.end(), at);
      changed = true;
    }
  };
  store(bit.bound_table(), unit.bound_off);
  store(bit.free_table0(), unit.free0_off);
  store(bit.free_table1(), unit.free1_off);
  return changed;
}

void StreamTarget::flatten_unit(TableImage& image,
                                std::size_t k) const noexcept {
  // Ordered x: the 256 words of a block share every input byte but the
  // lowest, so a read's index entry is block 0's entry for the low byte
  // OR-ed with one per-block constant for the higher bytes. Every select
  // is arithmetic, not a branch: on random contents a `? :` on a table bit
  // mispredicts half the time.
  const CompiledUnit& unit = units_[k];
  const std::uint64_t* index = index_.data() + unit.index_off;
  const std::uint8_t* bound = image.bytes_.data() + unit.bound_off;
  const std::uint8_t* free0 = image.bytes_.data() + unit.free0_off;
  const std::uint8_t* free1 = image.bytes_.data() + unit.free1_off;
  const std::uint32_t keep = ~(std::uint32_t{1} << k);
  const std::size_t domain = image.words_.size();
  for (std::size_t base = 0; base < domain; base += kIndexBlock) {
    std::uint64_t high = 0;
    for (unsigned c = 1; c < index_chunks_; ++c) {
      high |= index[c * kIndexBlock +
                    ((base >> (c * kIndexChunkBits)) & (kIndexBlock - 1))];
    }
    const std::size_t block = std::min(kIndexBlock, domain - base);
    std::uint32_t* w = image.words_.data() + base;
    switch (unit.mode) {
      case core::DecompMode::kBto: {
        for (std::size_t i = 0; i < block; ++i) {
          const std::uint32_t col =
              static_cast<std::uint32_t>(index[i] | high);
          w[i] = (w[i] & keep) | (std::uint32_t(bound[col] != 0) << k);
        }
        break;
      }
      case core::DecompMode::kNormal: {
        for (std::size_t i = 0; i < block; ++i) {
          const std::uint64_t entry = index[i] | high;
          const std::uint64_t phi =
              bound[static_cast<std::uint32_t>(entry)] != 0;
          w[i] = (w[i] & keep) |
                 (std::uint32_t(free0[(entry >> 32) | phi] != 0) << k);
        }
        break;
      }
      case core::DecompMode::kNonDisjoint: {
        const unsigned shared_bit = unit.shared_bit;
        for (std::size_t i = 0; i < block; ++i) {
          const std::uint64_t entry = index[i] | high;
          const std::uint64_t phi =
              bound[static_cast<std::uint32_t>(entry)] != 0;
          const std::uint64_t slot = (entry >> 32) | phi;
          // x_s picks free1 over free0 by masking, both bytes loaded.
          const unsigned xs = ((base + i) >> shared_bit) & 1u;
          const unsigned value =
              (free0[slot] & (xs - 1u)) | (free1[slot] & (0u - xs));
          w[i] = (w[i] & keep) | (std::uint32_t(value != 0) << k);
        }
        break;
      }
    }
  }
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
  if (!monolithic_ || lut.ram().addr_mask() != addr_mask_ ||
      lut.ram().width() != mono_width_ || lut.addr_shift() != addr_shift_ ||
      lut.out_shift() != out_shift_) {
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

std::uint64_t StreamTarget::commit_update() noexcept {
  return published_.fetch_add(1, std::memory_order_release) + 1;
}

// The inactive image holds the contents published two epochs ago (or the
// compiled ones), and its words are the flattening of its own arena, so
// patching the units whose tables differ from that arena is exact.
std::uint64_t StreamTarget::reconfigure(const ApproxLutSystem& system) {
  static const auto reflattened_counter =
      util::telemetry::Counter::get("stream.reconfig.units_reflattened");
  check_shape(system);
  TableImage& next = inactive_image();
  std::uint64_t changed = 0;
  for (std::size_t k = 0; k < units_.size(); ++k) {
    if (store_unit(next, k, system.units()[k].decomposition())) {
      flatten_unit(next, k);
      ++changed;
    }
  }
  units_reflattened_ += changed;
  reflattened_counter.add(changed);
  return commit_update();
}

std::uint64_t StreamTarget::reconfigure(const MonolithicLut& lut) {
  check_shape(lut);
  const auto& contents = lut.ram().contents();
  std::copy(contents.begin(), contents.end(),
            inactive_image().words_.begin());
  return commit_update();
}

// ---- Batch kernel -------------------------------------------------------

void StreamTarget::eval_batch(const TableImage& image,
                              const core::InputWord* x, core::OutputWord* y,
                              std::size_t count) const noexcept {
  const std::uint32_t* words = image.words_.data();
  const unsigned addr_shift = addr_shift_;
  const unsigned out_shift = out_shift_;
  const std::uint32_t mask = addr_mask_;
  for (std::size_t i = 0; i < count; ++i) {
    y[i] = static_cast<core::OutputWord>(words[(x[i] >> addr_shift) & mask]
                                         << out_shift);
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
        // reconfigure() live while producers are slow.
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
  // reconfigure() is released.
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
