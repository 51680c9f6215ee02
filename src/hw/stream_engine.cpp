#include "hw/stream_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <thread>

#include "util/bits.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace dalut::hw {

namespace {

/// Copies a unit table into the arena at `off` (shape already validated).
void copy_table(util::aligned_vector<std::uint8_t>& arena, std::size_t off,
                const std::vector<std::uint8_t>& table) {
  for (std::size_t i = 0; i < table.size(); ++i) arena[off + i] = table[i];
}

}  // namespace

// ---- Compilation --------------------------------------------------------

StreamTarget::StreamTarget(StreamTarget&& other) noexcept
    : num_inputs_(other.num_inputs_),
      num_outputs_(other.num_outputs_),
      static_read_energy_(other.static_read_energy_),
      units_(std::move(other.units_)),
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

  std::size_t arena_size = 0;
  target.units_.reserve(system.units().size());
  for (const auto& unit : system.units()) {
    const core::DecomposedBit& bit = unit.decomposition();
    const core::Partition& p = bit.partition();
    CompiledUnit compiled;
    compiled.mode = bit.mode();
    compiled.bound_mask = p.bound_mask();
    compiled.free_mask = p.free_mask();
    compiled.shared_bit = bit.shared_bit();
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
    copy_table(image.bytes_, compiled.bound_off, bit.bound_table());
    copy_table(image.bytes_, compiled.free0_off, bit.free_table0());
    copy_table(image.bytes_, compiled.free1_off, bit.free_table1());
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

TableImage& StreamTarget::begin_update() {
  const std::uint64_t published = published_.load(std::memory_order_acquire);
  // The inactive image may still be under a batch that acquired the
  // previous epoch; wait until the consumer retires it.
  while (applied_.load(std::memory_order_acquire) < published) {
    std::this_thread::yield();
  }
  TableImage& next = images_[(published + 1) & 1];
  const TableImage& active = images_[published & 1];
  next.bytes_ = active.bytes_;
  next.words_ = active.words_;
  return next;
}

std::uint64_t StreamTarget::commit_update() noexcept {
  return published_.fetch_add(1, std::memory_order_release) + 1;
}

std::uint64_t StreamTarget::reconfigure(const ApproxLutSystem& system) {
  check_shape(system);
  TableImage& next = begin_update();
  fill_image(next, system);
  return commit_update();
}

std::uint64_t StreamTarget::reconfigure(const MonolithicLut& lut) {
  check_shape(lut);
  TableImage& next = begin_update();
  fill_image(next, lut);
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

  // Structure of arrays: units outer, samples inner, so one unit's tables
  // and masks stay register/cache resident across the whole batch and each
  // unit contributes its output bit with a branch-free OR. The table reads
  // are data-dependent byte gathers, which is why the loops stay scalar
  // (util/simd.hpp has no gather granule); util::extract_bits compiles to
  // a short dependency chain per set mask bit.
  for (std::size_t i = 0; i < count; ++i) y[i] = 0;
  const std::uint8_t* bytes = image.bytes_.data();
  for (std::size_t k = 0; k < units_.size(); ++k) {
    const CompiledUnit& unit = units_[k];
    const std::uint8_t* bound = bytes + unit.bound_off;
    const core::OutputWord bit_at_k = core::OutputWord{1} << k;
    switch (unit.mode) {
      case core::DecompMode::kBto: {
        const std::uint32_t bound_mask = unit.bound_mask;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t col = util::extract_bits(x[i], bound_mask);
          y[i] |= bound[col] != 0 ? bit_at_k : 0;
        }
        break;
      }
      case core::DecompMode::kNormal: {
        const std::uint8_t* free0 = bytes + unit.free0_off;
        const std::uint32_t bound_mask = unit.bound_mask;
        const std::uint32_t free_mask = unit.free_mask;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t col = util::extract_bits(x[i], bound_mask);
          const std::uint64_t row = util::extract_bits(x[i], free_mask);
          const std::uint64_t phi = bound[col] != 0 ? 1u : 0u;
          y[i] |= free0[(row << 1) | phi] != 0 ? bit_at_k : 0;
        }
        break;
      }
      case core::DecompMode::kNonDisjoint: {
        const std::uint8_t* free0 = bytes + unit.free0_off;
        const std::uint8_t* free1 = bytes + unit.free1_off;
        const std::uint32_t bound_mask = unit.bound_mask;
        const std::uint32_t free_mask = unit.free_mask;
        const unsigned shared_bit = unit.shared_bit;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t col = util::extract_bits(x[i], bound_mask);
          const std::uint64_t row = util::extract_bits(x[i], free_mask);
          const std::uint64_t phi = bound[col] != 0 ? 1u : 0u;
          const std::uint8_t* table =
              ((x[i] >> shared_bit) & 1u) != 0 ? free1 : free0;
          y[i] |= table[(row << 1) | phi] != 0 ? bit_at_k : 0;
        }
        break;
      }
    }
  }
}

// ---- Batched accounting -------------------------------------------------

void accumulate_batch(BatchAccumulator& acc, const core::InputWord* x,
                      const core::OutputWord* y, std::size_t count,
                      const core::MultiOutputFunction* reference,
                      const Technology& tech, double static_read_energy,
                      core::OutputWord bus_mask) {
  // Mirror of the simulate() loop body, per sample and in sequence order:
  // the floating-point accumulation order is part of the bit-identity
  // contract, so nothing here may reassociate or batch the energy sums.
  SimulationReport& report = acc.report;
  for (std::size_t i = 0; i < count; ++i) {
    ++report.reads;
    report.total_energy += static_read_energy;
    if (!acc.first) {
      const unsigned toggles =
          std::popcount((acc.previous ^ y[i]) & bus_mask);
      report.output_toggles += toggles;
      report.total_energy += toggles * tech.wire_energy;
    }
    if (reference != nullptr && reference->value(x[i]) != y[i]) {
      ++report.mismatches;
    }
    acc.previous = y[i];
    acc.first = false;
  }
}

SimulationReport finish(BatchAccumulator& acc) noexcept {
  if (acc.report.reads > 0) {
    acc.report.avg_read_energy =
        acc.report.total_energy / static_cast<double>(acc.report.reads);
  }
  return acc.report;
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
