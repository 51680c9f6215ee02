// DFF-based LUT RAM model: 2^addr_bits words of `width` bits.
//
// Matches the paper's implementation choice ("LUTs are implemented by RAMs
// consisting of D flip-flops"): a DFF array holds the contents; a per-bit
// binary mux tree selects the addressed word. While a table is enabled its
// flops burn clock power every cycle; a clock-gated table costs only
// leakage - the mechanism behind the BTO mode's saving.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/tech.hpp"

namespace dalut::hw {

class LutRam {
 public:
  /// Throws std::invalid_argument unless 1 <= addr_bits <= 24 and
  /// 1 <= width <= 32 (enforced in release builds too, not assert-only).
  LutRam(unsigned addr_bits, unsigned width, const Technology& tech);

  /// Loads contents (size 2^addr_bits, each value < 2^width).
  void program(std::vector<std::uint32_t> contents);

  /// Address lines above addr_bits do not exist in the hardware: the read
  /// masks them off, so a malformed address wraps instead of indexing out
  /// of bounds.
  std::uint32_t read(std::uint32_t addr) const noexcept {
    return contents_[addr & addr_mask_];
  }

  /// All 2^addr_bits words, in address order.
  const std::vector<std::uint32_t>& contents() const noexcept {
    return contents_;
  }

  /// Mask selecting the addr_bits address lines (entries() - 1).
  std::uint32_t addr_mask() const noexcept { return addr_mask_; }

  unsigned addr_bits() const noexcept { return addr_bits_; }
  unsigned width() const noexcept { return width_; }
  std::size_t entries() const noexcept { return std::size_t{1} << addr_bits_; }
  std::size_t storage_bits() const noexcept { return entries() * width_; }

  double area() const;
  /// Per-read dynamic energy when enabled; 0 when clock-gated off.
  double read_energy(bool enabled) const;
  double delay() const;    ///< clk-to-q + mux-tree traversal
  double leakage() const;  ///< burns regardless of gating

  /// Cost summary in the given enable state.
  CostSummary cost(bool enabled) const;

 private:
  unsigned addr_bits_;
  unsigned width_;
  std::uint32_t addr_mask_;
  Technology tech_;
  std::vector<std::uint32_t> contents_;
};

}  // namespace dalut::hw
