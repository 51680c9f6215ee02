#include "hw/lut_ram.hpp"

#include <stdexcept>
#include <string>

namespace dalut::hw {

LutRam::LutRam(unsigned addr_bits, unsigned width, const Technology& tech)
    : addr_bits_(addr_bits), width_(width), addr_mask_(0), tech_(tech) {
  if (addr_bits < 1 || addr_bits > kMaxAddrBits) {
    throw std::invalid_argument("LutRam addr_bits must be in [1, " +
                                std::to_string(kMaxAddrBits) + "], got " +
                                std::to_string(addr_bits));
  }
  if (width < 1 || width > 32) {
    throw std::invalid_argument("LutRam width must be in [1, 32], got " +
                                std::to_string(width));
  }
  addr_mask_ = static_cast<std::uint32_t>(entries() - 1);
  contents_.assign(entries(), 0);
}

void LutRam::program(std::vector<std::uint32_t> contents) {
  if (contents.size() != entries()) {
    throw std::invalid_argument("LUT contents must have 2^addr_bits entries");
  }
  const std::uint32_t mask =
      width_ >= 32 ? ~0u : ((std::uint32_t{1} << width_) - 1);
  for (const auto value : contents) {
    if ((value & ~mask) != 0) {
      throw std::invalid_argument("LUT entry exceeds word width");
    }
  }
  contents_ = std::move(contents);
}

double LutRam::area() const {
  const double flops = static_cast<double>(storage_bits()) * tech_.dff_area;
  const double mux_tree = static_cast<double>(width_) *
                          static_cast<double>(entries() - 1) *
                          tech_.mux2_area;
  const double addr_buffers = static_cast<double>(addr_bits_) *
                              tech_.buf_area;
  const double decoder = static_cast<double>(entries()) *
                         tech_.decoder_area_per_entry;
  return flops + mux_tree + addr_buffers + decoder;
}

double LutRam::read_energy(bool enabled) const {
  if (!enabled) return 0.0;
  // Every enabled flop sees the clock each cycle; the mux tree toggles with
  // the configured activity on an address change; address buffers drive the
  // tree's select fan-out.
  const double clocking =
      static_cast<double>(storage_bits()) * tech_.dff_clk_energy;
  const double mux_tree = static_cast<double>(width_) *
                          static_cast<double>(entries() - 1) *
                          tech_.mux_tree_activity * tech_.mux2_sw_energy;
  const double addr_buffers =
      static_cast<double>(addr_bits_) * tech_.buf_energy;
  return clocking + mux_tree + addr_buffers;
}

double LutRam::delay() const {
  return tech_.dff_clk_to_q +
         static_cast<double>(addr_bits_) * tech_.mux2_delay;
}

double LutRam::leakage() const {
  const double flops = static_cast<double>(storage_bits()) *
                       tech_.dff_leakage;
  const double mux_tree = static_cast<double>(width_) *
                          static_cast<double>(entries() - 1) *
                          tech_.mux2_leakage;
  const double decoder = static_cast<double>(entries()) *
                         tech_.decoder_leakage_per_entry;
  return flops + mux_tree + decoder;
}

CostSummary LutRam::cost(bool enabled) const {
  return CostSummary{area(), read_energy(enabled), delay(), leakage()};
}

}  // namespace dalut::hw
