#include "fpga/energy_differentiator.h"

namespace rjf::fpga {

void EnergyDifferentiator::load_from_registers(const RegisterFile& regs) noexcept {
  thresh_high_q88_ = hw::UInt<32>(regs.read(Reg::kEnergyThreshHigh));
  thresh_low_q88_ = hw::UInt<32>(regs.read(Reg::kEnergyThreshLow));
  floor_ = hw::UInt<32>(regs.read(Reg::kEnergyFloor));
}

void EnergyDifferentiator::set_thresholds(std::uint32_t high_q88,
                                          std::uint32_t low_q88,
                                          std::uint32_t floor) noexcept {
  thresh_high_q88_ = hw::UInt<32>(high_q88);
  thresh_low_q88_ = hw::UInt<32>(low_q88);
  floor_ = hw::UInt<32>(floor);
}

void EnergyDifferentiator::reset() noexcept {
  window_.fill(0);
  reference_.fill(0);
  sum_ = 0;
  pos_ = 0;
  warmup_ = 0;
}

}  // namespace rjf::fpga
