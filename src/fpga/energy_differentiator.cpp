#include "fpga/energy_differentiator.h"

#include <algorithm>

namespace rjf::fpga {

EnergyDifferentiator::EnergyDifferentiator() noexcept
    : EnergyDifferentiator(dsp::simd::active_isa()) {}

EnergyDifferentiator::EnergyDifferentiator(dsp::simd::Isa isa) noexcept
    : block_kernel_(dsp::simd::energy_block_kernel(isa)) {}

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

// rjf: realtime
void EnergyDifferentiator::block(std::span<const dsp::IQ16> rx,
                                 EnergyBlock& out) noexcept {
  if (rx.size() > kMetricBlock) rx = rx.first(kMetricBlock);
  const std::size_t n = rx.size();
  out.high.fill(0);
  out.low.fill(0);
  // The kernel runs on contiguous histories, oldest first: the rings
  // unrolled from pos_ (already in order after a block()), then the run's
  // own values.
  std::array<std::uint64_t, kEnergyWindow + kMetricBlock> x{};
  if (pos_ == 0) {
    std::copy_n(window_.begin(), kEnergyWindow, x.begin());
    std::copy_n(reference_.begin(), kEnergyRefDelay, out.sums.begin());
  } else {
    for (std::size_t k = 0; k < kEnergyWindow; ++k)
      x[k] = window_[(pos_ + k) & (kEnergyWindow - 1)];
    for (std::size_t k = 0; k < kEnergyRefDelay; ++k)
      out.sums[k] = reference_[(pos_ + k) & (kEnergyRefDelay - 1)];
  }
  const dsp::simd::EnergyComparators cmp{
      thresh_high_q88_.value(), thresh_low_q88_.value(), floor_.value()};
  const std::size_t armed_from =
      warmup_ < kEnergyWarmup ? kEnergyWarmup - warmup_ : 0;
  block_kernel_(cmp, rx, x.data(), out.sums.data(), armed_from,
                out.high.data(), out.low.data());
  // Carry the newest values back as rings read from slot 0, which is where
  // step() continues.
  std::copy_n(x.begin() + n, kEnergyWindow, window_.begin());
  std::copy_n(out.sums.begin() + n, kEnergyRefDelay, reference_.begin());
  pos_ = 0;
  sum_ = out.sums[kEnergyRefDelay - 1 + n];
  warmup_ = std::min(kEnergyWarmup, warmup_ + n);
}

void EnergyDifferentiator::reset() noexcept {
  window_.fill(0);
  reference_.fill(0);
  sum_ = 0;
  pos_ = 0;
  warmup_ = 0;
}

}  // namespace rjf::fpga
