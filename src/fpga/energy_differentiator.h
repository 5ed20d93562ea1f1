// Differential energy detector (paper Fig. 4).
//
// Keeps a running 32-sample energy sum y[n] = y[n-1] + x[n] - x[n-N] with
// x[n] = I^2 + Q^2, and compares it against a 64-sample-delayed copy of
// itself scaled by host-programmable Q8.8 thresholds:
//     trigger_high :  y[n]        > thresh_high * y[n-64]
//     trigger_low  :  y[n-64]     > thresh_low  * y[n]
// Users can set any energy-change threshold between 3 dB and 30 dB, for
// both rising and falling energy (paper §2.3).
//
// Host fast path: block() clocks a run of samples through the batched
// kernel of the host's SIMD tier (dsp/simd/energy.h, picked once at
// construction).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "dsp/simd/energy.h"
#include "dsp/types.h"
#include "fpga/hw_int.h"
#include "fpga/register_file.h"

namespace rjf::fpga {

inline constexpr std::size_t kEnergyWindow = 32;  // moving-sum length N
inline constexpr std::size_t kEnergyRefDelay = 64;  // Z^-64 reference delay
// Both rings advance together and are indexed with one power-of-two mask,
// not `%`: the window ring's slot is the reference slot's low five bits.
static_assert(std::has_single_bit(kEnergyWindow));
static_assert(std::has_single_bit(kEnergyRefDelay));
static_assert(kEnergyRefDelay % kEnergyWindow == 0);
static_assert(kEnergyWindow == dsp::simd::kEnergyTaps &&
              kEnergyRefDelay == dsp::simd::kEnergyRefTaps);
// Samples clocked in before the comparators arm: the pipe must fill.
inline constexpr std::size_t kEnergyWarmup = kEnergyWindow + kEnergyRefDelay;

/// DspCore::run_block() clocks its detectors this many samples at a time
/// (CrossCorrelator::metrics and EnergyDifferentiator::block into stack
/// buffers); a kernel detail, not a setting.
inline constexpr std::size_t kMetricBlock = 256;

/// One flag per sample of a run of up to kMetricBlock: sample n is bit
/// n % 64 of word n / 64.
using BlockMask = std::array<std::uint64_t, kMetricBlock / 64>;

[[nodiscard]] constexpr bool mask_test(const BlockMask& m,
                                       std::size_t n) noexcept {
  return ((m[n / 64] >> (n % 64)) & 1u) != 0;
}

/// What EnergyDifferentiator::block() writes for a run of samples: step()'s
/// energy_sum, trigger_high and trigger_low for each. Mask bits past the
/// run are clear.
struct EnergyBlock {
  [[nodiscard]] std::uint64_t energy_sum(std::size_t n) const noexcept {
    return sums[kEnergyRefDelay + n];
  }
  /// The moving sums the kernel works on in place: the kEnergyRefDelay
  /// before the run (the comparators' references), then the run's own.
  std::array<std::uint64_t, kEnergyRefDelay + kMetricBlock> sums{};
  BlockMask high{};
  BlockMask low{};
};

class EnergyDifferentiator {
 public:
  EnergyDifferentiator() noexcept;
  /// block() runs the batched kernel of SIMD tier `isa` (the default is the
  /// host's active tier). Equivalence tests pin each tier this way.
  explicit EnergyDifferentiator(dsp::simd::Isa isa) noexcept;

  /// Latch thresholds from the register file.
  void load_from_registers(const RegisterFile& regs) noexcept;

  /// Direct configuration (tests/ablations). Thresholds are linear power
  /// ratios in Q8.8; floor is the minimum energy sum to arm the comparators.
  void set_thresholds(std::uint32_t high_q88, std::uint32_t low_q88,
                      std::uint32_t floor) noexcept;

  struct Output {
    std::uint64_t energy_sum = 0;
    bool trigger_high = false;
    bool trigger_low = false;
  };

  /// Clock in one baseband sample (25 MSPS strobe). Inline: it runs on
  /// every strobe of the block path.
  Output step(dsp::IQ16 sample) noexcept {
    // x[n] = I^2 + Q^2 on the 16-bit rails: Int<32> squares, Int<33> sum —
    // non-negative by construction, so it converts exactly to the unsigned
    // power rail (at most 2^31 for full-scale-negative I and Q).
    const auto i = hw::Int<16>(sample.i);
    const auto q = hw::Int<16>(sample.q);
    const hw::UInt<33> x = (i * i + q * q).to_unsigned();
    // y[n] = y[n-1] + x[n] - x[n-N]. The 32-sample moving sum tops out at
    // 2^36; both rails ride in UInt<37>. The running sum is modular, so the
    // subtraction may wrap transiently and still lands exactly.
    std::uint64_t& oldest = window_[pos_ & (kEnergyWindow - 1)];
    sum_ = sum_ + x.u64() - oldest;
    oldest = x.u64();
    const hw::UInt<37> y(sum_);
    std::uint64_t& delayed = reference_[pos_];
    const hw::UInt<37> y_ref(delayed);
    delayed = y.u64();
    pos_ = (pos_ + 1) & (kEnergyRefDelay - 1);

    Output out;
    out.energy_sum = y.u64();
    if (warmup_ < kEnergyWarmup) {
      ++warmup_;
      return out;  // pipeline not yet full; comparators disarmed
    }
    // Q8.8 scaling: compare 256*y against thresh*y_ref (and vice versa).
    // The full-width intermediates exceed 64 bits, so this is the 128-bit
    // comparator form — the RTL never materialises the product either.
    out.trigger_high =
        y > floor_ && hw::shifted_gt<8>(y, y_ref, thresh_high_q88_);
    out.trigger_low =
        y_ref > floor_ && hw::shifted_gt<8>(y_ref, y, thresh_low_q88_);
    return out;
  }

  /// Block entry point: clock in the first min(rx.size(), kMetricBlock)
  /// samples of `rx` and write what step() would return for each into
  /// `out`. Warm-up and both histories carry across calls, so this
  /// interleaves freely with step() and is bit-identical to a step() loop
  /// however a stream is split.
  void block(std::span<const dsp::IQ16> rx, EnergyBlock& out) noexcept;

  void reset() noexcept;

 private:
  std::array<std::uint64_t, kEnergyWindow> window_{};      // x[n-N+1..n]
  std::array<std::uint64_t, kEnergyRefDelay> reference_{};  // y[n-64..n-1]
  std::uint64_t sum_ = 0;
  std::size_t pos_ = 0;  // next slot of both rings, mod kEnergyRefDelay
  hw::UInt<32> thresh_high_q88_{0xFFFFFFFFu};  // Q8.8 power ratios
  hw::UInt<32> thresh_low_q88_{0xFFFFFFFFu};
  hw::UInt<32> floor_;
  std::size_t warmup_ = 0;  // samples seen; comparators arm after the pipe fills

  // block()'s batched kernel, picked at construction.
  dsp::simd::EnergyBlockFn block_kernel_;
};

}  // namespace rjf::fpga
