// Batched differential energy detector kernel: the host fast path behind
// fpga::EnergyDifferentiator::block() (DESIGN.md sections 7 and 12).
//
// For a run of baseband samples the kernel computes what the per-sample
// EnergyDifferentiator::step() would for each one: the power x[n] =
// I^2 + Q^2, the 32-sample moving sum y[n] = y[n-1] + x[n] - x[n-32], and
// the two Q8.8 comparators against the 64-sample-delayed sum,
//     high: y[n] > floor     && (y[n] << 8)    > thresh_high * y[n-64]
//     low:  y[n-64] > floor  && (y[n-64] << 8) > thresh_low  * y[n]
// Everything runs in vector lanes, the moving sum as a prefix sum across
// each pass's lanes plus the sum carried from the pass before. The
// comparators' products reach 68 bits (a 32-bit
// threshold times a 37-bit sum), so each lane splits the sum into 32-bit
// halves for the 32x32->64 multiply and compares exactly (see
// energy_kernel_impl.h). Bit-identical to step() on every input (tested in
// tests/test_fpga_energy_block.cpp). Every tier has a kernel: the AVX2 and
// AVX-512 ones in their TUs, the scalar one (one sample per pass) in
// energy.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/simd/dispatch.h"
#include "dsp/types.h"

namespace rjf::dsp::simd {

inline constexpr std::size_t kEnergyTaps = 32;      // moving-sum window N
inline constexpr std::size_t kEnergyRefTaps = 64;   // reference delay
inline constexpr std::size_t kEnergyMaskBits = 64;  // samples per mask word

/// The detector's programmed comparators: Q8.8 power ratios and the
/// minimum sum that arms them.
struct EnergyComparators {
  std::uint32_t thresh_high_q88;
  std::uint32_t thresh_low_q88;
  std::uint32_t floor;
};

/// Clock rx through the detector. `x` holds kEnergyTaps + rx.size()
/// entries: the last kEnergyTaps powers before the run (oldest first), then
/// the kernel writes the run's own. `y` holds kEnergyRefTaps + rx.size()
/// entries the same way for the moving sums (y[kEnergyRefTaps - 1] is the
/// running sum before the run). Bit n % 64 of high[n / 64] and low[n / 64]
/// is set when that comparator fires on sample n and n >= armed_from; both
/// hold ceil(rx.size() / 64) words, which the kernel overwrites.
using EnergyBlockFn = void (*)(const EnergyComparators& cmp,
                               std::span<const IQ16> rx, std::uint64_t* x,
                               std::uint64_t* y, std::size_t armed_from,
                               std::uint64_t* high,
                               std::uint64_t* low) noexcept;

/// The batched kernel of tier `isa`, or of the next narrower tier this
/// build has. Never nullptr. Resolve it once, outside the sample loop.
[[nodiscard]] EnergyBlockFn energy_block_kernel(Isa isa) noexcept;

namespace detail {
/// The vector tiers' kernels, or nullptr when the build left them out.
[[nodiscard]] EnergyBlockFn energy_block_avx2() noexcept;
[[nodiscard]] EnergyBlockFn energy_block_avx512() noexcept;
}  // namespace detail

}  // namespace rjf::dsp::simd
