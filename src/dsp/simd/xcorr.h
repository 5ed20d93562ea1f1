// Batched sign-correlator metric kernel: the host fast path behind
// fpga::CrossCorrelator::metrics() (DESIGN.md sections 7 and 12).
//
// The kernel computes, for a run of baseband samples, the metric the
// bit-parallel CrossCorrelator::step() would return after clocking in each
// one: the 64-tap sign history of each rail is ANDed with the three
// coefficient bit-planes and popcounted, several samples per vector pass.
// Metrics are bit-identical to step() on every input (tested in
// tests/test_fpga_xcorr_block.cpp). The AVX2 and AVX-512 tiers have a
// kernel; there is no scalar variant — the caller's per-sample step() loop
// is the fallback there.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/simd/dispatch.h"
#include "dsp/types.h"

namespace rjf::dsp::simd {

/// One correlator template as the kernel consumes it: the two's-complement
/// bit-planes of each 3-bit coefficient bank (weights +1, +2, -4; tap k at
/// bit 63-k, so the oldest tap lines up with the top of the history) and
/// each bank's coefficient sum.
struct XcorrPlanes {
  std::uint64_t i[3];
  std::uint64_t q[3];
  std::int64_t sum_i;
  std::int64_t sum_q;
};

/// One 64-bit sign word per rail, a set bit meaning the rail was negative.
/// As the histories carried from sample to sample, bit 0 is the newest
/// sample and bit 63 the oldest.
struct SignWords {
  std::uint64_t i;
  std::uint64_t q;
};

/// Clock rx into the histories and write metric[n] = |corr|^2 after sample
/// n, for every n < rx.size(). `metric` must hold rx.size() entries.
using XcorrBlockFn = void (*)(const XcorrPlanes& planes, SignWords& history,
                              std::span<const IQ16> rx,
                              std::span<std::uint32_t> metric) noexcept;

/// The batched kernel of tier `isa`, or nullptr when that tier has none in
/// this build (the caller then runs its per-sample path). Resolve it once,
/// outside the sample loop.
[[nodiscard]] XcorrBlockFn xcorr_block_kernel(Isa isa) noexcept;

namespace detail {
/// Each tier's kernel, or nullptr when the build left it out.
[[nodiscard]] XcorrBlockFn xcorr_block_avx2() noexcept;
[[nodiscard]] XcorrBlockFn xcorr_block_avx512() noexcept;
}  // namespace detail

}  // namespace rjf::dsp::simd
