// Trial capture synthesis kernels (DESIGN.md sections 12 and 16): the
// Box-Muller block behind dsp::NoiseSource and the CFO mix behind
// core::run_detection_trial; and the block ADC quantiser behind
// radio::Adc and radio::UsrpN210::stream (DESIGN.md section 7).
//
// Each tier runs the dsp/synth_math.h kernels at its vector width. Those
// are built from correctly rounded basic operations only, and the tree
// builds with -ffp-contract=off, so every tier returns the scalar tier's
// bits (tested in tests/test_dsp_capture_synthesis.cpp). Only the
// arithmetic is vectorised: the Xoshiro256 draws a noise block consumes
// stay serial and in order, in the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/simd/dispatch.h"
#include "dsp/types.h"

namespace rjf::dsp::simd {

/// Samples per noise block.
inline constexpr std::size_t kNoiseBlock = 64;

/// out[j] = box_muller(a[j], b[j], sigma) for j < kNoiseBlock.
using NoiseBlockFn = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                              float sigma, cfloat* out) noexcept;

/// The noise block kernel of tier `isa`, falling through to the next
/// narrower tier this build has; never nullptr. Resolve it once, at
/// construction.
[[nodiscard]] NoiseBlockFn noise_block_kernel(Isa isa) noexcept;

/// out[k] += frame[k] * cfo_phasor(w, k) for k < frame.size(), one sample
/// at a time through std::complex: the reference, and the scalar tier.
/// `out` must hold frame.size() samples.
void cfo_mix_reference(std::span<cfloat> out, std::span<const cfloat> frame,
                       double w) noexcept;

/// cfo_mix_reference at the width of tier `isa`, with the same bits when
/// every frame sample is finite (core::prepare_detection_trials checks
/// that its frame variants are).
void cfo_mix(std::span<cfloat> out, std::span<const cfloat> frame, double w,
             Isa isa = active_isa()) noexcept;

/// out[k] = {adc_code(in[k].real() * gain, levels), adc_code(in[k].imag() *
/// gain, levels)} for k < n (dsp/synth_math.h): the receive gain and the
/// quantiser in one pass, each product rounded to float before the code is
/// taken. Returns true when any rail clipped. A gain of 1.0f quantises the
/// input as it is (x * 1.0f == x).
using QuantiseFn = bool (*)(const cfloat* in, std::size_t n, float gain,
                            float levels, IQ16* out) noexcept;

/// The quantiser of tier `isa`, falling through to the next narrower tier
/// this build has; never nullptr. Resolve it once, at construction.
[[nodiscard]] QuantiseFn quantise_iq16_kernel(Isa isa) noexcept;

namespace detail {
/// out[k] += frame[k] * cfo_phasor(w, k) for k < n.
using CfoMixFn = void (*)(cfloat* out, const cfloat* frame, std::size_t n,
                          double w) noexcept;

/// Each vector tier's kernels, or nullptr when the build left them out.
[[nodiscard]] NoiseBlockFn noise_block_avx2() noexcept;
[[nodiscard]] NoiseBlockFn noise_block_avx512() noexcept;
[[nodiscard]] CfoMixFn cfo_mix_avx2() noexcept;
[[nodiscard]] CfoMixFn cfo_mix_avx512() noexcept;
[[nodiscard]] QuantiseFn quantise_iq16_avx2() noexcept;
[[nodiscard]] QuantiseFn quantise_iq16_avx512() noexcept;
}  // namespace detail

}  // namespace rjf::dsp::simd
