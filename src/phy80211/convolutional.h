// 802.11 convolutional code: K=7, rate 1/2 mother code with generators
// g0 = 133 (octal) and g1 = 171 (octal), punctured to 2/3 and 3/4 for the
// higher data rates. Decoding is hard-decision Viterbi with erasure-aware
// metrics so punctured positions contribute nothing to the path metric.
#pragma once

#include <cstdint>

#include "dsp/simd/dispatch.h"
#include "phy80211/bits.h"

namespace rjf::phy80211 {

enum class CodeRate { kHalf, kTwoThirds, kThreeQuarters };

/// Numerator/denominator of the code rate (e.g. 3/4 -> {3, 4}).
struct RateFraction {
  unsigned num;
  unsigned den;
};
[[nodiscard]] constexpr RateFraction rate_fraction(CodeRate rate) noexcept {
  switch (rate) {
    case CodeRate::kHalf: return {1, 2};
    case CodeRate::kTwoThirds: return {2, 3};
    case CodeRate::kThreeQuarters: return {3, 4};
  }
  return {1, 2};
}

/// Encode with the rate-1/2 mother code (output a0 b0 a1 b1 ...).
/// The caller is responsible for appending the 6 tail zeros beforehand.
[[nodiscard]] Bits convolutional_encode(std::span<const std::uint8_t> data);

/// Puncture a mother-coded stream to the requested rate.
[[nodiscard]] Bits puncture(std::span<const std::uint8_t> coded, CodeRate rate);

/// Reinsert erasure marks (value 2) at punctured positions so the stream is
/// back at the mother-code rate. `n_mother` is the mother-coded length.
[[nodiscard]] Bits depuncture(std::span<const std::uint8_t> punctured,
                              CodeRate rate, std::size_t n_mother);

/// Hard-decision Viterbi decode of a (possibly erasure-marked) mother-rate
/// stream. Input length must be even; returns n/2 decoded bits including
/// the tail. Erasures (value 2) incur zero branch metric. Runs the
/// lane-parallel ACS kernel of tier `isa` (any tier up to active_isa(); tests
/// pin one) and the reference where that tier has none; decoded bits are
/// bit-identical to the reference either way.
[[nodiscard]] Bits viterbi_decode(
    std::span<const std::uint8_t> coded,
    dsp::simd::Isa isa = dsp::simd::active_isa());

/// Scalar reference decoder (the semantic authority the SIMD kernels are
/// tested against). Exposed for equivalence tests and benchmarks.
[[nodiscard]] Bits viterbi_decode_reference(std::span<const std::uint8_t> coded);

/// Convenience: encode + puncture.
[[nodiscard]] Bits encode_at_rate(std::span<const std::uint8_t> data, CodeRate rate);

/// Convenience: depuncture + decode. `n_data_bits` is the expected number
/// of decoded bits (mother length = 2 * n_data_bits).
[[nodiscard]] Bits decode_at_rate(std::span<const std::uint8_t> punctured,
                                  CodeRate rate, std::size_t n_data_bits);

// ---- Soft-decision path ----------------------------------------------------

/// Reinsert zero-LLR positions at punctured locations.
[[nodiscard]] std::vector<float> depuncture_soft(std::span<const float> llrs,
                                                 CodeRate rate,
                                                 std::size_t n_mother);

/// Soft-decision Viterbi over mother-rate LLRs (positive = bit 1). Erasures
/// are zero LLRs and contribute nothing. Returns n/2 decoded bits. Tier
/// `isa` as for viterbi_decode; the vector kernel replicates the
/// reference's float arithmetic exactly.
[[nodiscard]] Bits viterbi_decode_soft(
    std::span<const float> llrs,
    dsp::simd::Isa isa = dsp::simd::active_isa());

/// Scalar reference soft decoder (see viterbi_decode_reference).
[[nodiscard]] Bits viterbi_decode_soft_reference(std::span<const float> llrs);

/// Convenience: depuncture_soft + viterbi_decode_soft.
[[nodiscard]] Bits decode_at_rate_soft(std::span<const float> llrs,
                                       CodeRate rate, std::size_t n_data_bits);

}  // namespace rjf::phy80211
