// Branch-free float kernels for trial capture synthesis and its ADC.
//
// Every detection trial builds its capture from two per-sample
// transcendentals: the Box-Muller log and sincos behind each complex WGN
// sample (dsp::NoiseSource, Xoshiro256::complex_gaussian) and the
// carrier-frequency-offset phasor (cfo_phasor); the radio then quantises
// it to fabric codes (adc_code). These kernels evaluate them in float
// from IEEE-754 basic operations only — add, subtract, multiply, divide,
// sqrt, integer<->float conversion and bit moves — with no libm call and
// no data-dependent branch. Basic operations are correctly
// rounded and the build turns floating-point contraction off
// (-ffp-contract=off, so no FMA fusing), hence each kernel returns the same
// bits on every host, ISA and thread count, whether the compiler emits it
// scalar or vectorised. DESIGN.md §16 gives the accuracy bounds.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "dsp/types.h"

namespace rjf::dsp {

/// Natural logarithm of a normal float x in (0, 1]; within 1 ulp of the
/// correctly rounded result. Splits x = 2^k·m with m in [√2/2, √2) by
/// rebiasing the exponent field, then evaluates log m = 2·atanh(s),
/// s = f/(2+f), f = m − 1, with fdlibm's logf minimax polynomial; log 2 is
/// split hi+lo so k·log 2 adds no rounding of its own. x = 1 gives exactly
/// 0. Zero, subnormals, negatives and x > 1 are outside the domain.
[[nodiscard]] __attribute__((always_inline)) inline float log_unit(
    float x) noexcept {
  constexpr float kLn2Hi = 6.9313812256e-01f;  // top 16 bits of log 2
  constexpr float kLn2Lo = 9.0580006145e-06f;  // log 2 − kLn2Hi
  constexpr float kLg1 = 0.66666662693f;
  constexpr float kLg2 = 0.40000972152f;
  constexpr float kLg3 = 0.28498786688f;
  constexpr float kLg4 = 0.24279078841f;
  // Adding the distance from √2/2's bits to 1.0's carries into the exponent
  // exactly when the mantissa is ≥ √2; re-adding √2/2's bits to the bare
  // mantissa then lands m in [√2/2, √2).
  std::uint32_t ix =
      std::bit_cast<std::uint32_t>(x) + (0x3f800000u - 0x3f3504f3u);
  const auto k = static_cast<float>(static_cast<std::int32_t>(ix >> 23) - 127);
  ix = (ix & 0x007fffffu) + 0x3f3504f3u;
  const float f = std::bit_cast<float>(ix) - 1.0f;
  const float s = f / (2.0f + f);
  const float z = s * s;
  const float w = z * z;
  const float r = z * (kLg1 + w * kLg3) + w * (kLg2 + w * kLg4);
  const float hfsq = 0.5f * f * f;
  return s * (hfsq + r) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

/// A cosine and sine pair, of one angle or of one vector of angles.
template <typename F>
struct CosSin {
  F cos;
  F sin;
};

/// cos θ and sin θ for θ = x + quadrant·π/2, with x in [−π/4, π/4]; each
/// within 1e-7 of the exact value. Cephes' sinf/cosf minimax polynomials
/// give the pair at x; the quadrant (only its low two bits matter) then
/// swaps and negates the pair with integer bit operations. F is float and U
/// uint32_t, or F a GCC vector of floats and U the uint32 vector of as many
/// lanes: the vector CFO kernels (dsp/simd/synth_kernels_impl.h) run these
/// very operations, in this order, on every lane.
template <typename F, typename U>
[[nodiscard]] __attribute__((always_inline)) inline CosSin<F>
sincos_quadrant_lanes(F x, U quadrant) noexcept {
  const F z = x * x;
  const F s =
      x + x * z * (-1.6666654611e-1f +
                   z * (8.3321608736e-3f + z * -1.9515295891e-4f));
  const F c = 1.0f - 0.5f * z +
              z * z * (4.166664568298827e-2f +
                       z * (-1.388731625493765e-3f +
                            z * 2.443315711809948e-5f));
  const U sb = std::bit_cast<U>(s);
  const U cb = std::bit_cast<U>(c);
  const U swap = 0u - (quadrant & 1u);  // all ones when odd
  const U re = (cb & ~swap) | (sb & swap);
  const U im = (sb & ~swap) | (cb & swap);
  // cos θ is negated in quadrants 1 and 2, sin θ in quadrants 2 and 3.
  return {std::bit_cast<F>(re ^ (((quadrant + 1u) & 2u) << 30)),
          std::bit_cast<F>(im ^ ((quadrant & 2u) << 30))};
}

/// (cos θ, sin θ) for θ = x + quadrant·π/2 (sincos_quadrant_lanes).
[[nodiscard]] __attribute__((always_inline)) inline cfloat sincos_quadrant(
    float x, std::uint32_t quadrant) noexcept {
  const auto [c, s] = sincos_quadrant_lanes(x, quadrant);
  return {c, s};
}

/// A phase of q quarter turns, |q| < 2^51, split into the nearest whole
/// quarter turn n and the remainder q − n in [−1/2, 1/2]. Adding 1.5·2^52
/// rounds q to an integer (ties to even) in the sum's low mantissa bits, so
/// n mod 4 is the low bits of `shifted`. D is double, or a GCC vector of
/// doubles for the vector CFO kernels.
template <typename D>
struct QuarterTurns {
  D radians;  // the remainder, times π/2
  D shifted;  // q + 1.5·2^52
};

template <typename D>
[[nodiscard]] __attribute__((always_inline)) inline QuarterTurns<D>
split_quarter_turns(D q) noexcept {
  constexpr double kRoundToInt = 0x1.8p52;
  const D shifted = q + kRoundToInt;
  return {(q - (shifted - kRoundToInt)) * (std::numbers::pi / 2.0), shifted};
}

/// Unit phasor e^{j·w·k} for the per-trial CFO rotation; a pure function
/// of (w, k), with no rotator state. The phase is formed and wrapped in
/// double: w·k in quarter turns, split into the nearest whole quarter turn
/// n and a remainder in [-1/2, 1/2]. Only the remainder's cosine and sine
/// are evaluated in float (sincos_quadrant), so the error stays below 2e-7
/// per component however long the capture — accumulating w·k in float
/// would lose milliradians by the end of a WiMAX-length capture. Valid
/// while |w·k| < 2^51 quarter turns and k < 2^63.
[[nodiscard]] __attribute__((always_inline)) inline cfloat cfo_phasor(
    double w, std::uint64_t k) noexcept {
  const QuarterTurns<double> phase = split_quarter_turns(
      w * static_cast<double>(static_cast<std::int64_t>(k)) *
      (2.0 / std::numbers::pi));
  return sincos_quadrant(
      static_cast<float>(phase.radians),
      static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(phase.shifted)));
}

/// Box-Muller map from two raw 64-bit draws to a circularly-symmetric
/// complex Gaussian whose I and Q each have standard deviation `sigma`.
/// The top 53 bits of `a` give u in (0, 1] (two exact int32 conversions,
/// summed with one rounding), so the radius sigma·sqrt(-2 log u) reaches
/// sqrt(106 log 2) = 8.6 sigma: |x|^2 up to 36.7 times the mean power
/// 2·sigma^2. `b` gives the angle directly: its low two bits pick the
/// quadrant, its top 24 bits the offset within it, uniform over [-1/2, 1/2)
/// of a quarter turn. Always inlined so a loop over independent draws can
/// be vectorised (NoiseSource).
[[nodiscard]] __attribute__((always_inline)) inline cfloat box_muller(
    std::uint64_t a, std::uint64_t b, float sigma) noexcept {
  constexpr float kQuarterTurnPerLsb = 0x1.921fb6p-24f;  // (pi/2)·2^-24
  const float u =
      static_cast<float>(static_cast<std::int32_t>(a >> 40)) * 0x1.0p-24f +
      static_cast<float>(static_cast<std::int32_t>((a >> 11) & 0x1fffffffu) +
                         1) *
          0x1.0p-53f;
  const float radius = sigma * std::sqrt(-2.0f * log_unit(u));
  const float x = static_cast<float>(static_cast<std::int32_t>(b >> 32) >> 8) *
                  kQuarterTurnPerLsb;
  return radius * sincos_quadrant(x, static_cast<std::uint32_t>(b));
}

/// The ADC's code for rail x, with `levels` = 2^(bits-1) codes per unit of
/// full scale: round half to even, clamp to [-levels, levels-1], scale to
/// the left-justified 16-bit word (returned as a float holding an integer
/// in [-32768, 32767]), and OR a non-zero flag into `clip` when the rounded
/// code fell outside the range. Adding and subtracting 1.5·2^23 rounds
/// exactly while |x·levels| < 2^22; past that the sum is inexact but
/// monotone, so huge inputs and ±inf still land beyond the range on their
/// own side (where std::lrintf returns LONG_MIN, the bottom code, for
/// either sign). NaN fails both compares and takes the bottom code. F is
/// float and M uint32_t (adc_code), or F a GCC vector of floats and M the
/// int32 vector its compares give: every tier of the block quantiser
/// (dsp/simd/synth_kernels_impl.h) runs these very operations on every
/// lane.
template <typename F, typename M>
[[nodiscard]] __attribute__((always_inline)) inline F adc_code_lanes(
    F x, float levels, M& clip) noexcept {
  constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
  const F scaled = x * levels;
  const F rounded = (scaled + kRoundMagic) - kRoundMagic;
  const auto below = !(rounded >= -levels);
  const auto above = rounded > levels - 1.0f;
  clip |= below | above;
  return (below ? -levels : (above ? levels - 1.0f : rounded)) *
         (32768.0f / levels);
}

/// One rail's code as the fabric word (adc_code_lanes on one float);
/// radio::Adc quantises single samples with it.
[[nodiscard]] __attribute__((always_inline)) inline std::int16_t adc_code(
    float x, float levels, std::uint32_t& clip) noexcept {
  return static_cast<std::int16_t>(
      static_cast<std::int32_t>(adc_code_lanes(x, levels, clip)));
}

}  // namespace rjf::dsp
