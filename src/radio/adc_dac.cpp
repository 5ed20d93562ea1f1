#include "radio/adc_dac.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace rjf::radio {

namespace {

// Rails per convert() kernel call: 32 complex samples. GCC vectorises at
// -O2 under its "very cheap" cost model, which rejects loops whose trip
// count is not a compile-time multiple of the vector width, so the kernel
// runs over fixed-size blocks and convert() pads the tail block with zeros.
constexpr std::size_t kBlockRails = 64;

// 1.5 * 2^23. Adding and then subtracting it rounds a float of magnitude
// below 2^22 to an integer, half to even (the default rounding mode, as
// for std::lrintf), with no integer conversion.
constexpr float kRoundMagic = 12582912.0f;

// Quantise one rail with `levels` = 2^(bits-1) codes per unit of full
// scale: round half to even, clamp to [-levels, levels-1], left-justify
// into the 16-bit word, and OR a flag into `clip` when the rounded code
// fell outside the range. The magic constant rounds exactly while
// |scaled| < 2^22; past that the sum is inexact but monotone, so huge
// inputs and ±inf still land beyond the range on their own side (where
// std::lrintf returns LONG_MIN, the bottom code, for either sign). NaN
// fails both compares and takes the bottom code.
[[gnu::always_inline]] inline std::int16_t quantise_rail(
    float x, float levels, std::uint32_t& clip) noexcept {
  const float scaled = x * levels;
  const float rounded = (scaled + kRoundMagic) - kRoundMagic;
  const bool below = !(rounded >= -levels);
  const bool above = rounded > levels - 1.0f;
  clip |= static_cast<std::uint32_t>(below) | static_cast<std::uint32_t>(above);
  const float code = below ? -levels : (above ? levels - 1.0f : rounded);
  return static_cast<std::int16_t>(
      static_cast<std::int32_t>(code * (32768.0f / levels)));
}

std::uint32_t quantise_block(const float* in, std::int16_t* out,
                             float levels) noexcept {
  std::uint32_t clip = 0;
  for (std::size_t k = 0; k < kBlockRails; ++k)
    out[k] = quantise_rail(in[k], levels, clip);
  return clip;
}

}  // namespace

Adc::Adc(unsigned bits) noexcept : bits_(std::clamp(bits, 2u, 16u)) {}

dsp::IQ16 Adc::sample(dsp::cfloat in) const noexcept {
  const auto levels = static_cast<float>(1u << (bits_ - 1));
  std::uint32_t clip = 0;
  const dsp::IQ16 out{quantise_rail(in.real(), levels, clip),
                      quantise_rail(in.imag(), levels, clip)};
  if (clip != 0) clipped_ = true;
  return out;
}

dsp::iqvec Adc::convert(std::span<const dsp::cfloat> in) const {
  static_assert(sizeof(dsp::IQ16) == 2 * sizeof(std::int16_t));
  const auto levels = static_cast<float>(1u << (bits_ - 1));
  dsp::iqvec out(in.size());
  // std::complex<float> is layout-compatible with float[2]: the rails are
  // one contiguous float array, and IQ16 holds them as int16 pairs.
  const auto* rails = reinterpret_cast<const float*>(in.data());
  const std::size_t n = 2 * in.size();
  std::int16_t codes[kBlockRails];
  std::uint32_t clip = 0;
  std::size_t k = 0;
  for (; k + kBlockRails <= n; k += kBlockRails) {
    clip |= quantise_block(rails + k, codes, levels);
    std::memcpy(out.data() + k / 2, codes, sizeof codes);
  }
  if (k < n) {
    float tail[kBlockRails] = {};
    std::copy(rails + k, rails + n, tail);
    clip |= quantise_block(tail, codes, levels);
    std::memcpy(out.data() + k / 2, codes, (n - k) * sizeof(std::int16_t));
  }
  clipped_ = clip != 0;
  return out;
}

dsp::cvec Dac::convert(std::span<const dsp::IQ16> in) const {
  dsp::cvec out(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [&](dsp::IQ16 s) { return sample(s); });
  return out;
}

}  // namespace rjf::radio
