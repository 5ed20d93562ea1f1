#include "radio/adc_dac.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "dsp/synth_math.h"

namespace rjf::radio {

Adc::Adc(unsigned bits) noexcept : Adc(bits, dsp::simd::active_isa()) {}

Adc::Adc(unsigned bits, dsp::simd::Isa isa) noexcept
    : bits_(std::clamp(bits, 2u, 16u)),
      kernel_(dsp::simd::quantise_iq16_kernel(isa)) {}

dsp::IQ16 Adc::sample(dsp::cfloat in) const noexcept {
  const auto levels = static_cast<float>(1u << (bits_ - 1));
  std::uint32_t clip = 0;
  const dsp::IQ16 out{dsp::adc_code(in.real(), levels, clip),
                      dsp::adc_code(in.imag(), levels, clip)};
  if (clip != 0) clipped_ = true;
  return out;
}

dsp::iqvec Adc::convert(std::span<const dsp::cfloat> in) const {
  dsp::iqvec out(in.size());
  convert(in, 1.0f, out);
  return out;
}

void Adc::convert(std::span<const dsp::cfloat> in, float gain,
                  std::span<dsp::IQ16> out) const {
  if (out.size() != in.size())
    throw std::invalid_argument("Adc::convert: output size differs from input");
  clipped_ = kernel_(in.data(), in.size(), gain,
                     static_cast<float>(1u << (bits_ - 1)), out.data());
}

dsp::cvec Dac::convert(std::span<const dsp::IQ16> in) const {
  dsp::cvec out(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [&](dsp::IQ16 s) { return sample(s); });
  return out;
}

}  // namespace rjf::radio
