// Converter models for the USRP N210: 14-bit ADC (ADS62P44) and 16-bit DAC
// (AD9777). Quantisation and clipping here bound the dynamic range the
// detection datapath sees, which matters for correlator behaviour at high
// input levels (receiver saturation is why the paper pads its test network
// with 20 dB attenuators).
#pragma once

#include "dsp/simd/synth.h"
#include "dsp/types.h"

namespace rjf::radio {

/// Quantise a float baseband stream to `bits`-bit two's-complement samples,
/// returned left-justified in the 16-bit fabric representation. Codes
/// round half to even; inputs past full scale, ±inf included, saturate to
/// the end code on their side and set the clip flag; NaN quantises to the
/// bottom code and sets the clip flag. sample() and every tier of the
/// block quantiser behind convert() share one per-rail kernel
/// (dsp::adc_code); the tier is picked at construction.
class Adc {
 public:
  explicit Adc(unsigned bits = 14) noexcept;
  /// The same converter, quantising blocks through the kernel of tier `isa`
  /// (any tier up to dsp::simd::active_isa()).
  Adc(unsigned bits, dsp::simd::Isa isa) noexcept;

  [[nodiscard]] dsp::IQ16 sample(dsp::cfloat in) const noexcept;
  [[nodiscard]] dsp::iqvec convert(std::span<const dsp::cfloat> in) const;
  /// Quantise in[k] * gain into out[k]: the receive gain and the ADC in
  /// one pass, with no buffer of its own. Bit-identical to convert() over
  /// the gained block. Throws std::invalid_argument unless out.size() ==
  /// in.size().
  void convert(std::span<const dsp::cfloat> in, float gain,
               std::span<dsp::IQ16> out) const;

  /// True if any sample clipped since the last clear_clip(). The flag is
  /// sticky: per-sample sample() calls OR into it, and both convert()s
  /// clear it on entry, so after a convert() it reports on that block
  /// only.
  [[nodiscard]] bool clipped() const noexcept { return clipped_; }
  /// Re-arm the clip flag (per-sample callers bracket their own blocks the
  /// way convert() does).
  void clear_clip() const noexcept { clipped_ = false; }
  [[nodiscard]] unsigned bits() const noexcept { return bits_; }

 private:
  unsigned bits_;
  dsp::simd::QuantiseFn kernel_;
  mutable bool clipped_ = false;
};

/// 16-bit DAC: fabric samples back to float baseband.
class Dac {
 public:
  [[nodiscard]] dsp::cfloat sample(dsp::IQ16 in) const noexcept {
    return dsp::from_iq16(in);
  }
  [[nodiscard]] dsp::cvec convert(std::span<const dsp::IQ16> in) const;
};

}  // namespace rjf::radio
