// Core sample types shared across the framework.
//
// Two domains coexist:
//  - host/channel domain: std::complex<float> baseband samples ("cfloat")
//  - FPGA fabric domain: 16-bit signed I/Q pairs ("IQ16"), matching the
//    USRP N210 datapath width used throughout the paper's custom DSP core.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace rjf::dsp {

using cfloat = std::complex<float>;
using cvec = std::vector<cfloat>;

/// One 16-bit fixed-point baseband sample as it travels through the
/// USRP DDC/DUC chains and the custom FPGA core.
struct IQ16 {
  std::int16_t i = 0;
  std::int16_t q = 0;

  friend bool operator==(const IQ16&, const IQ16&) = default;
};

using iqvec = std::vector<IQ16>;

/// Saturating conversion from a float in [-1, 1) to a Q0.15 sample value.
[[nodiscard]] std::int16_t to_q15(float x) noexcept;

/// Inverse of to_q15: maps int16 full scale back to [-1, 1). Inline: the
/// radio's TX scan converts every jamming sample through it.
[[nodiscard]] inline float from_q15(std::int16_t x) noexcept {
  return static_cast<float>(x) / 32768.0f;
}

/// Convert a float baseband sample to the 16-bit fabric representation.
[[nodiscard]] IQ16 to_iq16(cfloat x) noexcept;

/// Convert a fabric sample back to float baseband.
[[nodiscard]] inline cfloat from_iq16(IQ16 x) noexcept {
  return cfloat{from_q15(x.i), from_q15(x.q)};
}

/// Bulk conversions.
[[nodiscard]] iqvec to_iq16(std::span<const cfloat> in);
[[nodiscard]] cvec from_iq16(std::span<const IQ16> in);

}  // namespace rjf::dsp
