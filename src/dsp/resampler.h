// Rational-ratio polyphase resampler.
//
// The paper's single most important analog imperfection is the sampling
// rate mismatch between the WiFi transmitter (20 MSPS per 802.11g) and the
// USRP receive chain (25 MSPS fixed by the UHD design). Figure 6's ~50%
// single-long-preamble detection rate is attributed directly to this
// mismatch, so the resampler is a first-class substrate here: every
// over-the-air waveform is resampled to the fabric rate before detection.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace rjf::dsp {

/// Windowed-sinc polyphase resampler (8-tap Hann-windowed kernel) with
/// exact rational phases. The rates reduce to out/in = L/M in lowest
/// terms (20→25 MSPS is 5/4, 11.2→25 is 125/56). Output m = q·L + r sits
/// at input instant q·M + r·M/L + d, so its tap offsets and weights depend
/// only on the phase r and the delay d: each resample() call evaluates the
/// kernel once per phase into a table of min(L, n_out) rows, and the output
/// loop is loads and multiply-adds. A row holds exactly the taps the
/// continuous loop (resample_reference) visits, in its order, zero-weight
/// end taps included, so 20↔25 MSPS output is byte-identical to it. At
/// ratios whose double m / ratio drifts (25/11, 125/56) the exact phases
/// differ from it by a few 1e-7.
class Resampler {
 public:
  /// Converts a stream at `in_rate` Hz to `out_rate` Hz. Both rates must be
  /// whole, finite, positive Hz no larger than 2^32; anything else throws
  /// std::invalid_argument.
  Resampler(double in_rate, double out_rate);

  /// Resample a whole buffer (stateless convenience; pads edges with zeros).
  /// `fractional_delay` shifts the output sampling grid by that fraction of
  /// an input sample (0 <= d < 1; anything else, NaN included, throws
  /// std::invalid_argument) — used to model arbitrary timing offsets
  /// between transmitter and receiver sample clocks. The output holds
  /// floor(in.size() * ratio()) samples.
  [[nodiscard]] cvec resample(std::span<const cfloat> in,
                              double fractional_delay = 0.0) const;

  [[nodiscard]] double ratio() const noexcept { return ratio_; }

 private:
  double ratio_;         // out samples per in sample
  std::uint64_t up_;     // L: out_rate / gcd
  std::uint64_t down_;   // M: in_rate / gcd
};

/// One-shot helper.
[[nodiscard]] cvec resample(std::span<const cfloat> in, double in_rate,
                            double out_rate);

/// The continuous-phase loop Resampler::resample replaced: the kernel is
/// evaluated afresh at m / ratio + d for every tap of every output, a sin
/// and a cos each. Same rate and delay checks. Kept as the test oracle.
[[nodiscard]] cvec resample_reference(std::span<const cfloat> in,
                                      double in_rate, double out_rate,
                                      double fractional_delay = 0.0);

}  // namespace rjf::dsp
