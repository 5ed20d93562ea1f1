// White Gaussian noise sources.
//
// Used both as the channel's thermal-noise model and as the jammer's
// 25 MHz WGN waveform preset (paper §2.4, waveform (i)).
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace rjf::dsp {

/// Streaming complex WGN source with fixed mean power. Sample k is
/// box_muller (dsp/synth_math.h) over raw draws 2k and 2k+1 of the seeded
/// Xoshiro256, with sqrt(power / 2) computed once. Samples are generated
/// kBlock at a time by a vectorised loop and handed out in order, so
/// sample() and fill() read one stream and give the same bits however the
/// calls interleave.
class NoiseSource {
 public:
  /// `power` is E[|x|^2] of generated samples.
  explicit NoiseSource(double power = 1.0,
                       std::uint64_t seed = 0x5eedULL) noexcept;

  [[nodiscard]] cfloat sample() noexcept {
    if (next_ == kBlock) refill();
    return block_[next_++];
  }

  /// Overwrite `out` with the next out.size() samples; bit-identical to
  /// assigning sample() to each element in order.
  void fill(std::span<cfloat> out) noexcept;

  [[nodiscard]] cvec block(std::size_t n);

  /// Add noise of this source's power onto an existing buffer.
  void add_to(std::span<cfloat> x) noexcept;

  [[nodiscard]] double power() const noexcept { return power_; }

 private:
  static constexpr std::size_t kBlock = 64;

  /// Write the next kBlock samples of the stream to `out`.
  void generate(cfloat* out) noexcept;
  void refill() noexcept;

  double power_;
  float sigma_;  // per-component standard deviation, sqrt(power_ / 2)
  Xoshiro256 rng_;
  std::size_t next_ = kBlock;  // index of block_'s next unread sample
  std::array<cfloat, kBlock> block_{};
};

/// Convenience: buffer of complex WGN with the requested mean power.
[[nodiscard]] cvec make_wgn(std::size_t n, double power, std::uint64_t seed);

}  // namespace rjf::dsp
