// Deterministic, seedable PRNG used throughout the simulation.
//
// xoshiro256++ — fast, high quality, and reproducible across platforms,
// which matters because every experiment in EXPERIMENTS.md must be
// regenerable bit-for-bit from a seed.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "dsp/synth_math.h"
#include "dsp/types.h"

namespace rjf::dsp {

/// Derive the seed for an independent random stream from a base seed and a
/// stream index (splitmix64 over base + index·golden-gamma). Used by the
/// sweep engine so shard/trial RNG streams depend only on logical indices —
/// never on thread scheduling — making parallel experiments reproducible
/// bit-for-bit at any worker count.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t stream) noexcept;

/// Per-component standard deviation of complex WGN with mean power
/// `variance` (sqrt(variance / 2)), the scale box_muller takes.
[[nodiscard]] inline float complex_gaussian_sigma(double variance) noexcept {
  return static_cast<float>(std::sqrt(variance / 2.0));
}

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Standard normal variate (Box-Muller in double, cached pair).
  [[nodiscard]] double gaussian() noexcept;

  /// Circularly-symmetric complex Gaussian with E[|x|^2] == variance:
  /// box_muller (dsp/synth_math.h) over the next two raw draws, the map
  /// NoiseSource uses. Never touches gaussian()'s cached value.
  [[nodiscard]] cfloat complex_gaussian(double variance = 1.0) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace rjf::dsp
