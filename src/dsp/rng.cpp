#include "dsp/rng.h"

#include <cmath>
#include <numbers>

namespace rjf::dsp {
namespace {

// splitmix64: expands one seed word into the full xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) noexcept {
  // Each stream advances the splitmix state by its own multiple of the
  // golden gamma (the increment splitmix64 itself uses), so stream k's seed
  // equals the (k+1)-th output of a splitmix sequence started at `base`:
  // well-mixed, collision-free across streams, and independent of ordering.
  std::uint64_t state = base + stream * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

double Xoshiro256::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256::uniform_int(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method.
  const std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::gaussian() noexcept {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  // Box-Muller; 1 - uniform() keeps the log argument strictly positive.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_ = r * std::sin(theta);
  has_cached_ = true;
  return r * std::cos(theta);
}

cfloat Xoshiro256::complex_gaussian(double variance) noexcept {
  const std::uint64_t a = next();
  const std::uint64_t b = next();
  return box_muller(a, b, complex_gaussian_sigma(variance));
}

}  // namespace rjf::dsp
