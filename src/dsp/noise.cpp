#include "dsp/noise.h"

namespace rjf::dsp {

NoiseSource::NoiseSource(double power, std::uint64_t seed) noexcept
    : power_(power), sigma_(complex_gaussian_sigma(power)), rng_(seed) {}

void NoiseSource::generate(cfloat* out) noexcept {
  // Drawing the block's raw words first leaves a loop of independent
  // box_muller calls that the compiler vectorises (this file builds with
  // -fno-math-errno, so sqrt is a plain instruction). Local copies keep the
  // generator state in registers: `out` could otherwise alias the members.
  Xoshiro256 rng = rng_;
  const float sigma = sigma_;
  std::uint64_t a[kBlock];
  std::uint64_t b[kBlock];
  for (std::size_t j = 0; j < kBlock; ++j) {
    a[j] = rng.next();
    b[j] = rng.next();
  }
  for (std::size_t j = 0; j < kBlock; ++j)
    out[j] = box_muller(a[j], b[j], sigma);
  rng_ = rng;
}

void NoiseSource::refill() noexcept {
  generate(block_.data());
  next_ = 0;
}

void NoiseSource::fill(std::span<cfloat> out) noexcept {
  // The block's unread samples first, then whole blocks generated straight
  // into `out`, then the tail from a fresh block: the order sample() reads.
  std::size_t i = 0;
  for (; i < out.size() && next_ < kBlock; ++i) out[i] = block_[next_++];
  for (; i + kBlock <= out.size(); i += kBlock) generate(&out[i]);
  for (; i < out.size(); ++i) out[i] = sample();
}

cvec NoiseSource::block(std::size_t n) {
  cvec out(n);
  fill(out);
  return out;
}

void NoiseSource::add_to(std::span<cfloat> x) noexcept {
  for (cfloat& s : x) s += sample();
}

cvec make_wgn(std::size_t n, double power, std::uint64_t seed) {
  NoiseSource src(power, seed);
  return src.block(n);
}

}  // namespace rjf::dsp
