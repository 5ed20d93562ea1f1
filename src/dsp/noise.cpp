#include "dsp/noise.h"

namespace rjf::dsp {

NoiseSource::NoiseSource(double power, std::uint64_t seed) noexcept
    : NoiseSource(power, seed, simd::active_isa()) {}

NoiseSource::NoiseSource(double power, std::uint64_t seed,
                         simd::Isa isa) noexcept
    : power_(power),
      sigma_(complex_gaussian_sigma(power)),
      rng_(seed),
      kernel_(simd::noise_block_kernel(isa)) {}

void NoiseSource::generate(cfloat* out) noexcept {
  // The draws stay serial and in stream order; only the Box-Muller
  // arithmetic runs in the kernel. A local copy keeps the generator state
  // in registers: `out` could otherwise alias the members.
  Xoshiro256 rng = rng_;
  std::uint64_t a[kBlock];
  std::uint64_t b[kBlock];
  for (std::size_t j = 0; j < kBlock; ++j) {
    a[j] = rng.next();
    b[j] = rng.next();
  }
  rng_ = rng;
  kernel_(a, b, sigma_, out);
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
