// Per-size FFT plans: precomputed bit-reverse permutation and
// double-generated twiddle tables, shared process-wide.
//
// The legacy transform in fft.cpp regenerated twiddles per call with a
// recursive float update (w *= wlen), which both costs time and drifts:
// the rounding error of the repeated multiply accumulates across a long
// butterfly chain.  A plan generates every twiddle independently in
// double precision once, rounds to float once, and reuses the tables for
// the life of the process — fft()/ifft() in fft.h are now thin wrappers
// over FftPlan::of(n).
//
// Execution is a radix-4 decimation-in-time main loop (radix-2 first pass
// when log2 n is odd) over the plain bit-reverse order, dispatched to the
// AVX2 butterfly kernels in dsp/simd when available; the scalar path runs
// the same stage bodies (dsp/simd/fft_stages_scalar.h) with the same
// tables.  Plans are immutable after construction and safe to share across
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/simd/fft_kernels.h"
#include "dsp/types.h"

namespace rjf::dsp {

class FftPlan {
 public:
  /// Process-wide plan for an n-point transform (n a power of two).
  /// First call for a size builds the plan; later calls are lock-free.
  static const FftPlan& of(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place transforms over interleaved std::complex<float> data.
  /// inverse() is unscaled (callers apply 1/N, matching ifft()). `isa`
  /// picks the butterfly kernel tier (any tier up to active_isa(); tests
  /// pin one); a tier without a kernel runs the scalar stages.
  void forward(cfloat* x, simd::Isa isa = simd::active_isa()) const;
  void inverse(cfloat* x, simd::Isa isa = simd::active_isa()) const;

  /// The plain bit-reverse permutation (exposed for tests).
  void permute(cfloat* x) const;

 private:
  explicit FftPlan(std::size_t n);
  void run(cfloat* x, bool inverse, simd::Isa isa) const;

  struct Stage {
    std::size_t quarter;  // L
    // Interleaved re/im, 2L floats each; W = exp(-2*pi*i/(4L)) forward,
    // conjugate for inverse.  w1 = W^k, w2 = W^2k, w3 = W^3k.
    std::vector<float> fwd1, fwd2, fwd3;
    std::vector<float> inv1, inv2, inv3;
  };

  std::size_t n_ = 0;
  bool radix2_first_ = false;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  std::vector<Stage> stages_;
  // Kernel-facing views of the stage tables (see dsp/simd/fft_kernels.h).
  std::vector<simd::FftStageView> fwd_views_;
  std::vector<simd::FftStageView> inv_views_;
};

}  // namespace rjf::dsp
