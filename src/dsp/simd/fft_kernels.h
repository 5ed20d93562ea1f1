// Kernel-facing view of an FFT plan (see dsp/fft_plan.h for the owning
// object).  The plan hands the kernels a flat description — stage list
// with precomputed twiddle tables — so the per-ISA TUs depend only on
// this POD view, not on the plan class.
//
// Data layout: the signal is interleaved re/im float pairs (the layout of
// std::complex<float>), already bit-reverse permuted by the caller.
// Stage s is a radix-4 butterfly pass with quarter length L = quarter:
// within each block of 4L complexes, position k holds F0, L+k holds F2
// (twiddle w2 = W^(2k)), 2L+k holds F1 (w1 = W^k), 3L+k holds F3
// (w3 = W^(3k)), W = exp(-2*pi*i/4L) forward.  Twiddle tables are
// interleaved re/im, 2L floats each, generated in double by the plan;
// inverse runs get conjugated tables plus the inverse flag (which flips
// the +/- i cross terms in the butterfly).
#pragma once

#include <cstddef>

#include "dsp/simd/dispatch.h"

namespace rjf::dsp::simd {

struct FftStageView {
  std::size_t quarter;  // L; stage transform length is 4L
  const float* w1;
  const float* w2;
  const float* w3;
};

struct FftKernelRun {
  std::size_t n;        // total complex points (power of two)
  bool radix2_first;    // odd log2(n): one twiddle-free radix-2 pass first
  bool inverse;
  const FftStageView* stages;
  std::size_t n_stages;
};

/// Execute the butterfly passes of `run` over x (2n floats, interleaved,
/// already permuted).  Returns false when `isa` has no compiled kernel.
bool fft_exec(Isa isa, const FftKernelRun& run, float* x);

namespace detail {
bool fft_exec_avx2(const FftKernelRun& run, float* x);
}  // namespace detail

}  // namespace rjf::dsp::simd
