// Scalar radix-2 / radix-4 butterfly stages over interleaved re/im float
// arrays.  These are the reference bodies for the planned FFT: the plan
// runs them for every stage on the scalar path, and the SIMD kernels run
// them for stages whose quarter length is below the vector width.  The
// complex arithmetic is spelled out in float (not std::complex) so the
// reference and the vector kernels perform the same multiply/add
// sequence, keeping them within a few ulp of each other.
//
// Both stages have internal linkage: the baseline FFT plan and each per-ISA
// kernel TU keep their own copy, compiled with their own -m flags. As
// inline functions they would be one weak symbol for the whole binary,
// and the linker would keep whichever object's copy came first, so a
// baseline caller could run VEX-encoded code.
#pragma once

#include <cstddef>

namespace rjf::dsp::simd {

/// One twiddle-free radix-2 pass over adjacent pairs (used as the first
/// stage when log2(n) is odd; identical for forward and inverse).
static inline void fft_radix2_stage(float* x, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 4) {
    const float ar = x[i], ai = x[i + 1];
    const float br = x[i + 2], bi = x[i + 3];
    x[i] = ar + br;
    x[i + 1] = ai + bi;
    x[i + 2] = ar - br;
    x[i + 3] = ai - bi;
  }
}

/// One radix-4 pass with quarter length L over blocks of 4L complexes.
/// See dsp/simd/fft_kernels.h for the F0/F2/F1/F3 input ordering the
/// plain bit-reverse permutation produces.
static inline void fft_radix4_stage(float* x, std::size_t n,
                                    std::size_t L, const float* w1,
                                    const float* w2, const float* w3,
                                    bool inverse) {
  for (std::size_t base = 0; base < 2 * n; base += 8 * L) {
    for (std::size_t k = 0; k < 2 * L; k += 2) {
      float* pa = x + base + k;
      float* pc = pa + 2 * L;  // F2
      float* pb = pa + 4 * L;  // F1
      float* pd = pa + 6 * L;  // F3
      const float ar = pa[0], ai = pa[1];
      float cr = pc[0], ci = pc[1];
      float br = pb[0], bi = pb[1];
      float dr = pd[0], di = pd[1];
      // Twiddle rotations: F1 by W^k, F2 by W^2k, F3 by W^3k.
      {
        const float wr = w2[k], wi = w2[k + 1];
        const float tr = cr * wr - ci * wi;
        ci = ci * wr + cr * wi;
        cr = tr;
      }
      {
        const float wr = w1[k], wi = w1[k + 1];
        const float tr = br * wr - bi * wi;
        bi = bi * wr + br * wi;
        br = tr;
      }
      {
        const float wr = w3[k], wi = w3[k + 1];
        const float tr = dr * wr - di * wi;
        di = di * wr + dr * wi;
        dr = tr;
      }
      const float t0r = ar + cr, t0i = ai + ci;
      const float t1r = ar - cr, t1i = ai - ci;
      const float t2r = br + dr, t2i = bi + di;
      const float t3r = br - dr, t3i = bi - di;
      pa[0] = t0r + t2r;
      pa[1] = t0i + t2i;
      pb[0] = t0r - t2r;
      pb[1] = t0i - t2i;
      if (!inverse) {
        // X[k+L] = t1 - i*t3, X[k+3L] = t1 + i*t3
        pc[0] = t1r + t3i;
        pc[1] = t1i - t3r;
        pd[0] = t1r - t3i;
        pd[1] = t1i + t3r;
      } else {
        pc[0] = t1r - t3i;
        pc[1] = t1i + t3r;
        pd[0] = t1r + t3i;
        pd[1] = t1i - t3r;
      }
    }
  }
}

}  // namespace rjf::dsp::simd
