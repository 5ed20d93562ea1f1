// Template bodies of the capture synthesis kernels (dsp/simd/synth.h).
// Included by synth.cpp (scalar tier) and the per-ISA translation units
// (kernels_avx2.cpp, kernels_avx512.cpp), which instantiate them with an
// anonymous-namespace Ops struct, as for the Viterbi, FFT and correlator
// kernels, so each TU keeps its own copy.
//
// Both run the dsp/synth_math.h kernels unchanged. The noise block is the
// plain box_muller loop, which each TU's compiler vectorises at its own
// width. The CFO mix is written in lanes: one pass mixes Ops::kLanes
// samples, whose indices k sit in two double vectors of kLanes / 2 lanes,
// carried as exact counters (k < 2^53). cfo_phasor's phase steps run there;
// the float remainders and the quadrants (the low word of each rounded sum)
// then meet in one float and one uint32 vector of kLanes lanes for
// sincos_quadrant_lanes. Ops::even/odd split a pass's interleaved frame
// samples into real and imaginary vectors in whatever lane order the
// cheapest in-lane shuffle gives; Ops::first_k lays the indices out in that
// same order, and Ops::interleave_lo/hi undo it.
//
// The complex product is written out as (ac - bd, ad + bc). That is what
// std::complex<float>'s operator* returns whenever its inputs are finite:
// it falls back to __mulsc3 only when both parts come out NaN, and with
// finite inputs a NaN part needs two infinite products of equal sign
// (real) or of opposite sign (imaginary), which no finite a, b, c, d give
// at once (DESIGN.md section 16). core::prepare_detection_trials refuses
// non-finite frames; the phasor is finite for any finite w.
//
// The quantiser runs adc_code_lanes on Ops::Q, one float or one vector of
// rails (I, Q, I, Q, ...) per pass, each multiplied by the gain first. The
// last rails, fewer than a pass, run through a zero-padded copy (zero
// quantises to 0 and never clips).
//
// Ops contract: kLanes; vector types D (kLanes / 2 doubles), F (kLanes
// floats) and U (kLanes uint32); first_k(lo, hi); F to_float(D, D) and
// U low_words(D, D) joining two halves; even, odd, interleave_lo and
// interleave_hi; F load(const float*, count) and store(float*, F, count)
// touching only the first count <= kLanes floats. The quantiser's: Q, a
// float or a vector of floats, and QMask, what Q's compares give;
// store_codes(int16_t*, Q) writing each lane's code as an int16; and
// any(QMask), whether a lane is non-zero.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>

#include "dsp/simd/synth.h"
#include "dsp/synth_math.h"

namespace rjf::dsp::simd {

template <class Ops>
void noise_block_t(const std::uint64_t* a, const std::uint64_t* b,
                   float sigma, cfloat* out) noexcept {
  // Stored as two floats: GCC does not vectorise a loop that stores whole
  // std::complex<float> values through a pointer.
  float* const o = reinterpret_cast<float*>(out);
  for (std::size_t j = 0; j < kNoiseBlock; ++j) {
    const cfloat z = box_muller(a[j], b[j], sigma);
    o[2 * j] = z.real();
    o[2 * j + 1] = z.imag();
  }
}

template <class Ops>
void cfo_mix_t(cfloat* out, const cfloat* frame, std::size_t n,
               double w) noexcept {
  using D = typename Ops::D;
  using F = typename Ops::F;
  constexpr std::size_t kLanes = Ops::kLanes;
  // std::complex<float> is laid out as two floats, real part first.
  float* const o = reinterpret_cast<float*>(out);
  const float* const f = reinterpret_cast<const float*>(frame);

  // Samples i .. i+live-1, live <= kLanes, whose indices are k_lo and k_hi.
  const auto pass = [&](std::size_t i, D k_lo, D k_hi, std::size_t live)
                        __attribute__((always_inline)) {
    const QuarterTurns<D> lo =
        split_quarter_turns(w * k_lo * (2.0 / std::numbers::pi));
    const QuarterTurns<D> hi =
        split_quarter_turns(w * k_hi * (2.0 / std::numbers::pi));
    const auto [c, d] =
        sincos_quadrant_lanes(Ops::to_float(lo.radians, hi.radians),
                              Ops::low_words(lo.shifted, hi.shifted));

    const std::size_t n0 = std::min(2 * live, kLanes);
    const std::size_t n1 = 2 * live - n0;
    float* const p = o + 2 * i;
    const F f0 = Ops::load(f + 2 * i, n0);
    const F f1 = Ops::load(f + 2 * i + kLanes, n1);
    const F a = Ops::even(f0, f1);
    const F b = Ops::odd(f0, f1);
    const F re = a * c - b * d;
    const F im = a * d + b * c;
    Ops::store(p, Ops::load(p, n0) + Ops::interleave_lo(re, im), n0);
    Ops::store(p + kLanes,
               Ops::load(p + kLanes, n1) + Ops::interleave_hi(re, im), n1);
  };

  D k_lo;
  D k_hi;
  Ops::first_k(k_lo, k_hi);
  constexpr double kStep = static_cast<double>(kLanes);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    pass(i, k_lo, k_hi, kLanes);
    k_lo = k_lo + kStep;
    k_hi = k_hi + kStep;
  }
  if (i < n) pass(i, k_lo, k_hi, n - i);
}

// rjf: realtime
template <class Ops>
bool quantise_iq16_t(const cfloat* in, std::size_t n, float gain, float levels,
                     IQ16* out) noexcept {
  using Q = typename Ops::Q;
  constexpr std::size_t kRails = sizeof(Q) / sizeof(float);
  static_assert(sizeof(IQ16) == 2 * sizeof(std::int16_t));
  // std::complex<float> is layout-compatible with float[2]: the rails are
  // one contiguous float array, and IQ16 holds them as int16 pairs.
  const float* const rails = reinterpret_cast<const float*>(in);
  std::int16_t* const codes = reinterpret_cast<std::int16_t*>(out);
  typename Ops::QMask clip{};
  const auto pass = [&](const float* x, std::int16_t* to)
                        __attribute__((always_inline)) {
    Q v;
    std::memcpy(&v, x, sizeof v);
    Ops::store_codes(to, adc_code_lanes(v * gain, levels, clip));
  };
  const std::size_t total = 2 * n;
  std::size_t k = 0;
  for (; k + kRails <= total; k += kRails) pass(rails + k, codes + k);
  if (k < total) {
    float tail[kRails] = {};
    std::int16_t tail_codes[kRails];
    std::memcpy(tail, rails + k, (total - k) * sizeof(float));
    pass(tail, tail_codes);
    std::memcpy(codes + k, tail_codes, (total - k) * sizeof(std::int16_t));
  }
  return Ops::any(clip);
}

}  // namespace rjf::dsp::simd
