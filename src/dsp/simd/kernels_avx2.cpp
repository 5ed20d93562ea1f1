// AVX2 instantiations of the SIMD DSP kernels.  This TU is the only one
// compiled with -mavx2; the Ops structs live in an anonymous namespace so
// the templates instantiate with TU-unique types (no ODR overlap with
// code built with other -m flags).  When the toolchain lacks -mavx2 (or
// RJF_ENABLE_SIMD is OFF), the entry points compile as stubs returning
// false and the caller runs its scalar reference.
#include "dsp/simd/energy.h"
#include "dsp/simd/fft_kernels.h"
#include "dsp/simd/synth.h"
#include "dsp/simd/viterbi.h"
#include "dsp/simd/xcorr.h"

#if defined(RJF_SIMD_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "dsp/simd/energy_kernel_impl.h"
#include "dsp/simd/fft_kernels_impl.h"
#include "dsp/simd/synth_kernels_impl.h"
#include "dsp/simd/viterbi_kernels_impl.h"
#include "dsp/simd/xcorr_kernel_impl.h"

namespace rjf::dsp::simd {
namespace {

struct AvxOps {
  using u8v = __m256i;
  static constexpr std::size_t kU8Lanes = 32;
  static u8v loadu8(const std::uint8_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu8(std::uint8_t* p, u8v v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static u8v set1u8(std::uint8_t x) noexcept {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static u8v addsu8(u8v a, u8v b) noexcept { return _mm256_adds_epu8(a, b); }
  static u8v subsu8(u8v a, u8v b) noexcept { return _mm256_subs_epu8(a, b); }
  static u8v minu8(u8v a, u8v b) noexcept { return _mm256_min_epu8(a, b); }
  static u8v cmpequ8(u8v a, u8v b) noexcept { return _mm256_cmpeq_epi8(a, b); }
  static unsigned movemasku8(u8v v) noexcept {
    return static_cast<unsigned>(_mm256_movemask_epi8(v));
  }
  // In-order duplication of one half of the register: byte indices that
  // repeat each byte, applied after broadcasting the chosen 128-bit half
  // to both lanes (shuffle_epi8 indexes within each 128-bit lane, so the
  // upper output lane picks bytes 8..15 of the same half).
  static __m256i dup_idx() noexcept {
    return _mm256_setr_epi8(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7,
                            8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14,
                            14, 15, 15);
  }
  static u8v dup_low8(u8v v) noexcept {
    return _mm256_shuffle_epi8(_mm256_permute4x64_epi64(v, 0x44), dup_idx());
  }
  static u8v dup_high8(u8v v) noexcept {
    return _mm256_shuffle_epi8(_mm256_permute4x64_epi64(v, 0xEE), dup_idx());
  }

  using f32v = __m256;
  static constexpr std::size_t kF32Lanes = 8;
  static f32v loaduf(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void storeuf(float* p, f32v v) noexcept { _mm256_storeu_ps(p, v); }
  static f32v set1f(float x) noexcept { return _mm256_set1_ps(x); }
  static f32v addf(f32v a, f32v b) noexcept { return _mm256_add_ps(a, b); }
  static f32v subf(f32v a, f32v b) noexcept { return _mm256_sub_ps(a, b); }
  static f32v minf(f32v a, f32v b) noexcept { return _mm256_min_ps(a, b); }
  static f32v cmpltf(f32v a, f32v b) noexcept {
    return _mm256_cmp_ps(a, b, _CMP_LT_OQ);
  }
  static f32v blendf(f32v a, f32v b, f32v mask) noexcept {
    return _mm256_blendv_ps(a, b, mask);
  }
  static unsigned movemaskf(f32v v) noexcept {
    return static_cast<unsigned>(_mm256_movemask_ps(v));
  }
  static void dupf(f32v v, f32v& lo, f32v& hi) noexcept {
    const __m256 a = _mm256_unpacklo_ps(v, v);
    const __m256 b = _mm256_unpackhi_ps(v, v);
    lo = _mm256_permute2f128_ps(a, b, 0x20);
    hi = _mm256_permute2f128_ps(a, b, 0x31);
  }

  static constexpr std::size_t kComplexLanes = 4;
  // (ar*br - ai*bi, ai*br + ar*bi) via addsub: even lanes subtract,
  // odd lanes add — same multiply/add sequence as the scalar stages.
  static f32v cmul(f32v a, f32v b) noexcept {
    const __m256 br = _mm256_moveldup_ps(b);
    const __m256 bi = _mm256_movehdup_ps(b);
    const __m256 asw = _mm256_permute_ps(a, 0xB1);  // (ai, ar) pairs
    return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, bi));
  }
  static f32v mul_i(f32v v) noexcept {
    const __m256 sw = _mm256_permute_ps(v, 0xB1);  // (im, re) pairs
    const __m256 sign = _mm256_setr_ps(-0.0f, 0.0f, -0.0f, 0.0f,
                                       -0.0f, 0.0f, -0.0f, 0.0f);
    return _mm256_xor_ps(sw, sign);  // (-im, re) = i*v
  }
};

// The batched correlator kernel at ymm width (xcorr_kernel_impl.h): four
// successive histories per rail per pass. AVX2 has no vector popcount, so
// each sign/plane AND is counted per byte from a vpshufb nibble table, the
// plane weights (+1, +2, -4) and the dot products of re and im are combined
// per byte, and one vpsadbw per lane sums the bytes.
struct AvxXcorrOps {
  static constexpr std::size_t kGather = 8;
  static constexpr std::size_t kLanes = 4;

  // Each byte of a 64-bit lane split into its low and high nibbles.
  struct Nibbles {
    __m256i lo, hi;
  };
  static Nibbles split(__m256i v) noexcept {
    const __m256i low4 = _mm256_set1_epi8(0x0F);
    return {_mm256_and_si256(v, low4),
            _mm256_and_si256(_mm256_srli_epi64(v, 4), low4)};
  }

  struct Template {
    explicit Template(const XcorrPlanes& p) noexcept
        // re = sum_i + sum_q - 2*neg_sum_re and the byte sums below carry
        // a +512 lift per lane (8 bytes x 64), hence the +1024.
        : re_bias(_mm256_set1_epi64x(p.sum_i + p.sum_q + 1024)),
          im_bias(_mm256_set1_epi64x(p.sum_i - p.sum_q + 1024)) {
      for (std::size_t k = 0; k < 3; ++k) {
        i[k] = split(_mm256_set1_epi64x(static_cast<long long>(p.i[k])));
        q[k] = split(_mm256_set1_epi64x(static_cast<long long>(p.q[k])));
      }
    }
    Nibbles i[3], q[3];
    __m256i re_bias, im_bias;
  };

  // Per byte: popcount(neg & plane).
  static __m256i count(const Nibbles& neg, const Nibbles& plane) noexcept {
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                         2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                                         1, 2, 2, 3, 2, 3, 3, 4);
    return _mm256_add_epi8(
        _mm256_shuffle_epi8(lut, _mm256_and_si256(neg.lo, plane.lo)),
        _mm256_shuffle_epi8(lut, _mm256_and_si256(neg.hi, plane.hi)));
  }

  // Per byte: n0 + 2*n1 - 4*n2 of one dot product's negative taps, in
  // [-32, 24] (two's complement in the byte).
  static __m256i weighted(const Nibbles& neg,
                          const Nibbles (&bank)[3]) noexcept {
    const __m256i n1 = count(neg, bank[1]);
    const __m256i n2 = count(neg, bank[2]);
    const __m256i n2x2 = _mm256_add_epi8(n2, n2);
    return _mm256_sub_epi8(
        _mm256_add_epi8(count(neg, bank[0]), _mm256_add_epi8(n1, n1)),
        _mm256_add_epi8(n2x2, n2x2));
  }

  // Per lane: the sum of its 8 bytes, each lifted by 64 out of [-64, 56]
  // so vpsadbw can add them unsigned.
  static __m256i lane_sum(__m256i bytes) noexcept {
    return _mm256_sad_epu8(_mm256_add_epi8(bytes, _mm256_set1_epi8(64)),
                           _mm256_setzero_si256());
  }

  // IQ16 is {int16 i, int16 q}: movemask_ps reads bit 31 of each 32-bit
  // lane, the Q sign, and after a 16-bit shift the I sign. The masked load
  // reads only the live samples.
  static SignWords signs(const IQ16* rx, std::size_t live) noexcept {
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256i v =
        _mm256_maskload_epi32(reinterpret_cast<const int*>(rx), mask);
    return {static_cast<std::uint64_t>(_mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_slli_epi32(v, 16)))),
            static_cast<std::uint64_t>(
                _mm256_movemask_ps(_mm256_castsi256_ps(v)))};
  }

  static void metrics(const Template& t, SignWords h, SignWords x,
                      std::size_t c0, std::uint32_t* out,
                      std::size_t live) noexcept {
    const __m256i c =
        _mm256_add_epi64(_mm256_setr_epi64x(1, 2, 3, 4),
                         _mm256_set1_epi64x(static_cast<long long>(c0)));
    const __m256i rest = _mm256_sub_epi64(_mm256_set1_epi64x(64), c);
    const Nibbles ni = split(_mm256_or_si256(
        _mm256_sllv_epi64(_mm256_set1_epi64x(static_cast<long long>(h.i)), c),
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(x.i)),
                          rest)));
    const Nibbles nq = split(_mm256_or_si256(
        _mm256_sllv_epi64(_mm256_set1_epi64x(static_cast<long long>(h.q)), c),
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(x.q)),
                          rest)));
    // s * conj(c): re = <si,ci> + <sq,cq>, im = <sq,ci> - <si,cq>. Their
    // negative-tap sums per byte lie in [-64, 48] and [-56, 56].
    const __m256i re_neg = lane_sum(
        _mm256_add_epi8(weighted(ni, t.i), weighted(nq, t.q)));
    const __m256i im_neg = lane_sum(
        _mm256_sub_epi8(weighted(nq, t.i), weighted(ni, t.q)));
    const __m256i re =
        _mm256_sub_epi64(t.re_bias, _mm256_add_epi64(re_neg, re_neg));
    const __m256i im =
        _mm256_sub_epi64(t.im_bias, _mm256_add_epi64(im_neg, im_neg));
    // |re|, |im| <= 1024: the low dwords hold them exactly, and the low
    // dword of each square is the 32-bit metric register.
    const __m256i m = _mm256_add_epi64(_mm256_mul_epi32(re, re),
                                       _mm256_mul_epi32(im, im));
    const __m128i packed = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        m, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
    const __m128i mask = _mm_cmpgt_epi32(
        _mm_set1_epi32(static_cast<int>(live)), _mm_setr_epi32(0, 1, 2, 3));
    _mm_maskstore_epi32(reinterpret_cast<int*>(out), mask, packed);
  }
};

// The energy detector at ymm width (energy_kernel_impl.h): four samples per
// pass, one per 64-bit lane. AVX2 compares 64-bit lanes signed only; every
// operand but the low product stays below 2^63, and that one is compared
// with the sign bit flipped on both sides.
struct AvxEnergyOps {
  static constexpr std::size_t kLanes = 4;

  struct State {
    State(const EnergyComparators& c, std::uint64_t sum) noexcept
        : high(_mm256_set1_epi64x(c.thresh_high_q88)),
          low(_mm256_set1_epi64x(c.thresh_low_q88)),
          floor(_mm256_set1_epi64x(c.floor)),
          sum(_mm256_set1_epi64x(static_cast<long long>(sum))) {}
    __m256i high, low, floor;
    __m256i sum;  // the running sum, in every lane
  };

  // Per lane, all ones where (a << 8) > t * b, exact (see
  // energy_kernel_impl.h).
  static __m256i above(__m256i a, __m256i b, __m256i t) noexcept {
    const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
    const __m256i shifted = _mm256_slli_epi64(a, 8);
    const __m256i p_lo = _mm256_mul_epu32(t, b);
    const __m256i p_hi = _mm256_mul_epu32(t, _mm256_srli_epi64(b, 32));
    const __m256i rest = _mm256_srli_epi64(
        _mm256_sub_epi64(_mm256_sub_epi64(shifted, p_lo),
                         _mm256_set1_epi64x(1)),
        32);
    const __m256i lo_below = _mm256_cmpgt_epi64(
        _mm256_xor_si256(shifted, sign), _mm256_xor_si256(p_lo, sign));
    return _mm256_andnot_si256(_mm256_cmpgt_epi64(p_hi, rest), lo_below);
  }

  static std::uint64_t bits(__m256i v) noexcept {
    return static_cast<std::uint64_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(v)));
  }

  static void pass(State& st, const IQ16* rx, std::size_t live,
                   const std::uint64_t* old, std::uint64_t* x,
                   const std::uint64_t* ref, std::uint64_t* y,
                   std::uint64_t& high, std::uint64_t& low) noexcept {
    // Masked moves only on a short last pass: vpmaskmov is slow on some
    // cores.
    const bool full = live == kLanes;
    const __m256i m =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                           _mm256_setr_epi64x(0, 1, 2, 3));
    const auto load = [&](const std::uint64_t* from) noexcept {
      const auto* at = reinterpret_cast<const long long*>(from);
      return full ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at))
                  : _mm256_maskload_epi64(at, m);
    };
    const auto store = [&](std::uint64_t* to, __m256i v) noexcept {
      auto* at = reinterpret_cast<long long*>(to);
      if (full)
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(at), v);
      else
        _mm256_maskstore_epi64(at, m, v);
    };
    // IQ16 is {int16 i, int16 q}: vpmaddwd gives i*i + q*q per 32-bit
    // lane. Only full-scale-negative I and Q reach 2^31, which the signed
    // dword wraps and the zero extension restores. Dead lanes load zeros,
    // so their steps are 0 and the last lane holds the run's sum.
    const __m128i v =
        full ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(rx))
             : _mm_maskload_epi32(
                   reinterpret_cast<const int*>(rx),
                   _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(live)),
                                   _mm_setr_epi32(0, 1, 2, 3)));
    const __m256i p = _mm256_cvtepu32_epi64(_mm_madd_epi16(v, v));
    store(x, p);
    __m256i s = _mm256_sub_epi64(p, load(old));
    // Prefix sum across the lanes: add the lane below, then the two below.
    s = _mm256_add_epi64(
        s, _mm256_blend_epi32(_mm256_permute4x64_epi64(s, 0x90),
                              _mm256_setzero_si256(), 0x03));
    s = _mm256_add_epi64(s, _mm256_permute2x128_si256(s, s, 0x08));
    const __m256i now = _mm256_add_epi64(s, st.sum);
    st.sum = _mm256_permute4x64_epi64(now, 0xFF);
    store(y, now);

    const __m256i then = load(ref);
    const std::uint64_t lanes = bits(m);
    high = lanes &
           bits(_mm256_and_si256(_mm256_cmpgt_epi64(now, st.floor),
                                 above(now, then, st.high)));
    low = lanes & bits(_mm256_and_si256(_mm256_cmpgt_epi64(then, st.floor),
                                        above(then, now, st.low)));
  }
};

// The capture synthesis kernels and the ADC quantiser at ymm width
// (synth_kernels_impl.h). The CFO mix takes 8 samples per pass, their
// phases in two vectors of 4 double lanes.
struct AvxSynthOps {
  // Plain GCC vector types: __m256d and __m256 carry may_alias, which a
  // template argument (QuarterTurns<D>, CosSin<F>) would drop.
  using D = double __attribute__((vector_size(32)));
  using F = float __attribute__((vector_size(32)));
  using U = std::uint32_t __attribute__((vector_size(32)));
  static constexpr std::size_t kLanes = 8;

  // even() and odd() leave samples 0, 1, 4, 5 in the low 128-bit lane and
  // 2, 3, 6, 7 in the high one.
  static void first_k(D& lo, D& hi) noexcept {
    lo = _mm256_setr_pd(0, 1, 4, 5);
    hi = _mm256_setr_pd(2, 3, 6, 7);
  }
  static F to_float(D lo, D hi) noexcept {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                                _mm256_cvtpd_ps(hi), 1);
  }
  // The low 32 bits of each 64-bit lane.
  static __m128 low_words(D v) noexcept {
    return _mm_shuffle_ps(_mm_castpd_ps(_mm256_castpd256_pd128(v)),
                          _mm_castpd_ps(_mm256_extractf128_pd(v, 1)),
                          _MM_SHUFFLE(2, 0, 2, 0));
  }
  static U low_words(D lo, D hi) noexcept {
    return reinterpret_cast<U>(_mm256_insertf128_ps(
        _mm256_castps128_ps256(low_words(lo)), low_words(hi), 1));
  }
  static F even(F f0, F f1) noexcept {
    return _mm256_shuffle_ps(f0, f1, _MM_SHUFFLE(2, 0, 2, 0));
  }
  static F odd(F f0, F f1) noexcept {
    return _mm256_shuffle_ps(f0, f1, _MM_SHUFFLE(3, 1, 3, 1));
  }
  static F interleave_lo(F re, F im) noexcept {
    return _mm256_unpacklo_ps(re, im);
  }
  static F interleave_hi(F re, F im) noexcept {
    return _mm256_unpackhi_ps(re, im);
  }
  static __m256i mask(std::size_t count) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static F load(const float* p, std::size_t count) noexcept {
    return count == kLanes ? _mm256_loadu_ps(p)
                           : _mm256_maskload_ps(p, mask(count));
  }
  static void store(float* p, F v, std::size_t count) noexcept {
    if (count == kLanes)
      _mm256_storeu_ps(p, v);
    else
      _mm256_maskstore_ps(p, mask(count), v);
  }

  // The quantiser: 8 rails per pass. Each code lies in [-32768, 32767], so
  // the saturating pack keeps it as it is.
  using Q = F;
  using QMask = std::int32_t __attribute__((vector_size(32)));
  static void store_codes(std::int16_t* to, Q code) noexcept {
    const __m256i c = _mm256_cvttps_epi32(code);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(to),
                     _mm_packs_epi32(_mm256_castsi256_si128(c),
                                     _mm256_extracti128_si256(c, 1)));
  }
  static bool any(QMask clip) noexcept {
    const auto v = reinterpret_cast<__m256i>(clip);
    return _mm256_testz_si256(v, v) == 0;
  }
};

}  // namespace

namespace detail {

bool viterbi_hard_avx2(const std::uint8_t* coded, std::size_t n_steps,
                       std::uint64_t* survivors, std::uint16_t* final_metrics) {
  viterbi_hard_acs_t<AvxOps>(coded, n_steps, survivors, final_metrics);
  return true;
}

bool viterbi_soft_avx2(const float* llrs, std::size_t n_steps,
                       std::uint64_t* survivors, float* final_metrics) {
  viterbi_soft_acs_t<AvxOps>(llrs, n_steps, survivors, final_metrics);
  return true;
}

bool fft_exec_avx2(const FftKernelRun& run, float* x) {
  fft_exec_t<AvxOps>(run, x);
  return true;
}

XcorrBlockFn xcorr_block_avx2() noexcept {
  return &xcorr_block_t<AvxXcorrOps>;
}

EnergyBlockFn energy_block_avx2() noexcept {
  return &energy_block_t<AvxEnergyOps>;
}

NoiseBlockFn noise_block_avx2() noexcept { return &noise_block_t<AvxSynthOps>; }

CfoMixFn cfo_mix_avx2() noexcept { return &cfo_mix_t<AvxSynthOps>; }

QuantiseFn quantise_iq16_avx2() noexcept {
  return &quantise_iq16_t<AvxSynthOps>;
}

}  // namespace detail
}  // namespace rjf::dsp::simd

#else  // no AVX2 build

namespace rjf::dsp::simd::detail {

bool viterbi_hard_avx2(const std::uint8_t*, std::size_t, std::uint64_t*,
                       std::uint16_t*) {
  return false;
}

bool viterbi_soft_avx2(const float*, std::size_t, std::uint64_t*, float*) {
  return false;
}

bool fft_exec_avx2(const FftKernelRun&, float*) { return false; }

XcorrBlockFn xcorr_block_avx2() noexcept { return nullptr; }
EnergyBlockFn energy_block_avx2() noexcept { return nullptr; }
NoiseBlockFn noise_block_avx2() noexcept { return nullptr; }
CfoMixFn cfo_mix_avx2() noexcept { return nullptr; }
QuantiseFn quantise_iq16_avx2() noexcept { return nullptr; }

}  // namespace rjf::dsp::simd::detail

#endif
