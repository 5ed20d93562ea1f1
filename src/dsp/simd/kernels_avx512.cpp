// AVX-512 kernels: the batched correlator metric (dsp/simd/xcorr.h), the
// batched energy detector (dsp/simd/energy.h) and the capture synthesis
// kernels and ADC quantiser (dsp/simd/synth.h). This TU is the only one
// compiled with -mavx512f -mavx512vpopcntdq; when the toolchain lacks them
// (or RJF_ENABLE_SIMD is OFF) it only provides the nullptr accessors and
// the dispatchers fall through to the AVX2 kernels.
//
// Correlator: eight 64-bit lanes hold eight successive sign histories per
// rail (see xcorr_kernel_impl.h); each of the four sign/plane dot products
// is three AND + vpopcntq passes over them, so 12 vector popcounts serve 8
// samples where step() does 96 scalar ones.
//
// Energy detector: eight samples per pass, one per 64-bit lane, with the
// unsigned 64-bit compares AVX512F has.
#include "dsp/simd/energy.h"
#include "dsp/simd/synth.h"
#include "dsp/simd/xcorr.h"

#if defined(RJF_SIMD_HAVE_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512VPOPCNTDQ__)

// GCC 12's AVX-512 intrinsics seed their shift, convert and insert helpers
// from an undefined vector, which -Wmaybe-uninitialized and -Wuninitialized
// misreport (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "dsp/simd/energy_kernel_impl.h"
#include "dsp/simd/synth_kernels_impl.h"
#include "dsp/simd/xcorr_kernel_impl.h"

namespace rjf::dsp::simd {
namespace {

// Lane view of one coefficient bank: its three broadcast bit-planes and
// its coefficient sum.
struct Bank {
  __m512i b0, b1, b2, sum;
};

Bank broadcast(const std::uint64_t (&planes)[3], std::int64_t sum) noexcept {
  return {_mm512_set1_epi64(static_cast<long long>(planes[0])),
          _mm512_set1_epi64(static_cast<long long>(planes[1])),
          _mm512_set1_epi64(static_cast<long long>(planes[2])),
          _mm512_set1_epi64(sum)};
}

// Per lane: sum_k sign[k] * coef[k] with sign = 1 - 2*neg, i.e.
// coef_sum - 2 * (n0 + 2*n1 - 4*n2) over the plane popcounts.
__m512i dot(__m512i neg, const Bank& p) noexcept {
  const __m512i n0 = _mm512_popcnt_epi64(_mm512_and_si512(neg, p.b0));
  const __m512i n1 = _mm512_popcnt_epi64(_mm512_and_si512(neg, p.b1));
  const __m512i n2 = _mm512_popcnt_epi64(_mm512_and_si512(neg, p.b2));
  const __m512i neg_sum = _mm512_sub_epi64(
      _mm512_add_epi64(n0, _mm512_slli_epi64(n1, 1)), _mm512_slli_epi64(n2, 2));
  return _mm512_sub_epi64(p.sum, _mm512_slli_epi64(neg_sum, 1));
}

struct Avx512Ops {
  static constexpr std::size_t kGather = 16;
  static constexpr std::size_t kLanes = 8;

  struct Template {
    explicit Template(const XcorrPlanes& p) noexcept
        : i(broadcast(p.i, p.sum_i)), q(broadcast(p.q, p.sum_q)) {}
    Bank i, q;
  };

  // IQ16 is {int16 i, int16 q}: in each 32-bit lane, bit 15 is the I sign
  // and bit 31 the Q sign. The masked load reads only the live samples.
  static SignWords signs(const IQ16* rx, std::size_t live) noexcept {
    const auto mask = static_cast<__mmask16>((1u << live) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi32(mask, rx);
    return {_mm512_test_epi32_mask(v, _mm512_set1_epi32(0x8000)),
            _mm512_test_epi32_mask(
                v, _mm512_set1_epi32(static_cast<int>(0x80000000u)))};
  }

  static void metrics(const Template& t, SignWords h, SignWords x,
                      std::size_t c0, std::uint32_t* out,
                      std::size_t live) noexcept {
    const __m512i c =
        _mm512_add_epi64(_mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8),
                         _mm512_set1_epi64(static_cast<long long>(c0)));
    const __m512i rest = _mm512_sub_epi64(_mm512_set1_epi64(64), c);
    const __m512i ni = _mm512_or_si512(
        _mm512_sllv_epi64(_mm512_set1_epi64(static_cast<long long>(h.i)), c),
        _mm512_srlv_epi64(_mm512_set1_epi64(static_cast<long long>(x.i)),
                          rest));
    const __m512i nq = _mm512_or_si512(
        _mm512_sllv_epi64(_mm512_set1_epi64(static_cast<long long>(h.q)), c),
        _mm512_srlv_epi64(_mm512_set1_epi64(static_cast<long long>(x.q)),
                          rest));
    // s * conj(c): re = <si,ci> + <sq,cq>, im = <sq,ci> - <si,cq>.
    const __m512i re = _mm512_add_epi64(dot(ni, t.i), dot(nq, t.q));
    const __m512i im = _mm512_sub_epi64(dot(nq, t.i), dot(ni, t.q));
    // |re|, |im| <= 1024, so the low dwords hold them exactly and the
    // signed 32x32->64 products are the squares; the truncating store is
    // the 32-bit metric register.
    const __m512i m = _mm512_add_epi64(_mm512_mul_epi32(re, re),
                                       _mm512_mul_epi32(im, im));
    const auto mask = static_cast<__mmask8>((1u << live) - 1u);
    _mm512_mask_cvtepi64_storeu_epi32(out, mask, m);
  }
};

// The energy detector at zmm width (energy_kernel_impl.h).
struct Avx512EnergyOps {
  static constexpr std::size_t kLanes = 8;

  struct State {
    State(const EnergyComparators& c, std::uint64_t sum) noexcept
        : high(_mm512_set1_epi64(c.thresh_high_q88)),
          low(_mm512_set1_epi64(c.thresh_low_q88)),
          floor(_mm512_set1_epi64(c.floor)),
          sum(_mm512_set1_epi64(static_cast<long long>(sum))) {}
    __m512i high, low, floor;
    __m512i sum;  // the running sum, in every lane
  };

  // Per lane: (a << 8) > t * b, exact (see energy_kernel_impl.h).
  static __mmask8 above(__m512i a, __m512i b, __m512i t) noexcept {
    const __m512i shifted = _mm512_slli_epi64(a, 8);
    const __m512i p_lo = _mm512_mul_epu32(t, b);
    const __m512i p_hi = _mm512_mul_epu32(t, _mm512_srli_epi64(b, 32));
    const __m512i rest = _mm512_srli_epi64(
        _mm512_sub_epi64(_mm512_sub_epi64(shifted, p_lo),
                         _mm512_set1_epi64(1)),
        32);
    return _mm512_cmplt_epu64_mask(p_lo, shifted) &
           _mm512_cmpge_epu64_mask(rest, p_hi);
  }

  static void pass(State& st, const IQ16* rx, std::size_t live,
                   const std::uint64_t* old, std::uint64_t* x,
                   const std::uint64_t* ref, std::uint64_t* y,
                   std::uint64_t& high, std::uint64_t& low) noexcept {
    const auto m = static_cast<__mmask8>((1u << live) - 1u);
    // IQ16 is {int16 i, int16 q}: vpmaddwd gives i*i + q*q per 32-bit
    // lane. Only full-scale-negative I and Q reach 2^31, which the signed
    // dword wraps and the zero extension restores. Dead lanes load zeros,
    // so their steps are 0 and the last lane holds the run's sum.
    const __m256i v = _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(
        static_cast<__mmask16>((1u << live) - 1u), rx));
    const __m512i p = _mm512_cvtepu32_epi64(_mm256_madd_epi16(v, v));
    _mm512_mask_storeu_epi64(x, m, p);
    __m512i s = _mm512_sub_epi64(p, _mm512_maskz_loadu_epi64(m, old));
    // Prefix sum across the lanes: add the lanes 1, 2 and 4 below.
    const __m512i zero = _mm512_setzero_si512();
    s = _mm512_add_epi64(s, _mm512_alignr_epi64(s, zero, 7));
    s = _mm512_add_epi64(s, _mm512_alignr_epi64(s, zero, 6));
    s = _mm512_add_epi64(s, _mm512_alignr_epi64(s, zero, 4));
    const __m512i now = _mm512_add_epi64(s, st.sum);
    st.sum = _mm512_permutexvar_epi64(_mm512_set1_epi64(7), now);
    _mm512_mask_storeu_epi64(y, m, now);

    const __m512i then = _mm512_maskz_loadu_epi64(m, ref);
    high = m & _mm512_cmpgt_epu64_mask(now, st.floor) &
           above(now, then, st.high);
    low = m & _mm512_cmpgt_epu64_mask(then, st.floor) &
          above(then, now, st.low);
  }
};

// The capture synthesis kernels and the ADC quantiser at zmm width
// (synth_kernels_impl.h). The CFO mix takes 16 samples per pass, their
// phases in two vectors of 8 double lanes.
struct Avx512SynthOps {
  // Plain GCC vector types: __m512d and __m512 carry may_alias, which a
  // template argument (QuarterTurns<D>, CosSin<F>) would drop.
  using D = double __attribute__((vector_size(64)));
  using F = float __attribute__((vector_size(64)));
  using U = std::uint32_t __attribute__((vector_size(64)));
  static constexpr std::size_t kLanes = 16;

  // even() and odd() leave samples 2j, 2j+1, 8+2j, 9+2j in 128-bit lane j.
  static void first_k(D& lo, D& hi) noexcept {
    lo = _mm512_setr_pd(0, 1, 8, 9, 2, 3, 10, 11);
    hi = _mm512_setr_pd(4, 5, 12, 13, 6, 7, 14, 15);
  }
  static F to_float(D lo, D hi) noexcept {
    return _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_castps_pd(_mm512_cvtpd_ps(lo))),
        _mm256_castps_pd(_mm512_cvtpd_ps(hi)), 1));
  }
  // vpmovqd: the low 32 bits of each 64-bit lane.
  static U low_words(D lo, D hi) noexcept {
    return reinterpret_cast<U>(_mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_castpd_si512(lo))),
        _mm512_cvtepi64_epi32(_mm512_castpd_si512(hi)), 1));
  }
  static F even(F f0, F f1) noexcept {
    return _mm512_shuffle_ps(f0, f1, _MM_SHUFFLE(2, 0, 2, 0));
  }
  static F odd(F f0, F f1) noexcept {
    return _mm512_shuffle_ps(f0, f1, _MM_SHUFFLE(3, 1, 3, 1));
  }
  static F interleave_lo(F re, F im) noexcept {
    return _mm512_unpacklo_ps(re, im);
  }
  static F interleave_hi(F re, F im) noexcept {
    return _mm512_unpackhi_ps(re, im);
  }
  static __mmask16 mask(std::size_t count) noexcept {
    return static_cast<__mmask16>((1u << count) - 1u);
  }
  static F load(const float* p, std::size_t count) noexcept {
    return _mm512_maskz_loadu_ps(mask(count), p);
  }
  static void store(float* p, F v, std::size_t count) noexcept {
    _mm512_mask_storeu_ps(p, mask(count), v);
  }

  // The quantiser: 16 rails per pass. vpmovdw truncates each code to its
  // low 16 bits, which hold it whole ([-32768, 32767]).
  using Q = F;
  using QMask = std::int32_t __attribute__((vector_size(64)));
  static void store_codes(std::int16_t* to, Q code) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(to),
                        _mm512_cvtepi32_epi16(_mm512_cvttps_epi32(code)));
  }
  static bool any(QMask clip) noexcept {
    const auto v = reinterpret_cast<__m512i>(clip);
    return _mm512_test_epi32_mask(v, v) != 0;
  }
};

}  // namespace

XcorrBlockFn detail::xcorr_block_avx512() noexcept {
  return &xcorr_block_t<Avx512Ops>;
}

EnergyBlockFn detail::energy_block_avx512() noexcept {
  return &energy_block_t<Avx512EnergyOps>;
}

NoiseBlockFn detail::noise_block_avx512() noexcept {
  return &noise_block_t<Avx512SynthOps>;
}

detail::CfoMixFn detail::cfo_mix_avx512() noexcept {
  return &cfo_mix_t<Avx512SynthOps>;
}

QuantiseFn detail::quantise_iq16_avx512() noexcept {
  return &quantise_iq16_t<Avx512SynthOps>;
}

}  // namespace rjf::dsp::simd

#else

namespace rjf::dsp::simd {

XcorrBlockFn detail::xcorr_block_avx512() noexcept { return nullptr; }
EnergyBlockFn detail::energy_block_avx512() noexcept { return nullptr; }
NoiseBlockFn detail::noise_block_avx512() noexcept { return nullptr; }
detail::CfoMixFn detail::cfo_mix_avx512() noexcept { return nullptr; }
QuantiseFn detail::quantise_iq16_avx512() noexcept { return nullptr; }

}  // namespace rjf::dsp::simd

#endif
