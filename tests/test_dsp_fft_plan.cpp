// FftPlan regression tests (DESIGN.md section 12).
//
// Accuracy is measured against a direct DFT evaluated in double: the
// legacy per-call transform generated twiddles with a recursive float
// multiply whose rounding drift grew along the butterfly chain, and the
// plan's double-generated tables are what fixed it.  The bounds below are
// expressed in "scaled ulp" — absolute error divided by the ulp of the
// spectrum's largest magnitude — which is the natural unit for FFT error
// (elements produced by heavy cancellation are tiny in absolute terms but
// their error budget is set by the whole vector, not the element).
//
// The SIMD butterfly kernels are compared against the scalar stage bodies
// (dsp/simd/fft_stages_scalar.h) run over an independently built copy of
// the plan's tables; whatever ISA the dispatcher picked, and every other
// tier the host runs, must stay within 4 ulp of the scalar path, on the
// AVX2 CI job and the scalar-only one.
#include "dsp/fft_plan.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "dsp/fft.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/fft_stages_scalar.h"
#include "tests/simd_tiers.h"

namespace rjf::dsp {
namespace {

using cdouble = std::complex<double>;

std::vector<cdouble> direct_dft(const cvec& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<cdouble> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * t % n) /
                           static_cast<double>(n);
      const cdouble tw{std::cos(angle), std::sin(angle)};
      acc += cdouble{x[t].real(), x[t].imag()} * tw;
    }
    out[k] = acc;
  }
  return out;
}

// Max |err| over all re/im components, in units of ulp-at-spectrum-scale.
double scaled_ulp_error(const cvec& got, const std::vector<cdouble>& exact) {
  double peak = 0.0;
  for (const cdouble& e : exact)
    peak = std::max({peak, std::abs(e.real()), std::abs(e.imag())});
  const double ulp = static_cast<double>(peak == 0.0
                                             ? std::numeric_limits<float>::denorm_min()
                                             : std::nextafterf(static_cast<float>(peak),
                                                               std::numeric_limits<float>::infinity()) -
                                                   static_cast<float>(peak));
  double worst = 0.0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    worst = std::max(worst,
                     std::abs(static_cast<double>(got[k].real()) - exact[k].real()));
    worst = std::max(worst,
                     std::abs(static_cast<double>(got[k].imag()) - exact[k].imag()));
  }
  return worst / ulp;
}

// Ordered-integer ulp distance between two floats (0 for -0 vs +0).
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float f) -> std::int64_t {
    const auto u = std::bit_cast<std::uint32_t>(f);
    return (u & 0x80000000u)
               ? -static_cast<std::int64_t>(u & 0x7fffffffu)
               : static_cast<std::int64_t>(u);
  };
  if (!std::isfinite(a) || !std::isfinite(b))
    return std::numeric_limits<std::int64_t>::max();
  return std::abs(ordered(a) - ordered(b));
}

std::size_t bit_reverse(std::size_t v, unsigned bits) {
  std::size_t r = 0;
  for (unsigned b = 0; b < bits; ++b) r |= ((v >> b) & 1u) << (bits - 1 - b);
  return r;
}

unsigned log2_of(std::size_t n) {
  unsigned lg = 0;
  while ((std::size_t{1} << lg) < n) ++lg;
  return lg;
}

cvec bit_reversed(const cvec& in) {
  const unsigned lg = log2_of(in.size());
  cvec x(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) x[bit_reverse(i, lg)] = in[i];
  return x;
}

// Twiddle tables of the radix-4 stage with quarter length L, generated the
// way the plan generates them.
struct StageTwiddles {
  std::vector<float> w1, w2, w3;
};

StageTwiddles stage_twiddles(std::size_t L, bool inverse) {
  StageTwiddles t{std::vector<float>(2 * L), std::vector<float>(2 * L),
                  std::vector<float>(2 * L)};
  const double step = 2.0 * std::numbers::pi / static_cast<double>(4 * L);
  const double s = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < L; ++k) {
    t.w1[2 * k] = static_cast<float>(std::cos(step * static_cast<double>(k)));
    t.w1[2 * k + 1] =
        static_cast<float>(s * std::sin(step * static_cast<double>(k)));
    t.w2[2 * k] =
        static_cast<float>(std::cos(step * static_cast<double>(2 * k)));
    t.w2[2 * k + 1] =
        static_cast<float>(s * std::sin(step * static_cast<double>(2 * k)));
    t.w3[2 * k] =
        static_cast<float>(std::cos(step * static_cast<double>(3 * k)));
    t.w3[2 * k + 1] =
        static_cast<float>(s * std::sin(step * static_cast<double>(3 * k)));
  }
  return t;
}

// Quarter lengths of the radix-4 stages of an n-point plan.
std::vector<std::size_t> stage_quarters(std::size_t n) {
  std::vector<std::size_t> quarters;
  for (std::size_t L = log2_of(n) % 2 != 0 ? 2 : 1; 4 * L <= n; L *= 4)
    quarters.push_back(L);
  return quarters;
}

// Scalar replica of FftPlan::forward/inverse built entirely inside the
// test: same bit-reverse order, same double-generated twiddles, scalar
// stage bodies.  Tables are bit-identical to the plan's by construction,
// so any divergence from FftPlan output is the dispatched kernel's.
cvec scalar_reference_fft(const cvec& in, bool inverse) {
  const std::size_t n = in.size();
  cvec x = bit_reversed(in);
  float* xf = reinterpret_cast<float*>(x.data());
  if (log2_of(n) % 2 != 0) simd::fft_radix2_stage(xf, n);
  for (const std::size_t L : stage_quarters(n)) {
    const StageTwiddles t = stage_twiddles(L, inverse);
    simd::fft_radix4_stage(xf, n, L, t.w1.data(), t.w2.data(), t.w3.data(),
                           inverse);
  }
  return x;
}

void expect_within_4_ulp(const cvec& got, const cvec& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_LE(ulp_distance(got[k].real(), ref[k].real()), 4) << "k=" << k;
    EXPECT_LE(ulp_distance(got[k].imag(), ref[k].imag()), 4) << "k=" << k;
  }
}

using test::host_tiers;

cvec random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  cvec x(n);
  for (auto& s : x) s = rng.complex_gaussian();
  return x;
}

// Satellite: twiddle-drift regression.  Double-DFT comparison at the
// three sizes the rig actually uses (64-pt OFDM symbol, 256/1024-pt
// Welch PSD segments).  The bounds have ~4x headroom over measured error
// but sit far below the drift the recursive-twiddle transform showed.
TEST(FftPlan, MatchesDirectDoubleDftWithinScaledUlp) {
  const struct {
    std::size_t n;
    double bound;
  } cases[] = {{64, 16.0}, {256, 32.0}, {1024, 64.0}};
  for (const auto& c : cases) {
    const cvec x = random_signal(c.n, 0x5eed + c.n);
    const std::vector<cdouble> exact = direct_dft(x, /*inverse=*/false);
    cvec got = x;
    FftPlan::of(c.n).forward(got.data());
    EXPECT_LT(scaled_ulp_error(got, exact), c.bound) << "n=" << c.n;

    const std::vector<cdouble> exact_inv = direct_dft(x, /*inverse=*/true);
    cvec got_inv = x;
    FftPlan::of(c.n).inverse(got_inv.data());
    EXPECT_LT(scaled_ulp_error(got_inv, exact_inv), c.bound)
        << "inverse n=" << c.n;
  }
}

// Tentpole invariant: whatever kernel active_isa() dispatched to must
// stay within 4 ulp of the scalar stage bodies, forward and inverse.
TEST(FftPlan, DispatchedKernelWithin4UlpOfScalarStages) {
  for (const std::size_t n : {64u, 128u, 256u, 1024u}) {
    const cvec x = random_signal(n, 77 + n);
    for (const bool inverse : {false, true}) {
      cvec got = x;
      if (inverse)
        FftPlan::of(n).inverse(got.data());
      else
        FftPlan::of(n).forward(got.data());
      const cvec ref = scalar_reference_fft(x, inverse);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_LE(ulp_distance(got[k].real(), ref[k].real()), 4)
            << simd::isa_name(simd::active_isa()) << " n=" << n
            << " inverse=" << inverse << " k=" << k;
        EXPECT_LE(ulp_distance(got[k].imag(), ref[k].imag()), 4)
            << simd::isa_name(simd::active_isa()) << " n=" << n
            << " inverse=" << inverse << " k=" << k;
      }
    }
  }
}

// Every tier the host runs, not just the one active_isa() picked, at every
// size from 2 points (below any kernel's lane count: scalar stages only)
// to 2048, even and odd log2 n.
TEST(FftPlanTiers, EveryTierWithin4UlpOfScalarStages) {
  constexpr std::uint64_t kSeed = 0x5EED'0021'0FF7u;
  for (const simd::Isa isa : host_tiers()) {
    std::uint64_t stream = 0;
    for (std::size_t n = 2; n <= 2048; n *= 2) {
      for (const bool inverse : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << simd::isa_name(isa) << " n=" << n
                     << " inverse=" << inverse);
        const cvec x = random_signal(n, derive_seed(kSeed, stream++));
        cvec got = x;
        if (inverse)
          FftPlan::of(n).inverse(got.data(), isa);
        else
          FftPlan::of(n).forward(got.data(), isa);
        expect_within_4_ulp(got, scalar_reference_fft(x, inverse));
      }
    }
  }
}

// A vector tier must run its own butterfly kernel, not the scalar stages
// the comparison above is made against. 128 points: a radix-2 pass, then
// radix-4 stages of quarter length 2 (below the AVX2 kernel's 4 complex
// lanes), 8 and 32.
TEST(FftPlanTiers, EveryVectorTierRunsItsKernel) {
  constexpr std::size_t kN = 128;
  for (const simd::Isa isa : host_tiers()) {
    for (const bool inverse : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << simd::isa_name(isa) << " inverse=" << inverse);
      std::vector<StageTwiddles> tables;
      std::vector<simd::FftStageView> views;
      for (const std::size_t L : stage_quarters(kN))
        tables.push_back(stage_twiddles(L, inverse));
      for (const StageTwiddles& t : tables)
        views.push_back({t.w1.size() / 2, t.w1.data(), t.w2.data(),
                         t.w3.data()});
      const simd::FftKernelRun run{kN, true, inverse, views.data(),
                                   views.size()};
      const cvec x = random_signal(kN, 0x128 + (inverse ? 1 : 0));
      cvec got = bit_reversed(x);
      EXPECT_EQ(simd::fft_exec(isa, run, reinterpret_cast<float*>(got.data())),
                isa != simd::Isa::kScalar);
      if (isa != simd::Isa::kScalar)
        expect_within_4_ulp(got, scalar_reference_fft(x, inverse));
    }
  }
}

// Satellite: the plan owns the one bit-reverse permutation in the tree
// (fft()/psd.cpp route through it).  permute() must BE the plain
// bit-reversal and be an involution.
TEST(FftPlan, PermuteIsPlainBitReversal) {
  for (const std::size_t n : {8u, 64u, 128u, 1024u}) {
    unsigned lg = 0;
    while ((std::size_t{1} << lg) < n) ++lg;
    cvec x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = cfloat{static_cast<float>(i), 0.0f};
    const FftPlan& plan = FftPlan::of(n);
    cvec p = x;
    plan.permute(p.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(static_cast<std::size_t>(p[i].real()), bit_reverse(i, lg))
          << "n=" << n << " i=" << i;
    plan.permute(p.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(p[i].real(), x[i].real()) << "involution n=" << n;
  }
}

// fft()/ifft() are thin wrappers over the plan; the pair must still
// round-trip (guards the wrapper's 1/N scaling against plan changes).
TEST(FftPlan, WrapperRoundTripsThroughPlan) {
  cvec x = random_signal(512, 1234);
  const cvec orig = x;
  fft(x);
  ifft(x);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(x[k].real(), orig[k].real(), 1e-4f);
    EXPECT_NEAR(x[k].imag(), orig[k].imag(), 1e-4f);
  }
}

}  // namespace
}  // namespace rjf::dsp
