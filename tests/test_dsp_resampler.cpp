#include "dsp/resampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "core/detection_experiment.h"
#include "dsp/db.h"
#include "dsp/rng.h"

namespace rjf::dsp {
namespace {

cvec tone(double freq_hz, double rate_hz, std::size_t n) {
  cvec x(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double p = 2.0 * std::numbers::pi * freq_hz * k / rate_hz;
    x[k] = cfloat{static_cast<float>(std::cos(p)), static_cast<float>(std::sin(p))};
  }
  return x;
}

TEST(Resampler, RejectsNonPositiveRates) {
  EXPECT_THROW(Resampler(0.0, 25e6), std::invalid_argument);
  EXPECT_THROW(Resampler(20e6, -1.0), std::invalid_argument);
  // Non-finite and fractional-Hz rates are rejected up front: a NaN rate
  // would otherwise reach a floor(NaN) to size_t cast.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf, 20e6 + 0.5}) {
    EXPECT_THROW(Resampler(bad, 25e6), std::invalid_argument) << bad;
    EXPECT_THROW(Resampler(25e6, bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)resample_reference({}, bad, 25e6), std::invalid_argument)
        << bad;
  }
  const Resampler rs(20e6, 25e6);
  const cvec in(64, cfloat{1.0f, 0.0f});
  for (const double bad : {-0.1, 1.0, kNan}) {
    EXPECT_THROW((void)rs.resample(in, bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)rs.resample({}, bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)resample_reference(in, 20e6, 25e6, bad),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Resampler, OutputLengthMatchesRatio) {
  const Resampler rs(20e6, 25e6);
  EXPECT_EQ(rs.resample(cvec(1000)).size(), 1250u);
  const Resampler down(25e6, 20e6);
  EXPECT_EQ(down.resample(cvec(1000)).size(), 800u);
}

TEST(Resampler, EmptyInput) {
  const Resampler rs(20e6, 25e6);
  EXPECT_TRUE(rs.resample({}).empty());
}

struct RatioCase {
  double in_rate;
  double out_rate;
};

class ResamplerRatio : public ::testing::TestWithParam<RatioCase> {};

TEST_P(ResamplerRatio, TonePreservedThroughConversion) {
  const auto [in_rate, out_rate] = GetParam();
  const double f = 1e6;  // well inside both Nyquist zones
  const cvec in = tone(f, in_rate, 4000);
  const cvec out = resample(in, in_rate, out_rate);

  // The output should be the same tone at the new rate: check the phase
  // increment in the interior of the buffer.
  const double expected = 2.0 * std::numbers::pi * f / out_rate;
  for (std::size_t k = out.size() / 4; k < out.size() / 2; ++k) {
    const cfloat r = out[k + 1] * std::conj(out[k]);
    EXPECT_NEAR(std::arg(r), expected, 0.02) << "k=" << k;
  }
  // And power should be preserved in the interior.
  const std::span<const cfloat> mid(out.data() + out.size() / 4, out.size() / 2);
  EXPECT_NEAR(mean_power(mid), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRates, ResamplerRatio,
    ::testing::Values(RatioCase{20e6, 25e6},    // WiFi TX -> jammer
                      RatioCase{25e6, 20e6},    // jammer TX -> WiFi RX
                      RatioCase{11.2e6, 25e6},  // WiMAX -> jammer
                      RatioCase{25e6, 11.2e6}));

TEST(Resampler, FractionalDelayShiftsTone) {
  const double rate = 25e6;
  const double f = 2e6;
  const cvec in = tone(f, rate, 2000);
  const Resampler rs(rate, rate);
  const cvec a = rs.resample(in, 0.0);
  const cvec b = rs.resample(in, 0.5);
  // A half-sample delay of a tone is a phase rotation of pi*f/rate... i.e.
  // b[k] ~= tone evaluated half a sample later.
  const double expected_shift = 2.0 * std::numbers::pi * f / rate * 0.5;
  for (std::size_t k = 500; k < 600; ++k) {
    const cfloat r = b[k] * std::conj(a[k]);
    EXPECT_NEAR(std::arg(r), expected_shift, 0.03);
  }
}

TEST(Resampler, DcGainNearUnityMidStream) {
  // A constant input through the Fig. 6 20->25 MSPS conversion must come
  // out at the same level once the 8-tap kernel has full support: the
  // windowed-sinc taps are not renormalised per output point, so this
  // bounds the kernel's DC ripple directly.
  const cvec in(4000, cfloat{1.0f, 0.0f});
  for (const auto& [in_rate, out_rate] :
       {std::pair{20e6, 25e6}, std::pair{25e6, 20e6}, std::pair{11.2e6, 25e6}}) {
    const cvec out = resample(in, in_rate, out_rate);
    for (std::size_t k = out.size() / 4; k < 3 * out.size() / 4; ++k) {
      EXPECT_NEAR(out[k].real(), 1.0f, 0.03f)
          << in_rate << "->" << out_rate << " k=" << k;
      EXPECT_NEAR(out[k].imag(), 0.0f, 0.03f);
    }
  }
}

TEST(Resampler, FractionalDelayMatchesAnalyticTone) {
  // Interpolating a tone at ratio r with fractional delay d must equal the
  // same tone evaluated at input instants m/r + d — amplitude and phase.
  const double in_rate = 20e6;
  const double out_rate = 25e6;
  const double f = 1.5e6;
  const cvec in = tone(f, in_rate, 4000);
  const Resampler rs(in_rate, out_rate);
  for (const double d : {0.125, 0.5, 0.875}) {
    const cvec out = rs.resample(in, d);
    const double ratio = out_rate / in_rate;
    for (std::size_t m = out.size() / 4; m < out.size() / 2; ++m) {
      const double t_in = static_cast<double>(m) / ratio + d;
      const double p = 2.0 * std::numbers::pi * f * t_in / in_rate;
      EXPECT_NEAR(out[m].real(), std::cos(p), 0.03) << "d=" << d << " m=" << m;
      EXPECT_NEAR(out[m].imag(), std::sin(p), 0.03) << "d=" << d << " m=" << m;
    }
  }
}

TEST(Resampler, EdgeErrorConfinedToKernelSupport) {
  // The buffer edges are zero-padded, so outputs near them lose kernel
  // taps and deviate from the true level (overshoot where the missing
  // lobes are negative, droop where positive). The deviation must be
  // bounded and confined to the kernel half-width (4 input samples) —
  // detection captures budget their lead-in/tail around exactly this.
  const cvec in(2000, cfloat{1.0f, 0.0f});
  // Half-sample delay keeps every output instant between input samples, so
  // edge outputs genuinely lose kernel mass (on-grid instants hit the
  // sinc's integer zeros and would mask the effect).
  const cvec out = Resampler(20e6, 25e6).resample(in, 0.5);
  const double ratio = 25.0 / 20.0;
  // The first output draws on input taps 0..4 only (half its support):
  // measurably off unity, but bounded.
  EXPECT_GT(std::abs(std::abs(out.front()) - 1.0f), 0.04f);
  EXPECT_LT(std::abs(std::abs(out.front()) - 1.0f), 0.35f);
  // The last output loses the upper half of its support, main lobe
  // included, so it droops well below full level.
  EXPECT_LT(std::abs(out.back()), 0.85f);
  // Beyond the kernel half-width (in output samples), full level again.
  const auto settled = static_cast<std::size_t>(std::ceil(4.0 * ratio)) + 1;
  for (std::size_t k = settled; k < settled + 50; ++k)
    EXPECT_NEAR(std::abs(out[k]), 1.0f, 0.03f) << "k=" << k;
  for (std::size_t k = out.size() - settled - 50; k < out.size() - settled; ++k)
    EXPECT_NEAR(std::abs(out[k]), 1.0f, 0.03f) << "k=" << k;
}

TEST(Resampler, IdentityRatioReproducesInput) {
  const cvec in = tone(1e6, 25e6, 1000);
  const cvec out = resample(in, 25e6, 25e6);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t k = 100; k < 900; ++k) {
    EXPECT_NEAR(out[k].real(), in[k].real(), 0.02f);
    EXPECT_NEAR(out[k].imag(), in[k].imag(), 0.02f);
  }
}

TEST(Resampler, DownconversionBandLimits) {
  // A tone beyond the output Nyquist must be attenuated when decimating.
  // The 8-tap kernel trades stopband depth for speed, so expect meaningful
  // (not brick-wall) suppression near the band edge.
  const cvec in = tone(11e6, 25e6, 4000);  // > 10 MHz Nyquist of 20 MSPS
  const cvec out = resample(in, 25e6, 20e6);
  const std::span<const cfloat> mid(out.data() + out.size() / 4, out.size() / 2);
  EXPECT_LT(mean_power_db(mid), -6.0);
}

// --- Differential: table-driven polyphase path vs. the continuous loop ------

cvec random_signal(Xoshiro256& rng, std::size_t n) {
  cvec x(n);
  for (cfloat& v : x) v = rng.complex_gaussian();
  return x;
}

// Lengths 0..9, where every output's support crosses a buffer edge, then
// random lengths up to a few thousand samples.
std::vector<std::size_t> differential_lengths(Xoshiro256& rng) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 10; ++n) lengths.push_back(n);
  for (int i = 0; i < 6; ++i) lengths.push_back(10 + rng.uniform_int(6000));
  return lengths;
}

// The delays the detection harness pre-renders each frame at.
double timing_phase(unsigned p) {
  return static_cast<double>(p) / static_cast<double>(core::kTimingPhases);
}

::testing::AssertionResult bytes_equal(const cvec& a, const cvec& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "length " << a.size() << " vs " << b.size();
  for (std::size_t m = 0; m < a.size(); ++m)
    if (std::memcmp(&a[m], &b[m], sizeof(cfloat)) != 0)
      return ::testing::AssertionFailure()
             << "output " << m << ": " << a[m] << " vs " << b[m];
  return ::testing::AssertionSuccess();
}

// At 20<->25 MSPS (ratios 5/4 and 4/5) the table rows reproduce the
// continuous loop's taps exactly, at every timing phase.
TEST(ResamplerDifferential, ByteIdenticalToReferenceAtWifiRates) {
  Xoshiro256 rng(derive_seed(0x5e5a, 1));
  for (const auto& [in_rate, out_rate] :
       {std::pair{20e6, 25e6}, std::pair{25e6, 20e6}}) {
    const Resampler rs(in_rate, out_rate);
    for (const std::size_t n : differential_lengths(rng)) {
      const cvec in = random_signal(rng, n);
      for (unsigned p = 0; p < core::kTimingPhases; ++p) {
        const double d = timing_phase(p);
        EXPECT_TRUE(bytes_equal(rs.resample(in, d),
                                resample_reference(in, in_rate, out_rate, d)))
            << in_rate << "->" << out_rate << " n=" << n << " d=" << d;
      }
    }
  }
}

// At 11 and 11.2 MSPS the reference's double m / ratio drifts along the
// buffer; the exact rational phases differ from it only by that drift.
TEST(ResamplerDifferential, ExactPhasesTrackReferenceAtDsssAndWimaxRates) {
  Xoshiro256 rng(derive_seed(0x5e5a, 2));
  for (const auto& [in_rate, out_rate] :
       {std::pair{11e6, 25e6}, std::pair{11.2e6, 25e6},
        std::pair{25e6, 11.2e6}}) {
    const Resampler rs(in_rate, out_rate);
    for (const std::size_t n : differential_lengths(rng)) {
      const cvec in = random_signal(rng, n);
      for (unsigned p = 0; p < core::kTimingPhases; ++p) {
        const double d = timing_phase(p);
        const cvec fast = rs.resample(in, d);
        const cvec ref = resample_reference(in, in_rate, out_rate, d);
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t m = 0; m < fast.size(); ++m) {
          EXPECT_NEAR(fast[m].real(), ref[m].real(), 2e-7)
              << in_rate << "->" << out_rate << " n=" << n << " d=" << d
              << " m=" << m;
          EXPECT_NEAR(fast[m].imag(), ref[m].imag(), 2e-7)
              << in_rate << "->" << out_rate << " n=" << n << " d=" << d
              << " m=" << m;
        }
      }
    }
  }
}

// A row must carry exactly the reference's taps, zero-weight end taps
// included: inf * 0 at an end tap is NaN, so it must happen in both paths
// or in neither, and NaN and inf inputs must propagate the same bits.
TEST(ResamplerDifferential, NonFiniteInputsByteIdenticalToReference) {
  Xoshiro256 rng(derive_seed(0x5e5a, 3));
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [in_rate, out_rate] :
       {std::pair{20e6, 25e6}, std::pair{25e6, 20e6}}) {
    const Resampler rs(in_rate, out_rate);
    for (const std::size_t n : differential_lengths(rng)) {
      cvec in = random_signal(rng, n);
      for (std::size_t k = 0; k < n; k += 1 + rng.uniform_int(40)) {
        const float special = k % 3 == 0 ? kInf : k % 3 == 1 ? -kInf : kNan;
        in[k] = rng.uniform_int(2) == 0 ? cfloat{special, in[k].imag()}
                                        : cfloat{in[k].real(), special};
      }
      for (unsigned p = 0; p < core::kTimingPhases; ++p) {
        const double d = timing_phase(p);
        EXPECT_TRUE(bytes_equal(rs.resample(in, d),
                                resample_reference(in, in_rate, out_rate, d)))
            << in_rate << "->" << out_rate << " n=" << n << " d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace rjf::dsp
