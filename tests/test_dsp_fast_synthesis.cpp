// Trial-capture synthesis kernels (dsp/synth_math.h): the float log and
// quadrant-folded sincos against libm in double, the complex WGN they drive
// (moments, tail exceedance, truncation radius, fill() == repeated
// sample()), the CFO phasor over long captures, and the contract that a
// detection trial's capture is exactly the per-sample NoiseSource::sample()
// + cfo_phasor composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/detection_experiment.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "dsp/rng.h"
#include "dsp/synth_math.h"
#include "fpga/dsp_core.h"
#include "phy80211/transmitter.h"
#include "radio/adc_dac.h"
#include "radio/fault_hooks.h"

namespace rjf {
namespace {

TEST(FastSynthesis, LogUnitWithinOneUlpOfLibm) {
  float worst_ulps = 0.0f;
  const auto check = [&](float x) {
    const double want = std::log(static_cast<double>(x));
    const auto rounded = static_cast<float>(want);
    const float ulp =
        std::nextafter(std::fabs(rounded), INFINITY) - std::fabs(rounded);
    worst_ulps = std::max(
        worst_ulps,
        static_cast<float>(std::fabs(dsp::log_unit(x) - want) / ulp));
  };
  // Every float in [1/2, 1), the mantissa range the split folds onto.
  for (std::uint32_t bits = 0x3f000000u; bits < 0x3f800000u; ++bits)
    check(std::bit_cast<float>(bits));
  for (int e = 1; e <= 125; ++e) check(std::ldexp(1.0f, -e));
  dsp::Xoshiro256 rng(0x106);
  for (int i = 0; i < 100000; ++i)
    check(static_cast<float>((rng.next() >> 11) + 1) * 0x1.0p-53f);
  EXPECT_LT(worst_ulps, 1.0f);
  EXPECT_EQ(dsp::log_unit(1.0f), 0.0f);
}

TEST(FastSynthesis, SincosQuadrantMatchesDoubleReference) {
  double worst = 0.0;
  constexpr int kSteps = 200000;
  for (std::uint32_t quadrant = 0; quadrant < 8; ++quadrant) {
    for (int i = -kSteps; i <= kSteps; ++i) {
      const auto x = static_cast<float>(i * (std::numbers::pi / 4) / kSteps);
      const dsp::cfloat got = dsp::sincos_quadrant(x, quadrant);
      const double theta = x + (quadrant % 4) * (std::numbers::pi / 2);
      worst = std::max({worst, std::fabs(got.real() - std::cos(theta)),
                        std::fabs(got.imag() - std::sin(theta))});
    }
  }
  EXPECT_LT(worst, 1e-7);
}

TEST(FastSynthesis, FillEqualsRepeatedSample) {
  for (const std::uint64_t seed : {0ull, 1ull, 0x5eedull, 0xDEADBEEFull}) {
    for (const double power : {1.0, 1e-4}) {
      dsp::NoiseSource by_fill(power, seed);
      dsp::NoiseSource by_sample(power, seed);
      // Lengths 0..257 back to back: blocks, partial blocks, and the
      // generator state carried from one fill() into the next.
      for (std::size_t n = 0; n <= 257; ++n) {
        dsp::cvec filled(n);
        by_fill.fill(filled);
        for (std::size_t i = 0; i < n; ++i) {
          const dsp::cfloat want = by_sample.sample();
          ASSERT_EQ(std::bit_cast<std::uint64_t>(filled[i]),
                    std::bit_cast<std::uint64_t>(want))
              << "seed " << seed << " length " << n << " index " << i;
        }
      }
      // Interleaving stays in step too.
      EXPECT_EQ(by_fill.sample(), by_sample.sample());
    }
  }
}

TEST(FastSynthesis, ComplexGaussianMatchesNoiseSourceAtEqualPower) {
  dsp::Xoshiro256 rng(77);
  dsp::NoiseSource noise(0.3, 77);
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(rng.complex_gaussian(0.3), noise.sample()) << i;
}

TEST(FastSynthesis, ComplexWgnMomentsAndExceedance) {
  constexpr std::size_t kN = std::size_t{1} << 22;
  constexpr double kPower = 2.5;
  dsp::NoiseSource noise(kPower, 0xC0FFEE);
  dsp::cvec z(kN);
  noise.fill(z);

  double sum_i = 0, sum_q = 0, m2_i = 0, m2_q = 0, m4_i = 0, m4_q = 0;
  double power = 0, cross = 0;
  constexpr int kMaxT = 10;
  std::vector<std::size_t> exceed(kMaxT + 1, 0);
  for (const dsp::cfloat s : z) {
    const double i = s.real(), q = s.imag();
    sum_i += i;
    sum_q += q;
    m2_i += i * i;
    m2_q += q * q;
    m4_i += i * i * i * i;
    m4_q += q * q * q * q;
    cross += i * q;
    const double r = (i * i + q * q) / kPower;
    power += r;
    for (int t = 1; t <= kMaxT; ++t) exceed[t] += r > t;
  }
  const double n = kN;
  // Standard errors: mean sqrt(P/2/n) per component, |z|^2/P has unit
  // variance, the per-component kurtosis estimate ~sqrt(96/n).
  const double se_mean = std::sqrt(kPower / 2 / n);
  EXPECT_NEAR(sum_i / n, 0.0, 5 * se_mean);
  EXPECT_NEAR(sum_q / n, 0.0, 5 * se_mean);
  EXPECT_NEAR(power / n, 1.0, 5 / std::sqrt(n));
  EXPECT_NEAR(m2_i / m2_q, 1.0, 5 * 2 / std::sqrt(n));
  EXPECT_NEAR(cross / n / (kPower / 2), 0.0, 5 / std::sqrt(n));
  EXPECT_NEAR(m4_i * n / (m2_i * m2_i), 3.0, 5 * std::sqrt(96 / n));
  EXPECT_NEAR(m4_q * n / (m2_q * m2_q), 3.0, 5 * std::sqrt(96 / n));
  // |z|^2 / P is Exp(1): P(> t) = e^-t, binomial standard error.
  for (int t = 1; t <= kMaxT; ++t) {
    const double p = std::exp(-t);
    EXPECT_NEAR(exceed[t] / n, p, 5 * std::sqrt(p * (1 - p) / n))
        << "t=" << t;
  }
}

TEST(FastSynthesis, TailMappingReachesSixSigma) {
  // |z|^2 / P = -log u exactly up to float rounding, and u is uniform on
  // the lattice k·2^-53, so P(|z|^2/P > t) = e^-t holds as far out as the
  // mapping is accurate. Check it at the raw draw whose u is nearest e^-t,
  // t = 1..16, then at the extreme draw: the truncation radius.
  constexpr float kSigma = 0.75f;
  constexpr double kPower = 2.0 * kSigma * kSigma;
  const auto norm_power = [&](std::uint64_t a) {
    const dsp::cfloat z = dsp::box_muller(a, 0x1234567, kSigma);
    return static_cast<double>(std::norm(z)) / kPower;
  };
  for (int t = 1; t <= 16; ++t) {
    const auto k = static_cast<std::uint64_t>(std::ldexp(std::exp(-t), 53));
    EXPECT_NEAR(norm_power((k - 1) << 11), t, 2e-6 * t) << "t=" << t;
  }
  // a = 0 is u = 2^-53: radius sqrt(53 log 2)·sqrt(P) = 6.06 sqrt(P).
  EXPECT_GE(norm_power(0), 36.0);
  EXPECT_NEAR(norm_power(0), 53 * std::numbers::ln2, 1e-4);
  // The largest draw is u = 1: zero radius, not a negative log.
  EXPECT_EQ(norm_power(~0ull), 0.0);
}

TEST(FastSynthesis, CfoPhasorMatchesDoubleReferenceOverLongCaptures) {
  // Up to 112 kHz (well past every preset's max_cfo_hz) and k up to 2^22,
  // longer than a 1 Mb/s DSSS capture.
  double worst = 0.0, worst_norm = 0.0;
  dsp::Xoshiro256 rng(0xCF0);
  const auto check = [&](double w, std::uint64_t k) {
    const dsp::cfloat got = core::cfo_phasor(w, k);
    const double phase =
        std::remainder(w * static_cast<double>(k), 2 * std::numbers::pi);
    worst = std::max({worst, std::fabs(got.real() - std::cos(phase)),
                      std::fabs(got.imag() - std::sin(phase))});
    worst_norm = std::max(
        worst_norm,
        std::fabs(std::hypot(double{got.real()}, double{got.imag()}) - 1.0));
  };
  std::vector<double> cfos = {0.0, 1.0, -1.0, 3000.0, -3000.0, 10000.0,
                              -10000.0, 112e3, -112e3};
  for (int i = 0; i < 16; ++i)
    cfos.push_back((2 * rng.uniform() - 1) * 112e3);
  for (const double cfo : cfos) {
    const double w = 2 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
    for (std::uint64_t k = 0; k < 20000; ++k) check(w, k);
    for (int i = 0; i < 20000; ++i) check(w, rng.next() >> 42);  // < 2^22
    check(w, std::uint64_t{1} << 22);
  }
  EXPECT_LE(worst, 2e-7);
  EXPECT_LE(worst_norm, 2e-7);
  EXPECT_EQ(core::cfo_phasor(0.0, 12345), dsp::cfloat(1.0f, 0.0f));
}

/// Records every receive block the radio hands its fault seam: the
/// front-end output of exactly the capture a trial streamed.
class RecordingRxHook final : public radio::RxFaultHook {
 public:
  void mutate_rx(std::span<dsp::cfloat> rx, std::uint64_t) override {
    seen.insert(seen.end(), rx.begin(), rx.end());
  }
  void overflow_gaps(std::uint64_t, std::uint64_t,
                     std::vector<radio::OverflowGap>&) const override {}
  dsp::cvec seen;
};

// The traced benchmark replay rebuilds each trial's capture from the
// public pieces — trial RNG draws, NoiseSource::sample() per sample, then
// frame[k] * cfo_phasor(w, k) — and must reproduce the untraced counts.
// Pin that run_detection_trial streams exactly that capture.
TEST(FastSynthesis, RunDetectionTrialCaptureIsSampleComposition) {
  core::JammerConfig config;
  config.detection = core::DetectionMode::kCrossCorrelator;
  config.xcorr_template = core::wifi_long_preamble_template();
  config.xcorr_threshold = 9000;

  core::DetectionRunConfig run;
  run.snr_db = 0.0;
  run.lead_in = 300;  // > 64 so fill() covers whole blocks and a tail
  run.tail = 77;
  run.max_cfo_hz = 50e3;
  run.seed = 0x7121A1;
  run.tx_rate_hz = 20e6;
  const phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const core::DetectionTrialPlan plan = core::prepare_detection_trials(
      tx.transmit(std::vector<std::uint8_t>(16, 0xA5)),
      core::DetectorTap::kXcorr, run);

  core::ReactiveJammer jammer(config);
  core::ReactiveJammer replay_jammer(config);
  RecordingRxHook hook;
  jammer.attach_fault_hooks(&hook, nullptr);
  const radio::Adc adc;
  for (std::size_t trial = 0; trial < 12; ++trial) {
    hook.seen.clear();
    const core::DetectionTrialOutcome outcome =
        core::run_detection_trial(jammer, plan, trial);

    dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, trial));
    const std::uint64_t noise_seed = rng.next();
    const dsp::cvec& frame =
        plan.variants[rng.uniform_int(plan.variants.size())];
    const double cfo = (2.0 * rng.uniform() - 1.0) * plan.max_cfo_hz;
    dsp::cvec capture(plan.lead_in + frame.size() + plan.tail);
    dsp::NoiseSource noise(plan.noise_power, noise_seed);
    for (auto& s : capture) s = noise.sample();
    const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
    for (std::size_t k = 0; k < frame.size(); ++k)
      capture[plan.lead_in + k] += frame[k] * core::cfo_phasor(w, k);

    const dsp::cvec want = replay_jammer.radio().frontend().apply_rx(capture);
    ASSERT_EQ(hook.seen.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(hook.seen[i], want[i]) << "trial " << trial << " sample " << i;

    replay_jammer.reset_detection_state();
    const auto replayed =
        replay_jammer.observe(std::span<const dsp::IQ16>(adc.convert(want)));
    EXPECT_EQ(outcome.events, replayed.xcorr_detections) << "trial " << trial;
    EXPECT_EQ(outcome.jam_triggers, replayed.jam_triggers) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rjf
