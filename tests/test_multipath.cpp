// Multipath channel model, and detection/decoding behaviour "under various
// channel conditions" (paper §6's operational claim).
#include <gtest/gtest.h>

#include "channel/multipath.h"
#include "core/detection_experiment.h"
#include "core/presets.h"
#include "dsp/db.h"
#include "dsp/noise.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"

namespace rjf {
namespace {

TEST(Multipath, DeterministicPerSeed) {
  const channel::MultipathProfile profile;
  const channel::MultipathChannel a(profile, 42), b(profile, 42);
  ASSERT_EQ(a.taps().size(), b.taps().size());
  for (std::size_t k = 0; k < a.taps().size(); ++k)
    EXPECT_EQ(a.taps()[k], b.taps()[k]);
  const channel::MultipathChannel c(profile, 43);
  EXPECT_NE(a.taps(), c.taps());
}

TEST(Multipath, MeanGainNearUnityAcrossRealisations) {
  const channel::MultipathProfile profile;
  double acc = 0.0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t)
    acc += channel::MultipathChannel(profile, 1000 + t).realised_gain();
  EXPECT_NEAR(acc / trials, 1.0, 0.1);
}

TEST(Multipath, FadingActuallyVaries) {
  const channel::MultipathProfile profile;
  double lo = 1e9, hi = 0.0;
  for (int t = 0; t < 200; ++t) {
    const double g = channel::MultipathChannel(profile, 2000 + t).realised_gain();
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_LT(lo, 0.3);  // deep fades exist
  EXPECT_GT(hi, 2.0);  // and constructive realisations
}

TEST(Multipath, SingleTapIsAPureScale) {
  channel::MultipathProfile profile;
  profile.num_taps = 1;
  const channel::MultipathChannel ch(profile, 7);
  const dsp::cvec in(64, dsp::cfloat{1.0f, 0.0f});
  const dsp::cvec out = ch.apply(in);
  for (std::size_t k = 1; k < out.size(); ++k) {
    EXPECT_FLOAT_EQ(out[k].real(), out[0].real());
    EXPECT_FLOAT_EQ(out[k].imag(), out[0].imag());
  }
}

TEST(Multipath, DelaySpreadSmearsAnImpulse) {
  channel::MultipathProfile profile;
  profile.num_taps = 4;
  const channel::MultipathChannel ch(profile, 11);
  dsp::cvec impulse(32, dsp::cfloat{});
  impulse[0] = dsp::cfloat{1.0f, 0.0f};
  const dsp::cvec out = ch.apply(impulse);
  int nonzero = 0;
  for (const auto s : out) nonzero += std::abs(s) > 1e-6f;
  EXPECT_EQ(nonzero, 4);  // one echo per tap at 50 ns spacing (>= 1 sample)
}

TEST(Multipath, OfdmSurvivesModerateDelaySpreadViaCp) {
  // Delay spreads inside the 0.8 us cyclic prefix must be equalised away
  // by the LTS-based channel estimate.
  channel::MultipathProfile profile;
  profile.num_taps = 3;
  profile.tap_spacing_s = 100e-9;
  profile.sample_rate_hz = 20e6;

  std::vector<std::uint8_t> psdu(200, 0x5E);
  phy80211::Transmitter tx({phy80211::Rate::kMbps12, 0x3B});
  const dsp::cvec clean = tx.transmit(psdu);

  // At this SNR about 58% of realisations deliver (a deep fade counts as
  // a loss); 400 realisations put the 50% floor 3.5 standard errors below
  // that mean, so the verdict does not hinge on one particular draw.
  int delivered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const channel::MultipathChannel ch(profile, 5000 + t);
    if (ch.realised_gain() < 0.25) continue;  // skip deep fades (rate would drop)
    dsp::cvec rx = ch.apply(clean);
    dsp::NoiseSource noise(1e-4, 100 + t);
    noise.add_to(rx);
    const auto r = phy80211::Receiver().receive(rx);
    delivered += (r.psdu == psdu);
  }
  EXPECT_GE(delivered, trials * 5 / 10);
}

TEST(Multipath, ShortPreambleDetectionDegradesGracefully) {
  // The sign-bit correlator keeps working through multipath: the STS's
  // periodicity survives convolution, so detection probability stays high
  // at good SNR even though each realisation distorts the template match.
  auto config = core::wifi_reactive_preset(1e-4, 0.52);
  core::ReactiveJammer jammer(config);

  std::vector<std::uint8_t> psdu(150, 0xA1);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec frame = tx.transmit(psdu);

  channel::MultipathProfile profile;
  profile.sample_rate_hz = 20e6;
  int detected = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const channel::MultipathChannel ch(profile, 9000 + t);
    if (ch.realised_gain() < 0.25) continue;
    dsp::cvec faded = ch.apply(frame);
    core::DetectionRunConfig run;
    run.num_frames = 1;
    run.snr_db = 12.0;
    run.seed = 300 + t;
    const auto r = core::run_detection_experiment(
        jammer, faded, core::DetectorTap::kXcorr, run);
    detected += r.frames_detected;
  }
  EXPECT_GE(detected, trials * 6 / 10);
}

}  // namespace
}  // namespace rjf
