// ReactiveJammer facade: presets, programming, runtime reconfiguration, and
// the detection-experiment harness.
#include <gtest/gtest.h>

#include "core/detection_experiment.h"
#include "core/presets.h"
#include "core/reactive_jammer.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "phy80211/preamble.h"
#include "phy80211/transmitter.h"

namespace rjf::core {
namespace {

TEST(JammerConfig, SamplesFromSeconds) {
  EXPECT_EQ(JammerConfig::samples_from_seconds(40e-9), 1u);
  EXPECT_EQ(JammerConfig::samples_from_seconds(0.0), 1u);
  EXPECT_EQ(JammerConfig::samples_from_seconds(1e-4), 2500u);   // 0.1 ms
  EXPECT_EQ(JammerConfig::samples_from_seconds(1e-5), 250u);    // 0.01 ms
  EXPECT_EQ(JammerConfig::samples_from_seconds(1000.0), 0xFFFFFFFFu);
}

TEST(Presets, WifiReactiveUsesCalibratedThreshold) {
  const auto config = wifi_reactive_preset(1e-4, 0.059);
  EXPECT_EQ(config.detection, DetectionMode::kCrossCorrelator);
  ASSERT_TRUE(config.xcorr_template.has_value());
  EXPECT_GT(config.xcorr_threshold, 0u);
  EXPECT_LT(config.xcorr_threshold, 0xFFFFFFFFu);
  EXPECT_EQ(config.jam_uptime_samples, 2500u);
}

TEST(Presets, ContinuousHasMaximalUptime) {
  const auto config = continuous_preset();
  EXPECT_EQ(config.detection, DetectionMode::kContinuous);
}

TEST(Presets, WimaxCombinesDetectors) {
  const auto config = wimax_combined_preset(1e-4, 1, 0);
  EXPECT_EQ(config.detection, DetectionMode::kXcorrOrEnergy);
  ASSERT_TRUE(config.xcorr_template.has_value());
}

TEST(ReactiveJammer, DetectsPreambleAndJams) {
  auto config = wifi_reactive_preset(4e-6, 0.059);
  ReactiveJammer jammer(config);

  // One short preamble burst at 25 MSPS inside noise.
  dsp::cvec sp;
  const auto period = phy80211::short_training_symbol();
  for (int rep = 0; rep < 10; ++rep)
    sp.insert(sp.end(), period.begin(), period.end());
  const dsp::cvec sp25 = dsp::resample(sp, 20e6, 25e6);

  dsp::cvec rx = dsp::make_wgn(2048, 1e-4, 5);
  for (std::size_t k = 0; k < sp25.size(); ++k) rx[256 + k] += sp25[k] * 0.5f;

  const auto result = jammer.observe(rx);
  EXPECT_GE(result.jam_triggers, 1u);
  ASSERT_FALSE(result.bursts.empty());
  EXPECT_EQ(result.bursts.front().length, 100u);  // 4 us = 100 samples
}

TEST(ReactiveJammer, ContinuousEngagesOnNoise) {
  ReactiveJammer jammer(continuous_preset());
  const auto result = jammer.observe(dsp::make_wgn(4096, 1e-4, 11));
  ASSERT_FALSE(result.bursts.empty());
  // Once on, it stays on to the end of the capture.
  const auto& last = result.bursts.back();
  EXPECT_EQ(last.start_sample + last.length, 4096u);
}

TEST(ReactiveJammer, ReconfigureTakesEffectAfterBusLatency) {
  auto config = energy_reactive_preset(4e-6, 10.0);
  ReactiveJammer jammer(config);

  // Disable jamming via runtime reconfiguration: switch to correlator
  // detection with an unreachable threshold (the metric caps at 384^2).
  auto off = config;
  off.detection = DetectionMode::kCrossCorrelator;
  off.xcorr_threshold = 0xFFFFFFFFu;
  jammer.reconfigure(off);

  // ...then hit the receiver with a strong burst well after the settings
  // bus has drained: no reaction expected.
  dsp::cvec rx = dsp::make_wgn(8192, 1e-6, 13);
  dsp::NoiseSource strong(0.25, 17);
  for (std::size_t k = 4096; k < 6000; ++k) rx[k] += strong.sample();
  const auto result = jammer.observe(rx);
  EXPECT_EQ(result.jam_triggers, 0u);
}

TEST(ReactiveJammer, RegisterWritesBetweenResetsTakeEffect) {
  // reset_detection_state() re-latches the registers only when one was
  // written since the last latch. A write() and a set_coefficient() made
  // between two resets must each reach the datapath.
  ReactiveJammer jammer(wifi_reactive_preset(1e-4, 0.059));
  fpga::DspCore& core = jammer.radio().core();
  jammer.reset_detection_state();

  const std::uint32_t threshold = core.correlator().threshold() + 12345;
  core.registers().write(fpga::Reg::kXcorrThreshold, threshold);
  jammer.reset_detection_state();
  EXPECT_EQ(core.correlator().threshold(), threshold);

  // A coefficient of another magnitude changes the cached peak metric.
  const std::uint32_t max_before = core.correlator().max_metric();
  const int c0 = core.registers().coefficient(false, 0);
  core.registers().set_coefficient(false, 0, c0 == 0 ? 3 : 0);
  jammer.reset_detection_state();
  fpga::CrossCorrelator fresh;
  fresh.load_from_registers(core.registers());
  EXPECT_NE(fresh.max_metric(), max_before);
  EXPECT_EQ(core.correlator().max_metric(), fresh.max_metric());
}

TEST(ReactiveJammer, SurgicalDelayShiftsBurst) {
  auto near_config = wifi_reactive_preset(4e-6, 0.5);
  near_config.jam_delay_samples = 0;
  auto far_config = near_config;
  far_config.jam_delay_samples = 200;

  const auto burst_start = [](ReactiveJammer& jammer) -> std::size_t {
    dsp::cvec sp;
    const auto period = phy80211::short_training_symbol();
    for (int rep = 0; rep < 10; ++rep)
      sp.insert(sp.end(), period.begin(), period.end());
    const dsp::cvec sp25 = dsp::resample(sp, 20e6, 25e6);
    dsp::cvec rx = dsp::make_wgn(2048, 1e-4, 19);
    for (std::size_t k = 0; k < sp25.size(); ++k) rx[256 + k] += sp25[k] * 0.5f;
    const auto result = jammer.observe(rx);
    return result.bursts.empty() ? 0 : result.bursts.front().start_sample;
  };

  ReactiveJammer near_jammer(near_config);
  ReactiveJammer far_jammer(far_config);
  const std::size_t near_start = burst_start(near_jammer);
  const std::size_t far_start = burst_start(far_jammer);
  ASSERT_GT(near_start, 0u);
  ASSERT_GT(far_start, 0u);
  EXPECT_EQ(far_start - near_start, 200u);
}

TEST(DetectionExperiment, PerfectAtHighSnrAbsentAtNone) {
  auto config = wifi_reactive_preset(4e-6, 0.059);
  ReactiveJammer jammer(config);

  std::vector<std::uint8_t> psdu(100, 0x77);
  phy80211::Transmitter tx({phy80211::Rate::kMbps24, 0x3D});
  const dsp::cvec frame = tx.transmit(psdu);

  DetectionRunConfig run;
  run.num_frames = 40;
  run.snr_db = 20.0;
  const auto high = run_detection_experiment(jammer, frame,
                                             DetectorTap::kXcorr, run);
  EXPECT_EQ(high.probability, 1.0);

  run.snr_db = -25.0;
  const auto low = run_detection_experiment(jammer, frame,
                                            DetectorTap::kXcorr, run);
  EXPECT_LT(low.probability, 0.1);
}

TEST(DetectionExperiment, ProbabilityMonotoneInSnr) {
  auto config = wifi_reactive_preset(4e-6, 0.5);
  ReactiveJammer jammer(config);
  std::vector<std::uint8_t> psdu(60, 0x2F);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x51});
  const dsp::cvec frame = tx.transmit(psdu);

  DetectionRunConfig run;
  run.num_frames = 60;
  double prev = -0.01;
  for (const double snr : {-9.0, -3.0, 3.0, 12.0}) {
    run.snr_db = snr;
    const auto r = run_detection_experiment(jammer, frame,
                                            DetectorTap::kXcorr, run);
    EXPECT_GE(r.probability, prev - 0.15) << snr;  // allow noise wiggle
    prev = r.probability;
  }
  EXPECT_GT(prev, 0.9);
}

TEST(DetectionExperiment, EnergyTapSeesSingleDetectionAtHighSnr) {
  auto config = energy_reactive_preset(4e-6, 10.0);
  ReactiveJammer jammer(config);
  std::vector<std::uint8_t> psdu(200, 0x5C);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x19});
  const dsp::cvec frame = tx.transmit(psdu);

  DetectionRunConfig run;
  run.num_frames = 50;
  run.snr_db = 16.0;
  const auto r = run_detection_experiment(jammer, frame,
                                          DetectorTap::kEnergyHigh, run);
  EXPECT_GT(r.probability, 0.95);
  EXPECT_NEAR(r.detections_per_frame, 1.0, 0.3);  // Fig. 8's plateau
}

}  // namespace
}  // namespace rjf::core
