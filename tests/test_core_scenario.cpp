// Protocol-target scenario registry: lookups, decode ground truth, the
// wifi_ofdm equivalence contract (run_campaign against the target
// bit-identical to run_campaign_frames over a hand-rolled Transmitter frame),
// and 802.11b DSSS as
// a first-class campaign subject (kill/resume byte-identity across thread
// counts, mirroring test_core_campaign.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/presets.h"
#include "core/scenario.h"
#include "core/templates.h"
#include "fault/fault_experiment.h"
#include "phy80211/rates.h"
#include "phy80211/transmitter.h"
#include "phy80211b/dsss.h"

namespace rjf::core {
namespace {

std::string temp_store(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(Scenario, RegistryLooksUpKnownTargetsAndRejectsUnknown) {
  const auto& targets = protocol_targets();
  ASSERT_GE(targets.size(), 2u);
  EXPECT_EQ(targets[0].name, "wifi_ofdm");  // the default target leads

  const ProtocolTarget* ofdm = find_target("wifi_ofdm");
  ASSERT_NE(ofdm, nullptr);
  EXPECT_EQ(ofdm->rates.size(), 8u);
  EXPECT_DOUBLE_EQ(ofdm->rates.front().mbps, 6.0);
  EXPECT_DOUBLE_EQ(ofdm->rates.back().mbps, 54.0);
  EXPECT_EQ(ofdm->default_rate_index, 7u);  // 54 Mb/s, the legacy default
  EXPECT_DOUBLE_EQ(ofdm->native_rate_hz, 20e6);

  const ProtocolTarget* dsss = find_target("wifi_dsss");
  ASSERT_NE(dsss, nullptr);
  ASSERT_EQ(dsss->rates.size(), 4u);
  EXPECT_DOUBLE_EQ(dsss->rates[0].mbps, 1.0);
  EXPECT_DOUBLE_EQ(dsss->rates[1].mbps, 2.0);
  EXPECT_DOUBLE_EQ(dsss->rates[2].mbps, 5.5);
  EXPECT_DOUBLE_EQ(dsss->rates[3].mbps, 11.0);
  EXPECT_EQ(dsss->default_rate_index, 3u);
  EXPECT_DOUBLE_EQ(dsss->native_rate_hz, phy80211b::kChipRateHz);

  EXPECT_EQ(find_target("wifi_bogus"), nullptr);
  EXPECT_THROW((void)target_or_throw("wifi_bogus"), std::invalid_argument);
  const std::vector<std::string> names = target_names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[0], "wifi_ofdm");
  EXPECT_EQ(names[1], "wifi_dsss");
}

TEST(Scenario, DecodeOkIsGroundTruthAtEveryRate) {
  const std::vector<std::uint8_t> psdu(40, 0xA5);
  for (const ProtocolTarget& target : protocol_targets()) {
    for (std::size_t i = 0; i < target.rates.size(); ++i) {
      const dsp::cvec frame = target.make_frame(i, psdu, 0x5D);
      ASSERT_FALSE(frame.empty()) << target.name << " rate " << i;
      EXPECT_TRUE(target.decode_ok(i, frame, psdu))
          << target.name << " rate " << target.rates[i].mbps;
      const dsp::cvec silence(frame.size(), dsp::cfloat{0.0f, 0.0f});
      EXPECT_FALSE(target.decode_ok(i, silence, psdu))
          << target.name << " rate " << target.rates[i].mbps;
    }
  }
}

TEST(Scenario, AirtimeAndDutyCycleModels) {
  const ProtocolTarget& ofdm = target_or_throw("wifi_ofdm");
  EXPECT_DOUBLE_EQ(ofdm.frame_airtime_s(7, 310),
                   phy80211::frame_duration_s(phy80211::Rate::kMbps54, 310));

  const ProtocolTarget& dsss = target_or_throw("wifi_dsss");
  // 192 us PLCP + 100 bytes at 11 Mb/s.
  EXPECT_NEAR(dsss.frame_airtime_s(3, 100), 192e-6 + 800.0 / 11e6, 1e-12);
  // 1 Mb/s: 192 us + 800 us.
  EXPECT_NEAR(dsss.frame_airtime_s(0, 100), 992e-6, 1e-12);
  // Duty cycle at the paper's 130 frames/s cadence.
  EXPECT_NEAR(dsss.duty_cycle(3, 100), (192e-6 + 800.0 / 11e6) * 130.0,
              1e-9);
}

TEST(Scenario, OfdmReactivePresetMatchesLegacyWifiPreset) {
  const JammerConfig legacy = wifi_reactive_preset(100e-6);
  const JammerConfig via_target =
      target_reactive_preset(target_or_throw("wifi_ofdm"), 100e-6);
  EXPECT_EQ(via_target.detection, legacy.detection);
  EXPECT_EQ(via_target.xcorr_threshold, legacy.xcorr_threshold);
  EXPECT_EQ(via_target.jam_uptime_samples, legacy.jam_uptime_samples);
  ASSERT_TRUE(via_target.xcorr_template.has_value());
  ASSERT_TRUE(legacy.xcorr_template.has_value());
  EXPECT_EQ(via_target.xcorr_template->coef_i, legacy.xcorr_template->coef_i);
  EXPECT_EQ(via_target.xcorr_template->coef_q, legacy.xcorr_template->coef_q);
}

// The refactor contract: a one-rate run_campaign against the wifi_ofdm
// target, with no store, reproduces the pre-refactor hand-rolled path
// (explicit phy80211::Transmitter + run_campaign_frames) bit for bit.
TEST(Scenario, OfdmTargetSweepBitIdenticalToHandRolledPath) {
  JammerConfig jammer;
  jammer.detection = DetectionMode::kCrossCorrelator;
  jammer.xcorr_template = wifi_long_preamble_template();
  jammer.xcorr_threshold = 9000;

  const std::vector<std::uint8_t> psdu(16, 0xA5);
  DetectionRunConfig base;
  base.lead_in = 64;
  base.tail = 64;
  const double snrs[] = {0.0, 6.0};

  CampaignSpec spec;
  spec.target = "wifi_ofdm";
  spec.jammer = jammer;
  spec.tap = DetectorTap::kXcorr;
  spec.base = base;
  spec.psdu_bytes = psdu.size();
  spec.psdu_fill = 0xA5;
  spec.scrambler_seed = 0x5D;
  spec.grid.rate_indices = {7};  // 54 Mb/s
  spec.grid.snrs_db.assign(std::begin(snrs), std::end(snrs));
  spec.grid.trials_per_point = 48;
  spec.shard_trials = 16;
  spec.threads = 2;
  spec.seed = 0x5CE7;
  const CampaignReport via_target = run_campaign(spec, "");

  // The same grid over a frame rendered by hand, at the 20 MSPS it is
  // rendered at (run_campaign_frames consults neither target nor PSDU).
  const phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec frame = tx.transmit(psdu);
  CampaignSpec hand_spec = spec;
  hand_spec.base.tx_rate_hz = 20e6;
  const CampaignReport hand_rolled =
      run_campaign_frames(hand_spec, {&frame, 1});

  ASSERT_EQ(via_target.points.size(), hand_rolled.points.size());
  for (std::size_t p = 0; p < hand_rolled.points.size(); ++p) {
    EXPECT_EQ(via_target.points[p].rate_mbps, 54.0);
    EXPECT_EQ(via_target.points[p].snr_db, hand_rolled.points[p].snr_db);
    EXPECT_EQ(via_target.points[p].trials_done,
              hand_rolled.points[p].trials_done);
    EXPECT_EQ(via_target.points[p].result.frames_detected,
              hand_rolled.points[p].result.frames_detected);
    EXPECT_EQ(via_target.points[p].result.total_detections,
              hand_rolled.points[p].result.total_detections);
    EXPECT_EQ(via_target.points[p].result.probability,
              hand_rolled.points[p].result.probability);
  }
}

CampaignSpec dsss_spec() {
  CampaignSpec spec;
  spec.target = "wifi_dsss";
  spec.jammer.detection = DetectionMode::kCrossCorrelator;
  spec.jammer.xcorr_template = wifi_dsss_preamble_template();
  spec.jammer.xcorr_threshold = 9000;
  spec.tap = DetectorTap::kXcorr;
  spec.psdu_bytes = 16;
  spec.base.lead_in = 64;
  spec.base.tail = 64;
  spec.seed = 0xD555;
  spec.grid.rate_indices = {0, 1, 2, 3};  // all four DSSS rates
  spec.grid.snrs_db = {3.0};
  spec.grid.trials_per_point = 24;
  spec.shard_trials = 8;
  spec.threads = 1;
  return spec;
}

// 802.11b DSSS as a first-class campaign subject: a {rate x SNR} grid over
// all four rates, killed and resumed at varying thread counts, merges to a
// CSV byte-identical to the uninterrupted run — the same headline
// guarantee test_core_campaign.cpp proves for the OFDM default.
TEST(ScenarioCampaign, DsssKillResumeByteIdenticalAcrossThreads) {
  CampaignSpec reference_spec = dsss_spec();
  const std::string ref_path = temp_store("rjf_scenario_dsss_ref.rjfc");
  const CampaignReport reference = run_campaign(reference_spec, ref_path);
  EXPECT_TRUE(reference.complete);
  EXPECT_EQ(reference.trials_replayed, 0u);
  const std::string golden = reference.to_csv();
  std::remove(ref_path.c_str());

  // The merged report carries the target's own rate axis.
  EXPECT_NE(golden.find("target=wifi_dsss"), std::string::npos);
  ASSERT_EQ(reference.points.size(), 4u);
  EXPECT_DOUBLE_EQ(reference.points[0].rate_mbps, 1.0);
  EXPECT_DOUBLE_EQ(reference.points[1].rate_mbps, 2.0);
  EXPECT_DOUBLE_EQ(reference.points[2].rate_mbps, 5.5);
  EXPECT_DOUBLE_EQ(reference.points[3].rate_mbps, 11.0);
  for (const CampaignPointResult& p : reference.points)
    EXPECT_EQ(p.trials_done, 24u);

  struct Variant {
    unsigned threads_a, threads_b;
    std::size_t kill_after;
  };
  for (const auto [threads_a, threads_b, kill_after] :
       {Variant{1, 2, 3}, Variant{2, 4, 5}, Variant{4, 1, 1}}) {
    const std::string path = temp_store("rjf_scenario_dsss_resume.rjfc");
    CampaignSpec spec = dsss_spec();

    spec.threads = threads_a;
    spec.max_shards_this_run = kill_after;
    const CampaignReport partial = run_campaign(spec, path);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.shards_run, kill_after);

    spec.threads = threads_b;
    spec.max_shards_this_run = 0;
    const CampaignReport resumed = run_campaign(spec, path);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.trials_replayed, 0u);
    EXPECT_EQ(resumed.to_csv(), golden)
        << "threads " << threads_a << "->" << threads_b;
    std::remove(path.c_str());
  }
}

TEST(ScenarioCampaign, UnknownTargetAndBadRateIndexAreRejected) {
  CampaignSpec spec = dsss_spec();
  spec.target = "wifi_bogus";
  EXPECT_THROW((void)spec.fingerprint(), std::invalid_argument);
  EXPECT_THROW((void)run_campaign(spec, temp_store("rjf_scenario_bogus.rjfc")),
               std::invalid_argument);

  spec = dsss_spec();
  spec.grid.rate_indices = {4};  // wifi_dsss has rates 0..3
  EXPECT_THROW((void)run_campaign(spec, temp_store("rjf_scenario_oob.rjfc")),
               std::invalid_argument);
}

TEST(ScenarioCampaign, TargetIdentityIsPartOfTheFingerprint) {
  CampaignSpec ofdm = dsss_spec();
  ofdm.target = "wifi_ofdm";  // same grid shape, different protocol
  CampaignSpec dsss = dsss_spec();
  EXPECT_NE(ofdm.fingerprint(), dsss.fingerprint());

  // Same target, different rate selection: different campaign.
  CampaignSpec subset = dsss_spec();
  subset.grid.rate_indices = {0, 1, 2};
  EXPECT_NE(subset.fingerprint(), dsss.fingerprint());
}

// A faulted campaign against a target is a pure composition: identical to
// rendering the target's frame by hand and running the same faulted grid
// over it with run_campaign_frames.
TEST(ScenarioFault, TargetFaultSweepMatchesHandRolledFrame) {
  JammerConfig jammer;
  jammer.detection = DetectionMode::kCrossCorrelator;
  jammer.xcorr_template = wifi_dsss_preamble_template();
  jammer.xcorr_threshold = 9000;

  const std::vector<std::uint8_t> psdu(16, 0xA5);
  DetectionRunConfig base;
  base.lead_in = 64;
  base.tail = 64;
  const double snrs[] = {3.0};
  const double scales[] = {0.0, 1.0};
  fault::FaultPlanConfig fault_base;
  fault_base.seed = 0xFA57;
  fault_base.clip_rate = 2e-4;

  const ProtocolTarget& dsss = target_or_throw("wifi_dsss");
  CampaignSpec spec;
  spec.target = dsss.name;
  spec.jammer = jammer;
  spec.tap = DetectorTap::kXcorr;
  spec.base = base;
  spec.psdu_bytes = psdu.size();
  spec.psdu_fill = 0xA5;
  spec.grid.rate_indices = {3};  // 11 Mb/s
  spec.grid.fault_scales.assign(std::begin(scales), std::end(scales));
  spec.grid.snrs_db.assign(std::begin(snrs), std::end(snrs));
  spec.grid.trials_per_point = 16;
  spec.shard_trials = 8;
  spec.threads = 1;
  spec.seed = 0xFA;
  spec.make_trial_hook = fault::campaign_fault_hook_factory(fault_base);
  const CampaignReport via_target = run_campaign(spec, "");

  const dsp::cvec frame = dsss.make_frame(3, psdu, 0x5D);
  CampaignSpec hand_spec = spec;
  hand_spec.base.tx_rate_hz = dsss.native_rate_hz;
  const CampaignReport hand_rolled =
      run_campaign_frames(hand_spec, {&frame, 1});

  ASSERT_EQ(via_target.points.size(), hand_rolled.points.size());
  for (std::size_t p = 0; p < hand_rolled.points.size(); ++p) {
    EXPECT_EQ(via_target.points[p].result.frames_detected,
              hand_rolled.points[p].result.frames_detected);
    EXPECT_EQ(via_target.points[p].result.total_detections,
              hand_rolled.points[p].result.total_detections);
    EXPECT_EQ(via_target.points[p].faults_injected,
              hand_rolled.points[p].faults_injected);
  }
}

}  // namespace
}  // namespace rjf::core
