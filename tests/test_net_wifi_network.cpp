// Integration tests of the full jammed-network simulation (the Figs. 10-11
// rig). Durations are kept short; the bench binaries run the full sweeps.
#include "net/wifi_network.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <string>
#include <optional>

#include "core/presets.h"
#include "obs/telemetry.h"

namespace rjf::net {
namespace {

WifiNetworkConfig base_config(double duration_s = 0.05) {
  WifiNetworkConfig config;
  config.iperf.duration_s = duration_s;
  config.seed = 42;
  return config;
}

TEST(WifiNetwork, BaselineThroughputNearPaperCeiling) {
  // Paper: "the maximum achieved UDP bandwidth ... was around 29 Mbps".
  WifiNetworkSim sim(base_config(0.1));
  const auto r = sim.run();
  const double mbps = r.report.bandwidth_kbps(1470) / 1e3;
  EXPECT_GT(mbps, 26.0);
  EXPECT_LT(mbps, 36.0);
  EXPECT_NEAR(r.report.prr_percent(), 100.0, 0.5);
  EXPECT_EQ(r.retries, 0u);
}

TEST(WifiNetwork, NominalSirMatchesLossBudget) {
  auto config = base_config();
  config.jammer = core::continuous_preset();
  config.jammer_tx_power = 1e-4;
  WifiNetworkSim sim(config);
  // SIR = (P_c / 10^5.1) / (P_j / 10^3.84) = -12.6 dB - 10log10(P_j).
  EXPECT_NEAR(sim.nominal_sir_db(), -12.6 + 40.0, 0.01);
}

TEST(WifiNetwork, ContinuousJammerStarvesViaCarrierSense) {
  auto config = base_config();
  config.jammer = core::continuous_preset();
  config.jammer_tx_power = 1e-3;  // far above the CCA threshold at port 2
  WifiNetworkSim sim(config);
  const auto r = sim.run();
  EXPECT_GT(r.cca_busy_defers, 0u);
  EXPECT_LT(r.report.bandwidth_kbps(1470), 1000.0);
}

TEST(WifiNetwork, ContinuousJammerHarmlessAtVeryLowPower) {
  auto config = base_config();
  config.jammer = core::continuous_preset();
  config.jammer_tx_power = 1e-7;  // ~57 dB SIR
  WifiNetworkSim sim(config);
  const auto r = sim.run();
  EXPECT_GT(r.report.bandwidth_kbps(1470) / 1e3, 25.0);
  EXPECT_NEAR(r.report.prr_percent(), 100.0, 1.0);
}

TEST(WifiNetwork, ReactiveJammerInvisibleToCarrierSense) {
  // The paper's stealth point: reactive bursts don't hold the medium busy.
  auto config = base_config();
  config.jammer = core::energy_reactive_preset(1e-4, 10.0);
  config.jammer_tx_power = 1e-3;
  WifiNetworkSim sim(config);
  const auto r = sim.run();
  EXPECT_EQ(r.cca_starved_drops, 0u);
  EXPECT_GT(r.jam_triggers, 0u);
}

TEST(WifiNetwork, ReactiveJammerKillsLinkAtHighPower) {
  auto config = base_config();
  config.jammer = core::energy_reactive_preset(1e-4, 10.0);
  config.jammer_tx_power = 0.2;  // SIR ~ -19.6 dB
  WifiNetworkSim sim(config);
  const auto r = sim.run();
  EXPECT_EQ(r.report.datagrams_received, 0u);
  EXPECT_EQ(r.report.prr_percent(), 0.0);
}

TEST(WifiNetwork, ShorterUptimeNeedsMorePower) {
  // At equal, moderate jam power the 0.1 ms jammer must do at least as
  // much damage as the 0.01 ms jammer (Fig. 10's central ordering).
  const double power = 3e-3;
  double bw_long = 0.0, bw_short = 0.0;
  {
    auto config = base_config();
    config.jammer = core::energy_reactive_preset(1e-4, 10.0);
    config.jammer_tx_power = power;
    bw_long = WifiNetworkSim(config).run().report.bandwidth_kbps(1470);
  }
  {
    auto config = base_config();
    config.jammer = core::energy_reactive_preset(1e-5, 10.0);
    config.jammer_tx_power = power;
    bw_short = WifiNetworkSim(config).run().report.bandwidth_kbps(1470);
  }
  EXPECT_LE(bw_long, bw_short + 2000.0);
}

TEST(WifiNetwork, MeasuredSirTracksNominal) {
  auto config = base_config();
  config.jammer = core::energy_reactive_preset(1e-4, 10.0);
  config.jammer_tx_power = 1e-3;
  WifiNetworkSim sim(config);
  const auto r = sim.run();
  EXPECT_NEAR(r.measured_sir_db, sim.nominal_sir_db(), 2.0);
}

TEST(WifiNetwork, ArfFallsBackUnderJamming) {
  auto config = base_config(0.08);
  config.jammer = core::energy_reactive_preset(1e-4, 10.0);
  config.jammer_tx_power = 1e-2;
  WifiNetworkSim sim(config);
  const auto r = sim.run();
  EXPECT_LT(r.mean_tx_rate_mbps, 54.0);
  EXPECT_GT(r.retries, 0u);
}

// Every WifiRunResult field and the fabric event counters of 20 short rig
// runs, recorded exactly (doubles included). Any change to the exchange
// path, the rng_ draw order or the waveform cache keys shows up here; the
// values are the same in the SIMD and scalar-only builds.
struct PinnedRun {
  const char* label;
  std::uint64_t seed;
  std::uint64_t offered, sent, received;
  double measured_sir_db;
  std::uint64_t data_sent, data_delivered, acks_lost, retries, cca_defers,
      cca_starved, jam_triggers;
  double mean_rate_mbps;
  std::uint64_t xcorr_trigger, energy_rise, jam_trigger, jam_start,
      stream_start, stream_fabric_ticks;
};

WifiNetworkConfig pinned_config(const std::string& label, std::uint64_t seed) {
  auto config = base_config();
  config.seed = seed;
  const auto jam = [&](const core::JammerConfig& jammer, double power) {
    config.jammer = jammer;
    config.jammer_tx_power = power;
  };
  if (label == "cont 3e-6") jam(core::continuous_preset(), 3e-6);
  if (label == "cont 2e-5") jam(core::continuous_preset(), 2e-5);
  if (label == "react0.1 1e-4") jam(core::energy_reactive_preset(1e-4), 1e-4);
  if (label == "react0.1 3e-3") jam(core::energy_reactive_preset(1e-4), 3e-3);
  if (label == "react0.01 1e-2") jam(core::energy_reactive_preset(1e-5), 1e-2);
  if (label == "react0.01 1e-1") jam(core::energy_reactive_preset(1e-5), 1e-1);
  if (label == "react0.01 3") jam(core::energy_reactive_preset(1e-5), 3.0);
  if (label == "wifi 1e-2") jam(core::wifi_reactive_preset(1e-4), 1e-2);
  if (label == "deaf ap") config.ap_noise_power = 1e-3;
  return config;
}

PinnedRun run_pinned(const char* label, std::uint64_t seed) {
  WifiNetworkSim sim(pinned_config(label, seed));
  obs::TelemetryConfig tc;
  tc.probe_enabled = false;
  obs::Telemetry telemetry(tc);
  sim.attach_telemetry(&telemetry);
  const auto r = sim.run();
  sim.attach_telemetry(nullptr);
  telemetry.flush();
  EXPECT_EQ(r.report.duration_s, 0.05);
  const auto& m = telemetry.metrics();
  return {label,
          seed,
          r.report.datagrams_offered,
          r.report.datagrams_sent,
          r.report.datagrams_received,
          r.measured_sir_db,
          r.data_frames_sent,
          r.data_frames_delivered,
          r.acks_lost,
          r.retries,
          r.cca_busy_defers,
          r.cca_starved_drops,
          r.jam_triggers,
          r.mean_tx_rate_mbps,
          m.counter_value("events.xcorr_trigger"),
          m.counter_value("events.energy_rise"),
          m.counter_value("events.jam_trigger"),
          m.counter_value("events.jam_start"),
          m.counter_value("events.stream_start"),
          m.counter_value("stream_fabric_ticks")};
}

TEST(WifiNetworkSim, PinnedRunOutcomes) {
  // label, seed, offered, sent, received, measured SIR, data sent,
  // delivered, ACKs lost, retries, CCA defers, CCA drops, jam triggers,
  // mean rate, events.{xcorr_trigger, energy_rise, jam_trigger, jam_start,
  // stream_start}, stream_fabric_ticks.
  const PinnedRun pinned[] = {
      {"off", 1, 132, 132, 132, 300, 132, 132,
       0, 0, 0, 0, 0, 54,
       0, 0, 0, 0, 0, 0},
      {"off", 7, 133, 133, 133, 300, 133, 133,
       0, 0, 0, 0, 0, 54,
       0, 0, 0, 0, 0, 0},
      {"cont 3e-6", 1, 132, 132, 132, 42.630453274337356, 132, 132,
       0, 0, 0, 0, 1156, 54,
       0, 389, 1156, 1, 264, 3791004},
      {"cont 3e-6", 7, 133, 133, 133, 42.631468919142968, 133, 133,
       0, 0, 0, 0, 1197, 54,
       0, 412, 1197, 1, 266, 3819748},
      {"cont 2e-5", 1, 132, 132, 132, 34.391366004175254, 132, 132,
       0, 0, 0, 0, 1156, 54,
       0, 389, 1156, 1, 264, 3791004},
      {"cont 2e-5", 7, 133, 133, 133, 34.392381649167248, 133, 133,
       0, 0, 0, 0, 1197, 54,
       0, 412, 1197, 1, 266, 3819748},
      {"react0.1 1e-4", 1, 109, 109, 109, 27.395326253188799, 109, 109,
       0, 0, 972, 0, 218, 54,
       0, 218, 218, 218, 218, 3130484},
      {"react0.1 1e-4", 7, 109, 109, 109, 27.395390625658393, 109, 109,
       0, 0, 972, 0, 218, 54,
       0, 218, 218, 218, 218, 3130480},
      {"react0.1 3e-3", 1, 2, 3, 0, 12.636194144647799, 21, 15,
       15, 18, 56, 0, 36, 21.142857142857142,
       0, 36, 36, 36, 36, 2381200},
      {"react0.1 3e-3", 7, 2, 3, 0, 12.636305450176003, 22, 16,
       16, 19, 60, 0, 38, 20.454545454545453,
       0, 38, 38, 38, 38, 2587940},
      {"react0.01 1e-2", 1, 113, 113, 113, 7.4353899433709438, 125, 115,
       2, 12, 0, 0, 240, 52.896000000000001,
       0, 240, 240, 240, 240, 3622532},
      {"react0.01 1e-2", 7, 113, 113, 113, 7.4370549106082802, 127, 115,
       2, 14, 0, 0, 242, 53.291338582677163,
       0, 242, 242, 242, 242, 3651232},
      {"react0.01 1e-1", 1, 2, 3, 0, -2.5547798984887891, 21, 16,
       16, 18, 0, 0, 37, 21.142857142857142,
       0, 37, 37, 37, 37, 2384384},
      {"react0.01 1e-1", 7, 2, 3, 0, -2.5660820973448684, 22, 17,
       17, 19, 0, 0, 39, 20.454545454545453,
       0, 39, 39, 39, 39, 2591124},
      {"react0.01 3", 1, 2, 3, 0, -17.342198332786364, 21, 0,
       0, 18, 0, 0, 21, 21.142857142857142,
       0, 21, 21, 21, 21, 2333440},
      {"react0.01 3", 7, 2, 3, 0, -17.337941828193198, 22, 0,
       0, 19, 0, 0, 22, 20.454545454545453,
       0, 22, 22, 22, 22, 2536992},
      {"wifi 1e-2", 1, 2, 3, 0, 7.4198622787940582, 21, 12,
       12, 18, 44, 0, 297, 21.142857142857142,
       297, 33, 297, 33, 33, 2371648},
      {"wifi 1e-2", 7, 2, 3, 0, 7.4165535503315461, 22, 13,
       13, 19, 48, 0, 315, 20.454545454545453,
       315, 35, 315, 35, 35, 2578384},
      {"deaf ap", 1, 2, 3, 0, 300, 21, 0,
       0, 18, 0, 0, 0, 21.142857142857142,
       0, 0, 0, 0, 0, 0},
      {"deaf ap", 7, 2, 3, 0, 300, 22, 0,
       0, 19, 0, 0, 0, 20.454545454545453,
       0, 0, 0, 0, 0, 0},
  };
  for (const PinnedRun& want : pinned) {
    SCOPED_TRACE(std::string(want.label) + " seed " +
                 std::to_string(want.seed));
    const PinnedRun got = run_pinned(want.label, want.seed);
    EXPECT_EQ(got.offered, want.offered);
    EXPECT_EQ(got.sent, want.sent);
    EXPECT_EQ(got.received, want.received);
    EXPECT_EQ(got.measured_sir_db, want.measured_sir_db);
    EXPECT_EQ(got.data_sent, want.data_sent);
    EXPECT_EQ(got.data_delivered, want.data_delivered);
    EXPECT_EQ(got.acks_lost, want.acks_lost);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.cca_defers, want.cca_defers);
    EXPECT_EQ(got.cca_starved, want.cca_starved);
    EXPECT_EQ(got.jam_triggers, want.jam_triggers);
    EXPECT_EQ(got.mean_rate_mbps, want.mean_rate_mbps);
    EXPECT_EQ(got.xcorr_trigger, want.xcorr_trigger);
    EXPECT_EQ(got.energy_rise, want.energy_rise);
    EXPECT_EQ(got.jam_trigger, want.jam_trigger);
    EXPECT_EQ(got.jam_start, want.jam_start);
    EXPECT_EQ(got.stream_start, want.stream_start);
    EXPECT_EQ(got.stream_fabric_ticks, want.stream_fabric_ticks);
  }
}

// A traced jammed run splits its host time by stage into the telemetry's
// metrics: every stage ran, and the stages never add up to more than the
// run's wall time. Both drain modes, since run() publishes after a flush.
TEST(WifiNetworkSim, TracedRunSplitsHostTimeByStage) {
  const std::array<const char*, 9> stages = {
      "net.listen_synth_ns", "net.observe_ns",    "net.rx_noise_ns",
      "net.resample_ns",     "net.rx_sync_ns",    "net.rx_demod_ns",
      "net.rx_decode_ns",    "net.rx_descramble_ns", "net.parse_ns"};
  for (const bool drain_thread : {false, true}) {
    SCOPED_TRACE(drain_thread ? "drain thread" : "inline drain");
    WifiNetworkSim sim(pinned_config("react0.1 3e-3", 1));
    obs::TelemetryConfig tc;
    tc.probe_enabled = false;
    tc.drain_thread = drain_thread;
    obs::Telemetry telemetry(tc);
    sim.attach_telemetry(&telemetry);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sim.run();
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    sim.attach_telemetry(nullptr);
    ASSERT_GT(r.jam_triggers, 0u);

    std::uint64_t sum = 0;
    for (const char* stage : stages) {
      const std::uint64_t ns = telemetry.metrics().counter_value(stage);
      EXPECT_GT(ns, 0u) << stage;
      sum += ns;
    }
    EXPECT_LE(sum, wall_ns);
  }
}

}  // namespace
}  // namespace rjf::net
