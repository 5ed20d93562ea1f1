// Shared SIR sweep for bench_fig10_11_iperf (Figs. 10-11): the four jammer
// configurations of §4.3 run over the iperf UDP test rig.
//
// Each (configuration, jam-power) point is one independent WifiNetworkSim
// with a fixed seed, so the points of a sweep run in parallel on the sweep
// engine's worker pool (core::run_shards) — results land in pre-sized
// slots by point index and are identical at any RJF_BENCH_THREADS value.
// To trace one point, build a WifiNetworkSim from its point_config and
// attach a Telemetry bundle (examples/wifi_jamming_lab.cpp does this).
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/presets.h"
#include "core/sweep.h"
#include "net/wifi_network.h"

namespace rjf::bench {

struct SweepPoint {
  double sir_db;
  double bandwidth_kbps;
  double prr_percent;
  std::uint64_t jam_triggers;
  double mean_rate_mbps;
};

struct SweepResult {
  std::string label;
  std::vector<SweepPoint> points;
};

/// The WifiNetworkSim config of one sweep point. run_sweep builds every
/// point through here, so a point re-run alone (e.g. with telemetry
/// attached through WifiNetworkSim::attach_telemetry) is the sweep's point.
inline net::WifiNetworkConfig point_config(
    const std::optional<core::JammerConfig>& jammer, double jam_power,
    double duration_s) {
  net::WifiNetworkConfig config;
  config.iperf.duration_s = duration_s;
  config.jammer = jammer;
  config.jammer_tx_power = jam_power;
  config.seed = 1234;
  return config;
}

inline SweepResult run_sweep(const std::string& label,
                             const std::optional<core::JammerConfig>& jammer,
                             const std::vector<double>& jam_powers,
                             double duration_s,
                             unsigned threads = sweep_threads()) {
  SweepResult result;
  result.label = label;
  result.points.resize(jam_powers.size());

  // One shard per SIR point: the iperf run is the unit of work.
  core::SweepConfig sweep;
  sweep.trials_per_point = 1;
  sweep.shard_trials = 1;
  sweep.threads = threads;
  const auto tasks =
      core::make_shard_schedule(jam_powers.size(), sweep);
  core::run_shards(tasks, sweep.threads, [&](const core::ShardTask& task) {
    const net::WifiNetworkConfig config =
        point_config(jammer, jam_powers[task.point], duration_s);
    net::WifiNetworkSim sim(config);
    const auto run = sim.run();
    result.points[task.point] = SweepPoint{
        run.measured_sir_db,
        run.report.bandwidth_kbps(config.iperf.datagram_bytes),
        run.report.prr_percent(), run.jam_triggers, run.mean_tx_rate_mbps};
  });
  return result;
}

/// The four §4.3 configurations over SIR ranges bracketing the paper's.
inline std::vector<SweepResult> full_sweep(double duration_s) {
  std::vector<SweepResult> sweeps;
  // Jammer off: single reference point.
  sweeps.push_back(run_sweep("jammer off", std::nullopt, {0.0}, duration_s));
  // Continuous: the paper sweeps ~50 dB SIR down to the kill near 33.85 dB.
  sweeps.push_back(run_sweep(
      "continuous", core::continuous_preset(),
      {3e-7, 1e-6, 3e-6, 6e-6, 1e-5, 2e-5, 3e-5, 1e-4, 1e-3}, duration_s));
  // Reactive, 0.1 ms uptime after trigger.
  sweeps.push_back(run_sweep(
      "reactive 0.1ms", core::energy_reactive_preset(1e-4, 10.0),
      {1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3}, duration_s));
  // Reactive, 0.01 ms uptime after trigger.
  sweeps.push_back(run_sweep(
      "reactive 0.01ms", core::energy_reactive_preset(1e-5, 10.0),
      {1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0}, duration_s));
  return sweeps;
}

}  // namespace rjf::bench
