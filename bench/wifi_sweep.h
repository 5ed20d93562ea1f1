// Shared SIR sweep for bench_fig10_11_iperf (Figs. 10-11): the four jammer
// configurations of §4.3 run over the iperf UDP test rig.
//
// Each (configuration, jam-power) point is one independent WifiNetworkSim
// with a fixed seed, so the points of a sweep run in parallel on the sweep
// engine's worker pool (core::run_shards) — results land in pre-sized
// slots by point index and are identical at any RJF_BENCH_THREADS value.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/presets.h"
#include "core/sweep.h"
#include "net/waveform_cache.h"
#include "net/wifi_network.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

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

/// When `campaign_metrics` is non-null every point runs with a private
/// Telemetry bundle (probes off) attached to its embedded jammer; the
/// per-point fabric counters are merged into `campaign_metrics` in point
/// order after the pool drains, so the merged counters are bit-identical
/// at any thread count (Telemetry::deterministic_metrics() strips the
/// wall-clock-derived entries first). WaveformCache hit/miss/eviction
/// counters ride along as cross-thread diagnostics outside that guarantee.
inline SweepResult run_sweep(const std::string& label,
                             const std::optional<core::JammerConfig>& jammer,
                             const std::vector<double>& jam_powers,
                             double duration_s,
                             unsigned threads = sweep_threads(),
                             obs::MetricsRegistry* campaign_metrics = nullptr) {
  SweepResult result;
  result.label = label;
  result.points.resize(jam_powers.size());
  std::vector<obs::MetricsRegistry> point_metrics(
      campaign_metrics != nullptr ? jam_powers.size() : 0);

  // One shard per SIR point: the iperf run is the unit of work.
  core::SweepConfig sweep;
  sweep.trials_per_point = 1;
  sweep.shard_trials = 1;
  sweep.threads = threads;
  const auto tasks =
      core::make_shard_schedule(jam_powers.size(), sweep);
  core::run_shards(tasks, sweep.threads, [&](const core::ShardTask& task) {
    net::WifiNetworkConfig config;
    config.iperf.duration_s = duration_s;
    config.jammer = jammer;
    config.jammer_tx_power = jam_powers[task.point];
    config.seed = 1234;
    net::WifiNetworkSim sim(config);
    std::optional<obs::Telemetry> telemetry;
    if (campaign_metrics != nullptr) {
      obs::TelemetryConfig tc;
      tc.probe_enabled = false;  // counters only; probes cost capture memory
      telemetry.emplace(tc);
      sim.attach_telemetry(&*telemetry);
    }
    const auto run = sim.run();
    result.points[task.point] = SweepPoint{
        run.measured_sir_db,
        run.report.bandwidth_kbps(config.iperf.datagram_bytes),
        run.report.prr_percent(), run.jam_triggers, run.mean_tx_rate_mbps};
    if (telemetry.has_value()) {
      sim.attach_telemetry(nullptr);
      point_metrics[task.point] = telemetry->deterministic_metrics();
    }
  });
  if (campaign_metrics != nullptr) {
    for (const obs::MetricsRegistry& m : point_metrics)
      campaign_metrics->merge(m);
    net::WaveformCache::instance().export_metrics(*campaign_metrics);
  }
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
