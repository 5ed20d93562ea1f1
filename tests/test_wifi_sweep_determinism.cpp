// bench::run_sweep (Figs. 10-11 rig) parallelizes independent
// WifiNetworkSim points over core::run_shards, and its contract is that
// every point is bit-identical at any RJF_BENCH_THREADS value. Regression:
// thread_local waveform/verdict caches in WifiNetworkSim::exchange consumed
// per-sim rng_.next() draws only when cold, so a sim's RNG stream depended
// on which points had previously run on the same worker thread — a
// single-thread run (all points share one warm thread) disagreed with an
// N-thread run (points land on cold threads).
//
// The suite name contains "SweepEngine" so the TSan CI job's test filter
// also runs it.
#include "bench/wifi_sweep.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/presets.h"
#include "net/waveform_cache.h"
#include "obs/telemetry.h"

namespace rjf::bench {
namespace {

// Run each config through its own WifiNetworkSim, sequentially on ONE
// fresh thread (mimicking a sweep-engine worker draining several shards),
// and return the last result.
net::WifiRunResult run_chain_on_fresh_thread(
    const std::vector<net::WifiNetworkConfig>& configs) {
  net::WifiRunResult last;
  std::thread worker([&] {
    for (const auto& config : configs) {
      net::WifiNetworkSim sim(config);
      last = sim.run();
    }
  });
  worker.join();
  return last;
}

// A WifiNetworkSim must be a pure function of its config: its result may
// not depend on which sims previously ran on the same worker thread.
// Regression: the decode-verdict caches in exchange() were thread_local,
// so a sim inherited another config's cached clean-channel verdicts (and
// skipped the rng_ draws that produced them) whenever its shard landed on
// a warm thread.
TEST(WifiSweepEngine, SimResultIndependentOfThreadHistory) {
  net::WifiNetworkConfig probe;
  probe.iperf.duration_s = 0.02;
  probe.seed = 42;

  // Same probe, but preceded on the thread by a sim whose AP noise floor
  // drowns every data frame (clean-channel verdict: bad, at every rate
  // ARF falls back to).
  net::WifiNetworkConfig deaf = probe;
  deaf.ap_noise_power = 1e-3;

  const auto isolated = run_chain_on_fresh_thread({probe});
  const auto after_deaf = run_chain_on_fresh_thread({deaf, probe});

  EXPECT_GT(isolated.report.datagrams_received, 0u);
  EXPECT_EQ(after_deaf.report.datagrams_received,
            isolated.report.datagrams_received);
  EXPECT_EQ(after_deaf.report.datagrams_sent, isolated.report.datagrams_sent);
  EXPECT_EQ(after_deaf.data_frames_delivered, isolated.data_frames_delivered);
  EXPECT_EQ(after_deaf.retries, isolated.retries);
  EXPECT_EQ(after_deaf.mean_tx_rate_mbps, isolated.mean_tx_rate_mbps);
}

TEST(WifiSweepEngine, RunSweepBitIdenticalAcrossThreadCounts) {
  const std::vector<double> powers = {1e-4, 1e-3, 3e-3, 1e-2};
  const double duration_s = 0.02;
  const auto jammer = core::energy_reactive_preset(1e-4, 10.0);

  const auto single = run_sweep("1 thread", jammer, powers, duration_s, 1);
  ASSERT_EQ(single.points.size(), powers.size());

  for (const unsigned threads : {2u, 4u}) {
    const auto parallel =
        run_sweep("N threads", jammer, powers, duration_s, threads);
    ASSERT_EQ(parallel.points.size(), single.points.size());
    for (std::size_t p = 0; p < powers.size(); ++p) {
      const auto& a = single.points[p];
      const auto& b = parallel.points[p];
      EXPECT_EQ(a.jam_triggers, b.jam_triggers)
          << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.sir_db, b.sir_db) << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.bandwidth_kbps, b.bandwidth_kbps)
          << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.prr_percent, b.prr_percent)
          << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.mean_rate_mbps, b.mean_rate_mbps)
          << "threads=" << threads << " point=" << p;
    }
  }
}

// A sweep point re-run alone through point_config, with a Telemetry bundle
// attached to its jammer, is the sweep's point at any thread count: the
// telemetry sees the run's fabric events without perturbing them.
TEST(WifiSweepEngine, CampaignMetricsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> powers = {1e-4, 1e-3, 3e-3};
  const double duration_s = 0.02;
  const auto jammer = core::energy_reactive_preset(1e-4, 10.0);

  std::vector<SweepPoint> traced;
  std::uint64_t jam_trigger_events = 0;
  for (const double power : powers) {
    const net::WifiNetworkConfig config =
        point_config(jammer, power, duration_s);
    net::WifiNetworkSim sim(config);
    obs::TelemetryConfig tc;
    tc.probe_enabled = false;
    obs::Telemetry telemetry(tc);
    sim.attach_telemetry(&telemetry);
    const auto run = sim.run();
    sim.attach_telemetry(nullptr);
    traced.push_back(SweepPoint{
        run.measured_sir_db,
        run.report.bandwidth_kbps(config.iperf.datagram_bytes),
        run.report.prr_percent(), run.jam_triggers, run.mean_tx_rate_mbps});
    telemetry.refresh_gauges();
    // The point must actually have produced fabric telemetry (else the
    // comparison below is vacuous), and no record may have been lost.
    EXPECT_GT(telemetry.metrics().counter_value("obs.ring_records"), 0u);
    EXPECT_EQ(telemetry.metrics().counter_value("obs.ring_dropped"), 0u);
    jam_trigger_events +=
        telemetry.metrics().counter_value("events.jam_trigger");
  }
  EXPECT_GT(jam_trigger_events, 0u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto sweep = run_sweep("N threads", jammer, powers, duration_s,
                                 threads);
    ASSERT_EQ(sweep.points.size(), traced.size());
    for (std::size_t p = 0; p < powers.size(); ++p) {
      const auto& a = traced[p];
      const auto& b = sweep.points[p];
      EXPECT_EQ(a.jam_triggers, b.jam_triggers)
          << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.sir_db, b.sir_db) << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.bandwidth_kbps, b.bandwidth_kbps)
          << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.prr_percent, b.prr_percent)
          << "threads=" << threads << " point=" << p;
      EXPECT_EQ(a.mean_rate_mbps, b.mean_rate_mbps)
          << "threads=" << threads << " point=" << p;
    }
  }
}

// The process-wide WaveformCache must be an invisible optimization: a
// sweep run with the cache disabled (every exchange re-synthesises its
// waveform) must be bit-identical to one that shares cached samples
// across all points and threads. The cached value is a pure function of
// its key and consumes no per-sim RNG draws, so any divergence here means
// the cache key is missing a dimension or the build path leaks state.
TEST(WifiSweepEngine, RunSweepBitIdenticalWithWaveformCacheOnAndOff) {
  const std::vector<double> powers = {1e-4, 1e-3, 3e-3};
  const double duration_s = 0.02;
  const auto jammer = core::energy_reactive_preset(1e-4, 10.0);

  auto& cache = net::WaveformCache::instance();
  const bool was_enabled = cache.enabled();

  cache.set_enabled(false);
  cache.clear();
  cache.reset_counters();
  const auto uncached = run_sweep("cache off", jammer, powers, duration_s, 2);
  // A disabled cache builds every waveform fresh and counts nothing.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  cache.set_enabled(true);
  cache.clear();
  cache.reset_counters();
  const auto cached = run_sweep("cache on", jammer, powers, duration_s, 2);

  // The sweep transmits the same datagram/ACK at every point, so a warm
  // cache must actually be serving hits (else this test proves nothing),
  // with one miss per distinct waveform it stored.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GE(cache.misses(), cache.size());

  cache.set_enabled(was_enabled);

  ASSERT_EQ(cached.points.size(), uncached.points.size());
  for (std::size_t p = 0; p < powers.size(); ++p) {
    const auto& a = uncached.points[p];
    const auto& b = cached.points[p];
    EXPECT_EQ(a.jam_triggers, b.jam_triggers) << "point=" << p;
    EXPECT_EQ(a.sir_db, b.sir_db) << "point=" << p;
    EXPECT_EQ(a.bandwidth_kbps, b.bandwidth_kbps) << "point=" << p;
    EXPECT_EQ(a.prr_percent, b.prr_percent) << "point=" << p;
    EXPECT_EQ(a.mean_rate_mbps, b.mean_rate_mbps) << "point=" << p;
  }
}

}  // namespace
}  // namespace rjf::bench
