// Deterministic parallel sweep engine: shard scheduling, seed derivation,
// worker-pool execution, trial independence of the detection harness, and
// the bit-identical-across-thread-counts guarantee of the campaign
// executor over one-rate detection grids.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <numbers>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/detection_experiment.h"
#include "core/presets.h"
#include "core/sweep.h"
#include "core/templates.h"
#include "dsp/rng.h"
#include "obs/telemetry.h"
#include "phy80211/preamble.h"

namespace rjf::core {
namespace {

// A small pseudo-frame (one long training symbol) keeps each trial's
// capture short so multi-hundred-trial sweeps stay fast in CI.
dsp::cvec test_frame() { return phy80211::long_training_symbol(); }

JammerConfig xcorr_config() {
  JammerConfig config;
  config.detection = DetectionMode::kCrossCorrelator;
  config.xcorr_template = wifi_long_preamble_template();
  config.xcorr_threshold = 9000;
  return config;
}

DetectionRunConfig small_run(std::size_t frames, std::uint64_t seed) {
  DetectionRunConfig config;
  config.snr_db = 6.0;
  config.num_frames = frames;
  // No lead-in: the frame starts inside whatever the 64-tap correlator
  // window held at capture start, so any state leaking from a previous
  // capture lands directly on the detection metric.
  config.lead_in = 0;
  config.tail = 64;
  config.seed = seed;
  return config;
}

/// A one-rate grid of test_frame() captures for run_campaign_frames.
CampaignSpec sweep_spec(std::span<const double> snrs, std::size_t trials,
                        std::size_t shard_trials, unsigned threads,
                        std::uint64_t seed) {
  CampaignSpec spec;
  spec.jammer = xcorr_config();
  spec.base = small_run(0, 0);
  spec.grid.snrs_db.assign(snrs.begin(), snrs.end());
  spec.grid.trials_per_point = trials;
  spec.shard_trials = shard_trials;
  spec.threads = threads;
  spec.seed = seed;
  return spec;
}

TEST(DeriveSeed, StreamsAreDistinctAndReproducible) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    const std::uint64_t a = dsp::derive_seed(42, s);
    EXPECT_EQ(a, dsp::derive_seed(42, s));
    seen.insert(a);
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(dsp::derive_seed(1, 0), dsp::derive_seed(2, 0));
}

TEST(ShardSchedule, CoversEveryTrialExactlyOnce) {
  SweepConfig sweep;
  sweep.trials_per_point = 1000;
  sweep.shard_trials = 256;
  sweep.seed = 7;
  const auto tasks = make_shard_schedule(3, sweep);
  ASSERT_EQ(tasks.size(), 12u);  // 4 shards per point (256+256+256+232)
  std::vector<std::vector<bool>> covered(3, std::vector<bool>(1000, false));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& task = tasks[i];
    EXPECT_EQ(task.index, i);
    EXPECT_EQ(task.seed, dsp::derive_seed(7, i));
    for (std::size_t t = task.first_trial; t < task.first_trial + task.trials;
         ++t) {
      EXPECT_FALSE(covered[task.point][t]);
      covered[task.point][t] = true;
    }
  }
  for (const auto& point : covered)
    for (const bool c : point) EXPECT_TRUE(c);
}

TEST(ShardSchedule, RemainderShardAndOversizeClamp) {
  SweepConfig sweep;
  sweep.trials_per_point = 10;
  sweep.shard_trials = 4;
  auto tasks = make_shard_schedule(1, sweep);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks.back().trials, 2u);  // 4 + 4 + 2
  sweep.shard_trials = 1000;           // bigger than the point: one shard
  tasks = make_shard_schedule(1, sweep);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].trials, 10u);
}

TEST(RunShards, ExecutesEveryTaskOnceAtAnyThreadCount) {
  SweepConfig sweep;
  sweep.trials_per_point = 64;
  sweep.shard_trials = 8;
  const auto tasks = make_shard_schedule(2, sweep);
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> runs(tasks.size());
    run_shards(tasks, threads,
               [&](const ShardTask& task) { ++runs[task.index]; });
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
}

// Regression: a kernel exception must stop the pool from claiming further
// shards, not just surface after every remaining shard ran. Pre-fix the
// claim loop had no abort check, so a throw on shard 0 of a 64-shard
// schedule still executed the other 63 — in a million-trial campaign an
// early failure silently burned the whole grid before the rethrow. The
// non-throwing kernels stall 200 us per shard, so pre-fix the second
// worker deterministically drained all 63 remaining shards while the first
// one sat at the join; post-fix the abort flag (stored within microseconds
// of the immediate throw) caps the overrun at the few shards already
// claimed.
TEST(RunShards, StopsClaimingShardsAfterFirstThrow) {
  SweepConfig sweep;
  sweep.trials_per_point = 64;
  sweep.shard_trials = 1;
  const auto tasks = make_shard_schedule(1, sweep);
  ASSERT_EQ(tasks.size(), 64u);

  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> ran_after_throw{0};
  EXPECT_THROW(
      run_shards(tasks, 2,
                 [&](const ShardTask&) {
                   if (!thrown.exchange(true))
                     throw std::runtime_error("shard failure");
                   ran_after_throw.fetch_add(1);
                   std::this_thread::sleep_for(std::chrono::microseconds(200));
                 }),
      std::runtime_error);
  EXPECT_LT(ran_after_throw.load(), tasks.size() / 2)
      << "pool kept claiming shards after the first kernel exception";
}

// A pool that serialises its workers runs one shard at a time. Here four
// shards on four threads each wait until all four are in flight; in a
// serial pool the first one waits alone until the timeout.
TEST(RunShards, WorkersRunConcurrently) {
  SweepConfig sweep;
  sweep.trials_per_point = 4;
  sweep.shard_trials = 1;
  const auto tasks = make_shard_schedule(1, sweep);
  ASSERT_EQ(tasks.size(), 4u);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  bool gave_up = false;  // set on a timeout, so later shards do not wait too
  std::vector<bool> met_all(tasks.size(), false);
  EXPECT_EQ(run_shards(tasks, 4,
                       [&](const ShardTask& task) {
                         std::unique_lock<std::mutex> lock(mu);
                         ++in_flight;
                         cv.notify_all();
                         cv.wait_for(lock, std::chrono::seconds(30), [&] {
                           return in_flight == tasks.size() || gave_up;
                         });
                         met_all[task.index] = in_flight == tasks.size();
                         if (!met_all[task.index]) gave_up = true;
                         cv.notify_all();
                       }),
            4u);
  for (std::size_t i = 0; i < met_all.size(); ++i)
    EXPECT_TRUE(met_all[i]) << "shard " << i << " never saw all four in flight";
}

TEST(ShardSchedule, AdaptiveGranularityScalesWithThreadsAndClamps) {
  // ~8 shards per worker: 4 points x 10000 trials at 4 threads wants
  // 40000/32 = 1250 trials per shard.
  EXPECT_EQ(resolve_shard_trials(4, 10000, 4), 1250u);
  // Never fewer shards than points: 64 points at 1 thread targets 64
  // shards, one per point.
  EXPECT_EQ(resolve_shard_trials(64, 500, 1), 500u);
  // Clamps: tiny totals floor at kMinAutoShardTrials (bounded by the
  // point's own trial count), huge totals cap at kMaxAutoShardTrials so
  // checkpoint records stay fine-grained.
  EXPECT_EQ(resolve_shard_trials(1, 8, 4), 8u);
  EXPECT_EQ(resolve_shard_trials(2, 100, 8), kMinAutoShardTrials);
  EXPECT_EQ(resolve_shard_trials(1, 1000000, 2), kMaxAutoShardTrials);
}

TEST(ShardSchedule, ZeroShardTrialsTriggersAdaptiveResolution) {
  SweepConfig sweep;
  sweep.trials_per_point = 10000;
  sweep.shard_trials = 0;  // adaptive
  sweep.threads = 4;
  const auto tasks = make_shard_schedule(4, sweep);
  const std::size_t expected = resolve_shard_trials(4, 10000, 4);
  ASSERT_FALSE(tasks.empty());
  EXPECT_EQ(tasks[0].trials, expected);
  std::uint64_t total = 0;
  for (const auto& t : tasks) total += t.trials;
  EXPECT_EQ(total, 40000u);
}

TEST(RunShards, PropagatesKernelExceptions) {
  SweepConfig sweep;
  sweep.trials_per_point = 16;
  sweep.shard_trials = 4;
  const auto tasks = make_shard_schedule(1, sweep);
  EXPECT_THROW(
      run_shards(tasks, 4,
                 [&](const ShardTask& task) {
                   if (task.index == 2) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
}

// §3.2 regression: per-trial results must not depend on which trials ran
// before. The sequenced kXcorrThenEnergy mode is the sharpest probe: each
// capture legitimately completes the sequence once (xcorr on the first
// preamble, energy rise on the burst after the gap) and then re-arms stage
// 1 on the burst's own correlation peak. Pre-fix that armed stage leaked
// into the next capture — its frame-onset energy rise completed a
// sequence that never started there, firing a spurious extra jam trigger
// on every trial except the first.
TEST(TrialIndependence, PerTrialResultsAreOrderIndependent) {
  // Preamble, a gap at the noise floor long enough for the energy
  // reference to adapt, then a second burst: one xcorr->energy sequence
  // per capture for a detector whose FSM starts disarmed.
  const auto lts = phy80211::long_training_symbol();
  dsp::cvec frame(lts.begin(), lts.end());
  frame.resize(lts.size() + 160, dsp::cfloat{0.0f, 0.0f});
  frame.insert(frame.end(), lts.begin(), lts.end());

  JammerConfig sequenced;
  sequenced.detection = DetectionMode::kXcorrThenEnergy;
  sequenced.xcorr_template = wifi_long_preamble_template();
  sequenced.xcorr_threshold = 9000;
  sequenced.energy_high_db = 10.0;

  auto config = small_run(24, 0xBEEF);
  config.snr_db = 14.0;
  config.lead_in = 128;  // the 96-sample energy pipeline arms pre-frame
  const auto plan =
      prepare_detection_trials(frame, DetectorTap::kJamTrigger, config);

  // Batch: all trials through one jammer, in order.
  ReactiveJammer batch_jammer(sequenced);
  std::vector<std::uint64_t> batch(24);
  for (std::size_t t = 0; t < 24; ++t) {
    batch[t] = run_detection_trial(batch_jammer, plan, t).events;
    EXPECT_GT(batch[t], 0u) << "trial " << t;  // every capture fires
  }

  // Isolation: each trial on its own fresh jammer, in REVERSE order.
  std::vector<std::uint64_t> isolated(24);
  for (std::size_t t = 24; t-- > 0;) {
    ReactiveJammer jammer(sequenced);
    isolated[t] = run_detection_trial(jammer, plan, t).events;
  }
  EXPECT_EQ(isolated, batch);

  // Split at an arbitrary boundary on one reused jammer: same events.
  ReactiveJammer split_jammer(sequenced);
  std::vector<std::uint64_t> split(24);
  for (std::size_t t = 17; t < 24; ++t)
    split[t] = run_detection_trial(split_jammer, plan, t).events;
  for (std::size_t t = 0; t < 17; ++t)
    split[t] = run_detection_trial(split_jammer, plan, t).events;
  EXPECT_EQ(split, batch);
}

TEST(TrialIndependence, DetectorStateIsFlushedBetweenCaptures) {
  // A jammer that has already chewed through a capture must give the same
  // verdict on the next one as a factory-fresh jammer. Pre-fix, the energy
  // differentiator carried its armed warmup counter and a silent Z^-64
  // reference out of the previous capture, so the lead-in noise alone
  // fired a spurious rise on top of the real frame-onset detection.
  const auto frame = test_frame();
  auto config = small_run(1, 0x50F7);
  config.snr_db = 14.0;
  // Long enough for a reset detector's 96-sample comparator pipeline to
  // arm before the frame arrives: a fresh jammer detects exactly the
  // frame onset.
  config.lead_in = 128;
  const auto plan =
      prepare_detection_trials(frame, DetectorTap::kEnergyHigh, config);

  ReactiveJammer fresh(energy_reactive_preset(1e-5, 10.0));
  const auto clean = run_detection_trial(fresh, plan, 0);
  EXPECT_GT(clean.events, 0u);  // the flushed detector still works

  ReactiveJammer warmed(energy_reactive_preset(1e-5, 10.0));
  dsp::cvec silent(4096, dsp::cfloat{0.0f, 0.0f});  // arms warmup, ref = 0
  (void)warmed.observe(silent);
  const auto after = run_detection_trial(warmed, plan, 0);
  EXPECT_EQ(after.events, clean.events);
}

TEST(SweepEngine, MatchesSequentialHarnessBitForBit) {
  const auto frame = test_frame();
  const double snrs[] = {0.0, 6.0};
  const CampaignSpec spec = sweep_spec(snrs, 60, 16, 2, 0xF00D);
  const auto report = run_campaign_frames(spec, {&frame, 1});

  ASSERT_EQ(report.points.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    auto config = small_run(60, dsp::derive_seed(spec.seed, p));
    config.snr_db = snrs[p];
    ReactiveJammer jammer(xcorr_config());
    const auto sequential =
        run_detection_experiment(jammer, frame, DetectorTap::kXcorr, config);
    const auto& parallel = report.points[p].result;
    EXPECT_EQ(parallel.frames_sent, sequential.frames_sent);
    EXPECT_EQ(parallel.frames_detected, sequential.frames_detected);
    EXPECT_EQ(parallel.total_detections, sequential.total_detections);
    EXPECT_EQ(parallel.probability, sequential.probability);
    EXPECT_EQ(parallel.detections_per_frame, sequential.detections_per_frame);
  }
}

TEST(SweepEngine, BitIdenticalAcrossThreadCountsAndShardSizes) {
  const dsp::cvec frames[] = {test_frame()};
  const double snrs[] = {-3.0, 3.0, 9.0};
  const CampaignSpec reference = sweep_spec(snrs, 48, 48, 1, 0xD5);
  const auto golden = run_campaign_frames(reference, frames);

  struct Variant {
    unsigned threads;
    std::size_t shard_trials;
  };
  for (const auto [threads, shard_trials] :
       {Variant{1, 7}, Variant{2, 16}, Variant{8, 5}, Variant{8, 48}}) {
    CampaignSpec spec = reference;
    spec.threads = threads;
    spec.shard_trials = shard_trials;
    const auto report = run_campaign_frames(spec, frames);
    ASSERT_EQ(report.points.size(), golden.points.size());
    for (std::size_t p = 0; p < golden.points.size(); ++p) {
      const auto& a = golden.points[p].result;
      const auto& b = report.points[p].result;
      EXPECT_EQ(a.frames_detected, b.frames_detected)
          << "threads=" << threads << " shard=" << shard_trials << " p=" << p;
      EXPECT_EQ(a.total_detections, b.total_detections);
      EXPECT_EQ(a.probability, b.probability);  // derived from identical ints
    }
    // Merged metrics are part of the guarantee too.
    EXPECT_EQ(report.metrics.counter_value("sweep.trials"),
              golden.metrics.counter_value("sweep.trials"));
    EXPECT_EQ(report.metrics.counter_value("sweep.detections"),
              golden.metrics.counter_value("sweep.detections"));
    const auto* hist =
        report.metrics.find_histogram("sweep.detections_per_trial");
    const auto* golden_hist =
        golden.metrics.find_histogram("sweep.detections_per_trial");
    ASSERT_NE(hist, nullptr);
    ASSERT_NE(golden_hist, nullptr);
    EXPECT_EQ(hist->count(), golden_hist->count());
    EXPECT_EQ(hist->sum(), golden_hist->sum());
    for (std::size_t k = 0; k < hist->num_bins(); ++k)
      EXPECT_EQ(hist->bin_count(k), golden_hist->bin_count(k));
  }
}

TEST(SweepEngine, ReportBookkeeping) {
  const dsp::cvec frames[] = {test_frame()};
  const double snrs[] = {6.0};
  const auto report = run_campaign_frames(sweep_spec(snrs, 20, 8, 2, 1),
                                          frames);
  EXPECT_EQ(report.threads_used, 2u);
  EXPECT_EQ(report.shards_total, 3u);  // 8 + 8 + 4
  EXPECT_EQ(report.shards_run, 3u);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.trials_run, 20u);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.points[0].trials_done, 20u);
  EXPECT_EQ(report.points[0].snr_db, 6.0);
  EXPECT_EQ(report.metrics.counter_value("sweep.trials"), 20u);
  EXPECT_GT(report.wall_seconds, 0.0);
  // run_campaign_frames runs with no store: a batch window could never
  // resume.
  CampaignSpec windowed = sweep_spec(snrs, 20, 8, 2, 1);
  windowed.max_shards_this_run = 1;
  EXPECT_THROW((void)run_campaign_frames(windowed, frames),
               std::invalid_argument);
}

// Campaign observability: the campaign.* aggregates, the progress side
// channel, and a replayed trial's Chrome trace.
TEST(SweepEngine, CampaignMetricsProgressAndShardTraces) {
  const dsp::cvec frames[] = {test_frame()};
  const double snrs[] = {6.0};
  CampaignSpec spec = sweep_spec(snrs, 20, 8, 2, 1);
  spec.progress_every_shards = 1;
  std::vector<SweepProgress> progress;
  spec.progress = [&](const SweepProgress& p) { progress.push_back(p); };
  const auto report = run_campaign_frames(spec, frames);

  // Campaign aggregates: counters are schedule-derived, rates are gauges.
  EXPECT_EQ(report.metrics.counter_value("campaign.shards"), 3u);
  EXPECT_EQ(report.metrics.counter_value("campaign.trials"), 20u);
  EXPECT_EQ(report.metrics.counter_value("campaign.points"), 1u);
  ASSERT_EQ(report.metrics.gauges().count("campaign.threads"), 1u);
  EXPECT_EQ(report.metrics.gauges().at("campaign.threads"), 2.0);
  ASSERT_EQ(report.metrics.gauges().count("campaign.wall_s"), 1u);
  EXPECT_GT(report.metrics.gauges().at("campaign.wall_s"), 0.0);

  // Progress fired for every shard (every_shards = 1) and ended complete.
  ASSERT_EQ(progress.size(), 3u);
  EXPECT_EQ(progress.back().shards_done, 3u);
  EXPECT_EQ(progress.back().shards_total, 3u);
  EXPECT_EQ(progress.back().trials_done, 20u);
  EXPECT_EQ(progress.back().trials_total, 20u);
  for (std::size_t k = 1; k < progress.size(); ++k)
    EXPECT_GE(progress[k].trials_done, progress[k - 1].trials_done);

  // Fabric telemetry is per trial: replay one with a bundle attached and
  // write its trace.
  obs::TelemetryConfig tc;
  tc.probe_enabled = false;
  obs::Telemetry telemetry(tc);
  (void)replay_trial(spec, frames, 0, 13, &telemetry);
  EXPECT_GT(telemetry.metrics().counter_value("events.stream_start"), 0u);
  EXPECT_FALSE(telemetry.trace().events().empty());
  const std::string path = ::testing::TempDir() + "rjf_trial_trace.json";
  ASSERT_TRUE(telemetry.write_chrome_trace(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("stream_start"), std::string::npos);
  EXPECT_NE(body.str().find("personality"), std::string::npos);
  std::remove(path.c_str());
}

// A telemetry-attached replay of every trial sums to the untraced
// campaign's rows at any thread count: attaching telemetry changes no
// outcome.
TEST(SweepEngine, TelemetryAttachedSweepIsBitIdenticalAcrossThreads) {
  const dsp::cvec frames[] = {test_frame()};
  const double snrs[] = {3.0, 9.0};
  CampaignSpec spec = sweep_spec(snrs, 24, 8, 1, 0xAB);

  std::vector<std::uint64_t> frames_detected(spec.grid.num_points(), 0);
  std::vector<std::uint64_t> detections(spec.grid.num_points(), 0);
  obs::TelemetryConfig tc;
  tc.trace_capacity = 4096;
  tc.probe_enabled = false;
  for (std::size_t p = 0; p < spec.grid.num_points(); ++p) {
    for (std::size_t t = 0; t < spec.grid.trials_per_point; ++t) {
      obs::Telemetry telemetry(tc);
      const DetectionTrialOutcome o =
          replay_trial(spec, frames, p, t, &telemetry);
      telemetry.refresh_gauges();
      EXPECT_GT(telemetry.metrics().counter_value("obs.ring_records"), 0u);
      EXPECT_EQ(telemetry.metrics().counter_value("obs.ring_dropped"), 0u);
      detections[p] += o.events;
      if (o.events > 0) ++frames_detected[p];
    }
  }
  EXPECT_GT(frames_detected[1], 0u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    const auto report = run_campaign_frames(spec, frames);
    ASSERT_EQ(report.points.size(), frames_detected.size());
    for (std::size_t p = 0; p < frames_detected.size(); ++p) {
      EXPECT_EQ(report.points[p].result.frames_detected, frames_detected[p])
          << "threads=" << threads << " p=" << p;
      EXPECT_EQ(report.points[p].result.total_detections, detections[p])
          << "threads=" << threads << " p=" << p;
    }
  }
}

TEST(CfoPhasor, MatchesDoubleReferenceAtWimaxLength) {
  // w for a 3 kHz CFO at 25 MSPS; phases reach ~75 rad by k = 100000
  // (a WiMAX-length capture), where the pre-fix float cast of w*k only
  // resolves ~4e-6 rad granularity per ULP and drifts milliradians.
  const double w = 2.0 * std::numbers::pi * 3000.0 / 25e6;
  double worst = 0.0;
  for (const std::uint64_t k : {1000ull, 50000ull, 100000ull, 1000000ull}) {
    const dsp::cfloat got = cfo_phasor(w, k);
    const long double phase = static_cast<long double>(w) * k;
    const auto want_re = static_cast<double>(std::cos(phase));
    const auto want_im = static_cast<double>(std::sin(phase));
    worst = std::max({worst, std::abs(got.real() - want_re),
                      std::abs(got.imag() - want_im)});
  }
  // Float storage grants ~1e-7 relative precision; the pre-fix phase error
  // at k = 1e6 was ~1e-3 rad, three orders of magnitude above this bound.
  EXPECT_LT(worst, 5e-7);
}

}  // namespace
}  // namespace rjf::core
