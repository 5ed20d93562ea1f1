// Deterministic shard scheduler.
//
// Every headline result in the paper is a sweep — P_det vs SNR over 10000
// frames per point (Figs. 6-8), iperf bandwidth/PRR vs SIR (Figs. 10-11) —
// and each trial within a point is independent by construction (§3.2).
// A grid of P points × T trials is cut into shards of at most
// `shard_trials` consecutive trials of one point, and the shards are
// executed by a pool of worker threads. Detection grids run through one
// executor built on this scheduler, run_campaign (core/campaign.h); the
// Figs. 10-11 network sweeps (bench/wifi_sweep.h) drive it directly, one
// sim per point. Shards carry no telemetry: to trace, re-run one trial
// (core::replay_trial) or one network point alone with a bundle attached.
//
// Determinism guarantee: the aggregate counts of a grid depend only on
// (seed, points, trials_per_point) — NOT on the thread count, the shard
// size, or the order in which the scheduler happened to run the shards.
// Three properties enforce it:
//
//   1. Seeds derive from logical indices. A shard's RNG stream is
//      dsp::derive_seed(config.seed, shard_index) (splitmix64); the
//      detection kernel goes one level finer and derives per-TRIAL streams
//      from the point seed, so even re-sharding cannot change a trial's
//      random draws.
//   2. Shards share no mutable state. Each shard gets its own jammer /
//      fabric instance (built from the same JammerConfig), its own noise
//      and impairment RNGs, and its own obs::MetricsRegistry; the
//      read-only DetectionTrialPlan is the only shared data.
//   3. Merging is associative bookkeeping. Shard outcomes are unsigned
//      integer totals that fold by addition, so any completion order gives
//      the same sums, and floating summaries are computed from them once.
//
// See DESIGN.md "Sweep engine" for the full scheme.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace rjf::core {

/// Snapshot handed to the progress callback as shards complete: campaign
/// throughput, ETA and the faults injected so far, so a long run is
/// observable without waiting for the report. The done/total pairs count
/// the whole campaign, shards already durable before this run included;
/// the rate and ETA count only this run's trials.
struct SweepProgress {
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  double elapsed_seconds = 0.0;
  double trials_per_second = 0.0;    // this run's trials / elapsed
  double eta_seconds = 0.0;          // this run's remaining trials / rate
  std::uint64_t faults = 0;          // faults injected by this run so far
};

/// The shard scheduler's knobs: the input of make_shard_schedule. Detection
/// grids do not set them — a CampaignSpec (core/campaign.h) carries the
/// same values and run_campaign / run_campaign_frames build this from it;
/// rjf_bench and bench/wifi_sweep.h cut their own grids with
/// make_shard_schedule/run_shards.
struct SweepConfig {
  std::size_t trials_per_point = 1000;
  /// Work-unit granularity. Smaller shards balance better across workers;
  /// the aggregate result is the same for ANY value (determinism does not
  /// ride on it). 0 picks an adaptive size from the grid dimensions and
  /// worker count (see resolve_shard_trials).
  std::size_t shard_trials = 250;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
  std::uint64_t seed = 1;
};

/// One schedulable unit: a contiguous range of trials of one sweep point.
struct ShardTask {
  std::size_t point = 0;        // index into the sweep's point axis
  std::size_t index = 0;        // global shard index (result slot + seed stream)
  std::uint64_t seed = 0;       // dsp::derive_seed(config.seed, index)
  std::size_t first_trial = 0;  // offset of the shard's first trial in its point
  std::size_t trials = 0;
};

/// Adaptive shard granularity bounds: shards never shrink below
/// kMinAutoShardTrials (a ReactiveJammer build per shard must amortise)
/// and never grow beyond kMaxAutoShardTrials (a killed campaign loses at
/// most one shard of work per worker; see core/campaign.h).
inline constexpr std::size_t kMinAutoShardTrials = 16;
inline constexpr std::size_t kMaxAutoShardTrials = 4096;

/// Pick a shard size for a num_points × trials_per_point grid drained by
/// `threads` workers (0 => hardware concurrency): enough shards to balance
/// the pool (~8 per worker, at least one per point) without paying a
/// per-shard setup cost on tiny slices. Results never depend on the choice
/// — only scheduling overhead and checkpoint granularity do.
[[nodiscard]] std::size_t resolve_shard_trials(std::size_t num_points,
                                               std::size_t trials_per_point,
                                               unsigned threads);

/// Cut num_points × trials_per_point into the deterministic shard list:
/// points in order, each point's trials in contiguous shards of at most
/// config.shard_trials, global shard indices (and therefore seed streams)
/// assigned in schedule order. config.shard_trials == 0 resolves an
/// adaptive size via resolve_shard_trials(num_points, trials_per_point,
/// config.threads).
[[nodiscard]] std::vector<ShardTask> make_shard_schedule(
    std::size_t num_points, const SweepConfig& config);

/// Execute every task exactly once on a pool of `threads` workers (0 =>
/// hardware concurrency; 1 => run inline in index order, no threads
/// spawned). The kernel must write its outcome into caller-owned storage
/// keyed by task.index or task.point — slots are never contended because
/// indices are unique. The first exception thrown by a kernel aborts the
/// pool: workers stop claiming new shards (shards already in flight finish),
/// and the exception is rethrown here after the pool drains — a fatal error
/// early in a 10^6-trial campaign must not burn the rest of the grid.
/// Returns the worker count actually used — the requested count clamped to
/// tasks.size() (0 when there is no work).
unsigned run_shards(std::span<const ShardTask> tasks, unsigned threads,
                    const std::function<void(const ShardTask&)>& kernel);

}  // namespace rjf::core
