// Checkpointable million-trial campaign runner: the one executor every
// detection grid runs on.
//
// A campaign is a full grid over {protocol rate, fault scale, SNR} axes,
// cut into shards (core/sweep.h) whose seeds derive from
// dsp::derive_seed(campaign_seed, point) and — one level finer — per-trial
// streams from the point seed. The merged result is therefore
// bit-identical however the campaign is split: across worker threads,
// across shard sizes, across sequential process invocations (batch
// windows via max_shards_this_run), and across kill/resume boundaries.
// A CampaignSpec handed to run_campaign (target frames, optional store) or
// run_campaign_frames (caller-synthesised frames, no store) is the only way
// in: the Figs. 6-8 sweeps and the fault-robustness curves are one-rate
// specs run through run_campaign_frames.
//
// Durability comes from the shard store: every completed shard appends one
// fixed-width, checksummed record (point id, shard index, trial range,
// detection counts, fault counters) to a flat binary file and flushes
// it. A killed run resumes from the last durable record — the schedule is
// recomputed, already-recorded shards are skipped, and the merged report is
// a streaming fold over (stored records + freshly run shards) in which
// every accumulator is an unsigned integer, so fold order cannot change a
// byte of the output. Reports never materialise per-trial rows: memory is
// O(points), not O(trials).
//
// Observability is per trial, not per grid: a trial is a pure function of
// (campaign seed, point, trial), so replay_trial re-runs any one of them
// alone with a Telemetry bundle attached — the trace, event counters and
// latency histograms of exactly the capture behind a report row.
//
// See DESIGN.md §13 "Campaign runner" for the store format and the
// seed-space partitioning argument.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detection_experiment.h"
#include "core/sweep.h"
#include "obs/metrics.h"

namespace rjf::obs {
class Telemetry;
}  // namespace rjf::obs

namespace rjf::core {

/// The swept axes. Point ids are rate-major:
///   point = (rate_index * fault_scales.size() + scale_index) * snrs_db.size()
///         + snr_index
/// so the SNR axis is contiguous within one (rate, scale) row. With one
/// rate the point index is scale * snrs + snr.
struct CampaignGrid {
  /// Rate axis: indices into the campaign target's rate table
  /// (ProtocolTarget::rates, see core/scenario.h). {0} is the target's
  /// first rate; tools resolve Mb/s values to indices against the table.
  std::vector<std::size_t> rate_indices{0};
  std::vector<double> fault_scales{0.0};
  std::vector<double> snrs_db{0.0};
  std::size_t trials_per_point = 1000;

  struct Coords {
    std::size_t rate_index = 0;
    std::size_t scale_index = 0;
    std::size_t snr_index = 0;
  };

  [[nodiscard]] std::size_t num_points() const noexcept {
    return rate_indices.size() * fault_scales.size() * snrs_db.size();
  }
  [[nodiscard]] std::uint64_t total_trials() const noexcept {
    return static_cast<std::uint64_t>(num_points()) * trials_per_point;
  }
  [[nodiscard]] Coords coords(std::size_t point) const noexcept {
    Coords c;
    c.snr_index = point % snrs_db.size();
    const std::size_t row = point / snrs_db.size();
    c.scale_index = row % fault_scales.size();
    c.rate_index = row / fault_scales.size();
    return c;
  }
  [[nodiscard]] std::size_t point_of(const Coords& c) const noexcept {
    return (c.rate_index * fault_scales.size() + c.scale_index) *
               snrs_db.size() +
           c.snr_index;
  }
};

// ---------------------------------------------------------------------------
// Shard store: durable fixed-width records + header.

/// One durable record per completed shard. All fields are unsigned 64-bit
/// words written native-endian; `checksum` is FNV-1a over the preceding
/// words so a torn append (process killed mid-write) is detected and the
/// partial tail record dropped on load.
struct ShardRecord {
  std::uint64_t point = 0;
  std::uint64_t shard_index = 0;
  std::uint64_t first_trial = 0;
  std::uint64_t trials = 0;
  std::uint64_t frames_detected = 0;
  std::uint64_t total_detections = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t overflow_gaps = 0;
  std::uint64_t samples_lost = 0;
  std::uint64_t trigger_latency_sum = 0;    // fabric ticks, triggered trials
  std::uint64_t trigger_latency_count = 0;
  std::uint64_t checksum = 0;

  static constexpr std::size_t kWords = 12;
  using Words = std::array<std::uint64_t, kWords>;
  /// The on-disk layout: the fields above in declaration order. The one
  /// definition of the word order; load, append and the checksum use it.
  [[nodiscard]] Words to_words() const noexcept;
  [[nodiscard]] static ShardRecord from_words(const Words& words) noexcept;
  [[nodiscard]] std::uint64_t compute_checksum() const noexcept;
};

/// Identity of the campaign a store belongs to. `fingerprint` folds the
/// grid axes and every result-relevant config field (see
/// CampaignSpec::fingerprint), so resuming with a different campaign
/// definition is rejected instead of silently merging incompatible counts.
struct ShardStoreHeader {
  std::uint64_t fingerprint = 0;
  std::uint64_t campaign_seed = 0;
  std::uint64_t num_points = 0;
  std::uint64_t trials_per_point = 0;
  /// Shard granularity the schedule was cut with. Resume adopts this value
  /// (the spec's may differ, e.g. adaptive resolution under a different
  /// thread count) so record trial ranges always match the schedule.
  std::uint64_t shard_trials = 0;
  std::uint64_t num_shards = 0;

  static constexpr std::size_t kWords = 8;
  using Words = std::array<std::uint64_t, kWords>;
  /// The on-disk layout: ShardStore::kMagic, ShardStore::kVersion, then the
  /// fields above in declaration order. from_words reads the fields only;
  /// ShardStore::load checks the magic and version words.
  [[nodiscard]] Words to_words() const noexcept;
  [[nodiscard]] static ShardStoreHeader from_words(const Words& words) noexcept;
};

/// Append-only store of completed-shard records. One writer at a time;
/// appends are internally serialised and flushed so a SIGKILL loses at most
/// the record being written (never a previously appended one).
///
/// Durability: each append ends in fflush, which hands the record to the
/// OS. That survives the process being killed, but not power loss or an
/// OS crash: there is no fsync, so records still in the OS page cache can
/// be lost.
/// Byte order: words are stored native-endian, unconverted. A store
/// written on a host of the other byte order fails the magic check, so
/// load() reads it as unreadable and run_campaign rejects it untouched.
class ShardStore {
 public:
  struct Loaded {
    ShardStoreHeader header;
    std::vector<ShardRecord> records;   // valid records, file order
    std::uint64_t dropped_bytes = 0;    // torn/corrupt tail discarded on load
  };

  /// Create a fresh store (truncates any existing file) and write the
  /// header. Null on I/O failure.
  [[nodiscard]] static std::unique_ptr<ShardStore> create(
      const std::string& path, const ShardStoreHeader& header);

  /// Parse an existing store. Nullopt when the file cannot be opened or its
  /// magic/version/header is unreadable. Records with a bad checksum (torn
  /// tail) and anything after them are dropped, not errors.
  [[nodiscard]] static std::optional<Loaded> load(const std::string& path);

  /// Reopen an existing store for appending (after load()).
  [[nodiscard]] static std::unique_ptr<ShardStore> open_append(
      const std::string& path);

  ~ShardStore();
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// Append one record (checksum stamped here) and flush it to the OS.
  /// Thread-safe. Returns false on I/O failure.
  bool append(ShardRecord record);

  static constexpr std::uint64_t kMagic = 0x31504D41434A5246ull;  // "RJFCAMP1"
  static constexpr std::uint64_t kVersion = 1;

 private:
  explicit ShardStore(std::FILE* file) : file_(file) {}
  std::FILE* file_ = nullptr;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// Campaign execution.

/// Per-trial fault-axis seam. The campaign core stays independent of
/// src/fault: implementations (see fault::campaign_fault_hook_factory) wire
/// a deterministic FaultInjector keyed on (point, trial) only. One hook
/// instance is created per shard, so implementations need no internal
/// locking.
class CampaignTrialHook {
 public:
  virtual ~CampaignTrialHook() = default;
  /// Called before each trial with the point's grid.fault_scales entry
  /// (read by the executor from the spec's own grid) and the capture
  /// horizon in fabric samples.
  virtual void before_trial(ReactiveJammer& jammer, std::size_t point,
                            std::size_t trial, double fault_scale,
                            std::uint64_t horizon_samples) = 0;
  /// Called after the trial; detaches and returns faults injected.
  virtual std::uint64_t after_trial(ReactiveJammer& jammer) = 0;
};

struct CampaignSpec {
  CampaignGrid grid;
  JammerConfig jammer;
  /// Protocol-target registry key (core/scenario.h): supplies the frame
  /// factory and native sample rate for every rate-axis entry. The default
  /// reproduces the original hard-coded 802.11a/g OFDM path.
  /// run_campaign_frames only copies it into the report.
  std::string target = "wifi_ofdm";
  /// Non-swept trial knobs; snr_db / num_frames / seed overridden per
  /// point, tx_rate_hz overridden with the target's native rate.
  DetectionRunConfig base;
  DetectorTap tap = DetectorTap::kXcorr;

  /// Frame synthesised per rate-axis entry: psdu_bytes of psdu_fill through
  /// the target's transmitter at that rate.
  std::size_t psdu_bytes = 310;
  std::uint8_t psdu_fill = 0xA5;
  std::uint8_t scrambler_seed = 0x5D;

  std::uint64_t seed = 1;
  /// 0 = adaptive (resolve_shard_trials over the whole grid).
  std::size_t shard_trials = 0;
  unsigned threads = 0;
  /// Stop after completing this many shards in THIS process invocation
  /// (0 = run to completion). The deterministic "kill switch": batch
  /// windows, tests, and CI kill/resume smoke all use it; rerunning the
  /// same command resumes where the window closed. Needs a store: a run
  /// without one rejects a window with std::invalid_argument.
  std::size_t max_shards_this_run = 0;

  /// Call `progress` every N completed shards (0 = silent). Progress is a
  /// side channel: it never affects the deterministic result.
  std::size_t progress_every_shards = 0;
  std::function<void(const SweepProgress&)> progress;

  /// Per-shard trial-hook factory (empty = no fault axis; fault_scales
  /// other than 0.0 then have no effect on trials).
  std::function<std::unique_ptr<CampaignTrialHook>()> make_trial_hook;

  /// Everything that can change a trial's outcome, folded to one word for
  /// the store header: the target identity (name + resolved rate ids +
  /// native rate) is included, so a store cannot resume under a different
  /// protocol. Throws std::invalid_argument on an unknown target.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

struct CampaignPointResult {
  double rate_mbps = 0.0;
  std::uint64_t rate_id = 0;  // target-private rate encoding (TargetRate::id)
  double fault_scale = 0.0;
  double snr_db = 0.0;
  std::uint64_t trials_done = 0;        // == grid.trials_per_point when complete
  DetectionRunResult result;
  std::uint64_t faults_injected = 0;
  std::uint64_t overflow_gaps = 0;
  std::uint64_t samples_lost = 0;
  std::uint64_t trigger_latency_count = 0;
  double trigger_latency_mean_ticks = 0.0;
};

struct CampaignReport {
  CampaignGrid grid;
  std::string target;  // registry key the campaign ran against
  std::vector<CampaignPointResult> points;
  bool complete = false;
  unsigned threads_used = 0;
  std::size_t shards_total = 0;
  std::size_t shards_already_complete = 0;  // durable before this run
  std::size_t shards_run = 0;               // executed by this run
  std::uint64_t trials_run = 0;
  /// Trials covered by duplicate shard records in the store — durable work
  /// a later run redid. Stays 0: resume skips every recorded shard.
  std::uint64_t trials_replayed = 0;
  /// Trial plans prepared this run; on resume this is the number of points
  /// that still had shards outstanding, not the whole grid.
  std::size_t plans_built = 0;
  double wall_seconds = 0.0;

  /// Shard registries of THIS run (stored records carry no metrics),
  /// folded as shards finish: sweep.trials, sweep.frames_detected,
  /// sweep.detections counters, the sweep.detections_per_trial histogram,
  /// and fault.injected / fault.overflow_gaps / fault.samples_lost when
  /// faults hit. The executor stamps the campaign.* aggregates: shards,
  /// trials and points as counters; threads, wall_s and trials_per_s as
  /// gauges. Fabric telemetry is per trial: see replay_trial.
  obs::MetricsRegistry metrics;

  [[nodiscard]] double trials_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(trials_run) / wall_seconds
               : 0.0;
  }

  /// Deterministic merged report: header line + one CSV row per point in
  /// point-id order. Every value derives from the integer totals, so the
  /// bytes are identical for any thread count, shard split, or resume
  /// history that reaches the same trials. Partial campaigns render too
  /// (rows carry trials_done), but byte-identity is only meaningful for
  /// complete ones.
  [[nodiscard]] std::string to_csv() const;
};

/// Run (or resume) the campaign against the shard store at `store_path`.
/// Missing file: a fresh store is created. Existing file: it must be a
/// readable store of this kVersion, its header must match the spec's
/// fingerprint/seed/grid and its shard count the recomputed schedule, and
/// every record its schedule entry (else std::runtime_error, and the file is
/// left untouched); its shard_trials is adopted, and only unrecorded shards
/// execute. Empty path: no store — nothing is written and the report folds
/// in memory. Returns the merged report over everything durable so far.
[[nodiscard]] CampaignReport run_campaign(const CampaignSpec& spec,
                                          const std::string& store_path);

/// The grid executor with no store, over caller-synthesised frames:
/// frames[r] is rate-axis entry r's frame at spec.base.tx_rate_hz (so a
/// pseudo-frame such as Fig. 6's lone long training symbol can be swept).
/// The target, PSDU fields and rate_indices values are not consulted;
/// report rows carry rate_mbps = rate_id = 0.
[[nodiscard]] CampaignReport run_campaign_frames(
    const CampaignSpec& spec, std::span<const dsp::cvec> frames);

/// Re-run trial `trial` of grid point `point` alone, exactly as the
/// executor ran it: the point's DetectionTrialPlan, a fresh
/// ReactiveJammer(spec.jammer), spec.make_trial_hook with the point's fault
/// scale and capture horizon, then run_detection_trial. `telemetry`, when
/// non-null, is attached to the jammer for the trial and detached after,
/// so its trace, counters and histograms cover this capture alone; the
/// outcome is the same with or without it. `frames` are the caller's
/// frames of a run_campaign_frames spec; empty means a run_campaign spec,
/// whose frames are rendered from spec.target as run_campaign does.
/// Summing the outcomes of every trial of a point reproduces the point's
/// report row. Throws std::invalid_argument on a point or trial outside
/// the grid.
[[nodiscard]] DetectionTrialOutcome replay_trial(
    const CampaignSpec& spec, std::span<const dsp::cvec> frames,
    std::size_t point, std::size_t trial, obs::Telemetry* telemetry);

}  // namespace rjf::core
