#include "core/campaign.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/scenario.h"
#include "dsp/rng.h"
#include "fpga/dsp_core.h"

namespace rjf::core {

namespace {

/// FNV-1a over a sequence of 64-bit words (store checksums and the spec
/// fingerprint share it).
std::uint64_t fnv1a_words(const std::uint64_t* words, std::size_t n,
                          std::uint64_t h = 0xcbf29ce484222325ull) noexcept {
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t v = words[w];
    for (int b = 0; b < 8; ++b) {
      h ^= v & 0xFFu;
      h *= 0x100000001b3ull;
      v >>= 8;
    }
  }
  return h;
}

std::uint64_t fold_double(std::uint64_t h, double v) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  return fnv1a_words(&bits, 1, h);
}

std::uint64_t fold_word(std::uint64_t h, std::uint64_t v) noexcept {
  return fnv1a_words(&v, 1, h);
}

bool read_words(std::FILE* f, std::uint64_t* out, std::size_t n) {
  return std::fread(out, sizeof(std::uint64_t), n, f) == n;
}

/// Per-point totals folded from shard records; plain unsigned adds, so the
/// fold is associative and commutative — record order can never matter.
struct PointTotals {
  std::uint64_t trials = 0;
  std::uint64_t frames_detected = 0;
  std::uint64_t total_detections = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t overflow_gaps = 0;
  std::uint64_t samples_lost = 0;
  std::uint64_t trigger_latency_sum = 0;
  std::uint64_t trigger_latency_count = 0;

  void fold(const ShardRecord& r) noexcept {
    trials += r.trials;
    frames_detected += r.frames_detected;
    total_detections += r.total_detections;
    faults_injected += r.faults_injected;
    overflow_gaps += r.overflow_gaps;
    samples_lost += r.samples_lost;
    trigger_latency_sum += r.trigger_latency_sum;
    trigger_latency_count += r.trigger_latency_count;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// ShardRecord / ShardStore

ShardRecord::Words ShardRecord::to_words() const noexcept {
  return {point,           shard_index,     first_trial,
          trials,          frames_detected, total_detections,
          faults_injected, overflow_gaps,   samples_lost,
          trigger_latency_sum, trigger_latency_count, checksum};
}

ShardRecord ShardRecord::from_words(const Words& w) noexcept {
  return {w[0], w[1], w[2], w[3], w[4],  w[5],
          w[6], w[7], w[8], w[9], w[10], w[11]};
}

std::uint64_t ShardRecord::compute_checksum() const noexcept {
  // Every word but the checksum itself, which is last.
  return fnv1a_words(to_words().data(), kWords - 1);
}

ShardStoreHeader::Words ShardStoreHeader::to_words() const noexcept {
  return {ShardStore::kMagic, ShardStore::kVersion, fingerprint,
          campaign_seed,      num_points,           trials_per_point,
          shard_trials,       num_shards};
}

ShardStoreHeader ShardStoreHeader::from_words(const Words& w) noexcept {
  return {w[2], w[3], w[4], w[5], w[6], w[7]};
}

std::unique_ptr<ShardStore> ShardStore::create(const std::string& path,
                                               const ShardStoreHeader& header) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return nullptr;
  const ShardStoreHeader::Words words = header.to_words();
  if (std::fwrite(words.data(), sizeof(std::uint64_t), words.size(), f) !=
          words.size() ||
      std::fflush(f) != 0) {
    std::fclose(f);
    return nullptr;
  }
  return std::unique_ptr<ShardStore>(new ShardStore(f));
}

std::optional<ShardStore::Loaded> ShardStore::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  ShardStoreHeader::Words words{};
  if (!read_words(f, words.data(), words.size()) || words[0] != kMagic ||
      words[1] != kVersion) {
    std::fclose(f);
    return std::nullopt;
  }
  Loaded loaded;
  loaded.header = ShardStoreHeader::from_words(words);

  // Records until EOF; a short read or checksum mismatch means the writer
  // died mid-append — everything from that point on is discarded.
  for (;;) {
    ShardRecord::Words rec{};
    const std::size_t got =
        std::fread(rec.data(), sizeof(std::uint64_t), rec.size(), f);
    if (got == 0) break;
    const ShardRecord record = ShardRecord::from_words(rec);
    if (got != rec.size() || record.checksum != record.compute_checksum()) {
      loaded.dropped_bytes = got * sizeof(std::uint64_t);
      long pos = std::ftell(f);
      if (pos >= 0) {
        // Count whatever trails the bad record too.
        std::fseek(f, 0, SEEK_END);
        const long end = std::ftell(f);
        if (end > pos) loaded.dropped_bytes += static_cast<std::uint64_t>(end - pos);
      }
      break;
    }
    loaded.records.push_back(record);
  }
  std::fclose(f);
  return loaded;
}

std::unique_ptr<ShardStore> ShardStore::open_append(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return nullptr;
  return std::unique_ptr<ShardStore>(new ShardStore(f));
}

ShardStore::~ShardStore() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ShardStore::append(ShardRecord record) {
  record.checksum = record.compute_checksum();
  const ShardRecord::Words words = record.to_words();
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return false;
  if (std::fwrite(words.data(), sizeof(std::uint64_t), words.size(), file_) !=
      words.size())
    return false;
  return std::fflush(file_) == 0;
}

// ---------------------------------------------------------------------------
// CampaignSpec

std::uint64_t CampaignSpec::fingerprint() const {
  const ProtocolTarget& tgt = target_or_throw(target);
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fold_word(h, kTrialSynthesisVersion);
  h = fold_word(h, tgt.name.size());
  for (const char c : tgt.name)
    h = fold_word(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  h = fold_double(h, tgt.native_rate_hz);
  h = fold_word(h, grid.rate_indices.size());
  for (const std::size_t idx : grid.rate_indices) {
    h = fold_word(h, idx);
    h = fold_word(h, idx < tgt.rates.size() ? tgt.rates[idx].id : ~0ull);
  }
  h = fold_word(h, grid.fault_scales.size());
  for (const double s : grid.fault_scales) h = fold_double(h, s);
  h = fold_word(h, grid.snrs_db.size());
  for (const double s : grid.snrs_db) h = fold_double(h, s);
  h = fold_word(h, grid.trials_per_point);
  h = fold_word(h, seed);
  h = fold_word(h, static_cast<std::uint64_t>(tap));
  h = fold_word(h, psdu_bytes);
  h = fold_word(h, psdu_fill);
  h = fold_word(h, scrambler_seed);
  h = fold_double(h, base.noise_power);
  h = fold_word(h, base.lead_in);
  h = fold_word(h, base.tail);
  h = fold_double(h, base.tx_rate_hz);
  h = fold_word(h, kTimingPhases);
  h = fold_double(h, base.max_cfo_hz);
  // Detector identity: mode + thresholds. Template taps are derived from
  // the config's template vector; fold its values too so a retuned
  // detector cannot silently resume an old store.
  h = fold_word(h, static_cast<std::uint64_t>(jammer.detection));
  h = fold_word(h, static_cast<std::uint64_t>(jammer.xcorr_threshold));
  h = fold_double(h, jammer.energy_high_db);
  h = fold_double(h, jammer.energy_low_db);
  h = fold_word(h, jammer.energy_floor);
  h = fold_word(h, jammer.trigger_window_cycles);
  h = fold_word(h, jammer.xcorr_template.has_value() ? 1u : 0u);
  if (jammer.xcorr_template.has_value()) {
    for (const int c : jammer.xcorr_template->coef_i)
      h = fold_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
    for (const int c : jammer.xcorr_template->coef_q)
      h = fold_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
  }
  return h;
}

// ---------------------------------------------------------------------------
// CampaignReport

std::string CampaignReport::to_csv() const {
  char line[512];
  std::string out;
  std::snprintf(line, sizeof line,
                "# rjf-campaign-v1 target=%s points=%zu trials_per_point=%zu "
                "complete=%d\n",
                target.c_str(), points.size(), grid.trials_per_point,
                complete ? 1 : 0);
  out += line;
  out +=
      "rate_mbps,fault_scale,snr_db,trials,frames_detected,total_detections,"
      "p_det,detections_per_frame,faults_injected,overflow_gaps,samples_lost,"
      "trigger_latency_count,trigger_latency_mean_ticks\n";
  for (const CampaignPointResult& p : points) {
    std::snprintf(line, sizeof line,
                  "%g,%.9g,%.9g,%llu,%zu,%llu,%.9f,%.9f,%llu,%llu,%llu,%llu,"
                  "%.6f\n",
                  p.rate_mbps, p.fault_scale, p.snr_db,
                  static_cast<unsigned long long>(p.trials_done),
                  p.result.frames_detected,
                  static_cast<unsigned long long>(p.result.total_detections),
                  p.result.probability, p.result.detections_per_frame,
                  static_cast<unsigned long long>(p.faults_injected),
                  static_cast<unsigned long long>(p.overflow_gaps),
                  static_cast<unsigned long long>(p.samples_lost),
                  static_cast<unsigned long long>(p.trigger_latency_count),
                  p.trigger_latency_mean_ticks);
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The grid executor

namespace {

/// What run_campaign opened for the executor. The default value is "no
/// store": nothing is written and nothing resumes.
struct OpenedStore {
  std::string path;                    // names the store in errors
  std::unique_ptr<ShardStore> writer;  // null: run with no store
  ShardStoreHeader header;             // shard_trials 0 = the spec's
  std::vector<ShardRecord> records;    // durable before this run
};

[[noreturn]] void reject_store(const std::string& path,
                               const std::string& why) {
  throw std::runtime_error("run_campaign: shard store '" + path + "' " + why +
                           "; move it aside or rerun with the original spec");
}

/// The deterministic shard list of spec.grid at `shard_trials` (0 =
/// adaptive over the whole grid).
std::vector<ShardTask> campaign_schedule(const CampaignSpec& spec,
                                         std::size_t shard_trials) {
  SweepConfig config;
  config.trials_per_point = spec.grid.trials_per_point;
  config.shard_trials = shard_trials;
  config.threads = spec.threads;
  config.seed = spec.seed;
  return make_shard_schedule(spec.grid.num_points(), config);
}

/// Point `point`'s trial plan: its SNR, trial count and derived seed over
/// its rate-axis entry's frame.
DetectionTrialPlan point_plan(const CampaignSpec& spec,
                              std::span<const dsp::cvec> frames,
                              std::size_t point) {
  const CampaignGrid::Coords c = spec.grid.coords(point);
  DetectionRunConfig config = spec.base;
  config.snr_db = spec.grid.snrs_db[c.snr_index];
  config.num_frames = spec.grid.trials_per_point;
  config.seed = dsp::derive_seed(spec.seed, point);
  return prepare_detection_trials(frames[c.rate_index], spec.tap, config);
}

/// The trials of one point, run the one way execute_grid's shards and
/// replay_trial both run them, so a replayed trial cannot drift from the
/// campaign's.
class PointTrials {
 public:
  PointTrials(const CampaignSpec& spec, std::size_t point,
              const DetectionTrialPlan& plan)
      : plan_(plan),
        point_(point),
        fault_scale_(
            spec.grid.fault_scales[spec.grid.coords(point).scale_index]),
        lead_ticks_(static_cast<std::uint64_t>(plan.lead_in) *
                    fpga::kClocksPerSample) {
    std::size_t max_variant = 0;
    for (const dsp::cvec& v : plan.variants)
      max_variant = std::max(max_variant, v.size());
    horizon_ = plan.lead_in + max_variant + plan.tail;
  }

  /// Run `trial` on `jammer` between the hook's before/after calls (when
  /// there is a hook) and fold its outcome into `record`.
  DetectionTrialOutcome run(ReactiveJammer& jammer, CampaignTrialHook* hook,
                            std::size_t trial, ShardRecord& record) const {
    if (hook != nullptr)
      hook->before_trial(jammer, point_, trial, fault_scale_, horizon_);
    const DetectionTrialOutcome outcome =
        run_detection_trial(jammer, plan_, trial);
    if (hook != nullptr) record.faults_injected += hook->after_trial(jammer);
    record.total_detections += outcome.events;
    if (outcome.events > 0) ++record.frames_detected;
    record.overflow_gaps += outcome.overflow_gaps;
    record.samples_lost += outcome.samples_lost;
    if (outcome.jam_triggers > 0 && outcome.last_trigger_vita >= lead_ticks_) {
      record.trigger_latency_sum += outcome.last_trigger_vita - lead_ticks_;
      ++record.trigger_latency_count;
    }
    return outcome;
  }

 private:
  const DetectionTrialPlan& plan_;
  std::size_t point_;
  double fault_scale_;
  std::uint64_t lead_ticks_;   // frame start: the trigger-latency origin
  std::uint64_t horizon_ = 0;  // capture length in fabric samples
};

/// Run every shard of spec.grid that `store` has not recorded, rate-axis
/// entry r drawing its trials from frames[r] (at spec.base.tx_rate_hz), and
/// fold stored and fresh shards into one report.
CampaignReport execute_grid(const CampaignSpec& spec,
                            std::span<const dsp::cvec> frames,
                            const OpenedStore& store) {
  const auto started = std::chrono::steady_clock::now();  // rjf-analyze: allow(fabric.wall-clock-or-rand) elapsed-time report only
  const CampaignGrid& grid = spec.grid;
  const std::size_t num_points = grid.num_points();
  if (num_points == 0 || grid.trials_per_point == 0)
    throw std::invalid_argument("run_campaign: empty grid");
  if (frames.size() != grid.rate_indices.size())
    throw std::invalid_argument(
        "run_campaign: need one frame per rate-axis entry");
  if (spec.max_shards_this_run > 0 && store.writer == nullptr)
    throw std::invalid_argument(
        "run_campaign: max_shards_this_run needs a shard store (a window "
        "without one can never resume)");

  const std::vector<ShardTask> schedule = campaign_schedule(
      spec, store.header.shard_trials != 0
                ? static_cast<std::size_t>(store.header.shard_trials)
                : spec.shard_trials);
  if (store.writer != nullptr && store.header.num_shards != schedule.size())
    reject_store(store.path,
                 "header lists " + std::to_string(store.header.num_shards) +
                     " shards of " +
                     std::to_string(store.header.shard_trials) +
                     " trials where the spec cuts " +
                     std::to_string(schedule.size()) + " (corrupt header)");

  // Fold durable records into per-point totals. Each must cover exactly its
  // schedule entry's trials — anything else is corruption, and merging it
  // would silently miscount. Duplicates (there should never be any — resume
  // skips recorded shards) count as replayed work and are excluded from the
  // totals so the merge stays exact.
  std::vector<PointTotals> totals(num_points);
  std::vector<bool> recorded(schedule.size(), false);
  std::uint64_t trials_replayed = 0;
  std::uint64_t trials_durable = 0;
  for (const ShardRecord& r : store.records) {
    if (r.shard_index >= schedule.size() ||
        r.point != schedule[r.shard_index].point ||
        r.first_trial != schedule[r.shard_index].first_trial ||
        r.trials != schedule[r.shard_index].trials)
      reject_store(store.path,
                   "has a record for shard " + std::to_string(r.shard_index) +
                       " covering point " + std::to_string(r.point) +
                       " trials [" + std::to_string(r.first_trial) + ", " +
                       std::to_string(r.first_trial + r.trials) +
                       ") that the schedule does not (corrupt record)");
    if (recorded[r.shard_index]) {
      trials_replayed += r.trials;
      continue;
    }
    recorded[r.shard_index] = true;
    totals[r.point].fold(r);
    trials_durable += r.trials;
  }
  std::size_t shards_already_complete = 0;
  for (const bool done : recorded) shards_already_complete += done ? 1 : 0;

  // The work that remains, in schedule order; an optional batch window
  // bounds how much of it THIS invocation runs.
  std::vector<ShardTask> remaining;
  remaining.reserve(schedule.size() - shards_already_complete);
  for (const ShardTask& task : schedule)
    if (!recorded[task.index]) remaining.push_back(task);
  if (spec.max_shards_this_run > 0 &&
      remaining.size() > spec.max_shards_this_run)
    remaining.resize(spec.max_shards_this_run);

  // Plans build lazily per point from whichever worker reaches it first —
  // a resumed campaign only prepares the points that still have shards
  // outstanding.
  LazyPlanTable plans(num_points, [&](std::size_t point) {
    return point_plan(spec, frames, point);
  });
  CampaignReport report;

  // Bookkeeping under one mutex — shards are coarse, so contention is
  // negligible next to the trials themselves. The progress callback runs
  // under it too, so reports arrive in the order their counts were taken.
  // Progress is a side channel; it never feeds the report's deterministic
  // fields.
  std::uint64_t window_trials = 0;
  for (const ShardTask& task : remaining) window_trials += task.trials;
  std::mutex merge_mutex;
  std::size_t shards_run = 0;
  std::uint64_t trials_run = 0;
  std::uint64_t faults_run = 0;
  bool append_failed = false;

  const unsigned pool_size =
      run_shards(remaining, spec.threads, [&](const ShardTask& task) {
        const PointTrials trials(spec, task.point, plans.get(task.point));
        // Every shard programs its own jammer/fabric instance from the
        // shared personality: no mutable state crosses shard boundaries.
        ReactiveJammer jammer(spec.jammer);
        std::unique_ptr<CampaignTrialHook> hook;
        if (spec.make_trial_hook) hook = spec.make_trial_hook();
        obs::MetricsRegistry metrics;
        // 0..14 events per trial, then overflow; covers Fig. 8's
        // over-trigger band (a few detections/frame) with headroom.
        obs::Histogram& per_trial =
            metrics.histogram("sweep.detections_per_trial", 0, 1, 15);

        ShardRecord record;
        record.point = task.point;
        record.shard_index = task.index;
        record.first_trial = task.first_trial;
        record.trials = task.trials;
        for (std::size_t t = task.first_trial;
             t < task.first_trial + task.trials; ++t)
          per_trial.record(trials.run(jammer, hook.get(), t, record).events);
        metrics.add("sweep.trials", record.trials);
        metrics.add("sweep.frames_detected", record.frames_detected);
        metrics.add("sweep.detections", record.total_detections);
        // Fault counters only when something happened, so a zero-fault
        // row's metrics match a hookless run's exactly.
        if (record.faults_injected > 0)
          metrics.add("fault.injected", record.faults_injected);
        if (record.overflow_gaps > 0) {
          metrics.add("fault.overflow_gaps", record.overflow_gaps);
          metrics.add("fault.samples_lost", record.samples_lost);
        }

        // Durable first, merged second: a kill between the two re-runs
        // nothing (the record is already on disk; the in-memory fold is
        // rebuilt from it on resume).
        const bool appended =
            store.writer == nullptr || store.writer->append(record);

        const std::lock_guard<std::mutex> lock(merge_mutex);
        totals[task.point].fold(record);
        report.metrics.merge(metrics);
        if (!appended) append_failed = true;
        ++shards_run;
        trials_run += task.trials;
        faults_run += record.faults_injected;
        if (spec.progress_every_shards > 0 && spec.progress &&
            (shards_run % spec.progress_every_shards == 0 ||
             shards_run == remaining.size())) {
          SweepProgress prog;
          prog.shards_done = shards_already_complete + shards_run;
          prog.shards_total = schedule.size();
          prog.trials_done = trials_durable + trials_run;
          prog.trials_total = grid.total_trials();
          prog.faults = faults_run;
          prog.elapsed_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - started)  // rjf-analyze: allow(fabric.wall-clock-or-rand) elapsed-time report only
                  .count();
          if (prog.elapsed_seconds > 0.0)
            prog.trials_per_second =
                static_cast<double>(trials_run) / prog.elapsed_seconds;
          if (prog.trials_per_second > 0.0)
            prog.eta_seconds =
                static_cast<double>(window_trials - trials_run) /
                prog.trials_per_second;
          spec.progress(prog);
        }
      });

  if (append_failed)
    throw std::runtime_error(
        "run_campaign: shard store append failed (disk full?); completed "
        "shards up to the failure are durable");

  report.grid = grid;
  report.target = spec.target;
  report.threads_used = std::max(1u, pool_size);
  report.shards_total = schedule.size();
  report.shards_already_complete = shards_already_complete;
  report.shards_run = shards_run;
  report.trials_run = trials_run;
  report.trials_replayed = trials_replayed;
  report.plans_built = plans.plans_built();
  report.complete = shards_already_complete + shards_run == schedule.size();

  report.points.resize(num_points);
  for (std::size_t p = 0; p < num_points; ++p) {
    const CampaignGrid::Coords c = grid.coords(p);
    CampaignPointResult& point = report.points[p];
    point.fault_scale = grid.fault_scales[c.scale_index];
    point.snr_db = grid.snrs_db[c.snr_index];
    const PointTotals& tot = totals[p];
    point.trials_done = tot.trials;
    point.result.frames_sent = static_cast<std::size_t>(tot.trials);
    point.result.frames_detected =
        static_cast<std::size_t>(tot.frames_detected);
    point.result.total_detections = tot.total_detections;
    if (tot.trials > 0) {
      point.result.probability = static_cast<double>(tot.frames_detected) /
                                 static_cast<double>(tot.trials);
      point.result.detections_per_frame =
          static_cast<double>(tot.total_detections) /
          static_cast<double>(tot.trials);
    }
    point.faults_injected = tot.faults_injected;
    point.overflow_gaps = tot.overflow_gaps;
    point.samples_lost = tot.samples_lost;
    point.trigger_latency_count = tot.trigger_latency_count;
    if (tot.trigger_latency_count > 0)
      point.trigger_latency_mean_ticks =
          static_cast<double>(tot.trigger_latency_sum) /
          static_cast<double>(tot.trigger_latency_count);
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)  // rjf-analyze: allow(fabric.wall-clock-or-rand) elapsed-time report only
          .count();

  // Campaign-level aggregates ride the same registry as the merged shard
  // metrics. Counters stay deterministic; wall-clock rates are gauges,
  // which merges treat as point-in-time readings.
  report.metrics.counter("campaign.shards") = report.shards_run;
  report.metrics.counter("campaign.trials") = report.trials_run;
  report.metrics.counter("campaign.points") = num_points;
  report.metrics.set_gauge("campaign.threads",
                           static_cast<double>(report.threads_used));
  report.metrics.set_gauge("campaign.wall_s", report.wall_seconds);
  report.metrics.set_gauge("campaign.trials_per_s", report.trials_per_second());
  return report;
}

/// Part one of run_campaign: load and check the store at `path`, or create
/// it. An empty path opens nothing.
OpenedStore open_store(const CampaignSpec& spec, const std::string& path) {
  OpenedStore store;
  store.path = path;
  if (path.empty()) return store;

  const CampaignGrid& grid = spec.grid;
  ShardStoreHeader& header = store.header;
  header.fingerprint = spec.fingerprint();
  header.campaign_seed = spec.seed;
  header.num_points = grid.num_points();
  header.trials_per_point = grid.trials_per_point;
  header.shard_trials =
      spec.shard_trials != 0
          ? spec.shard_trials
          : resolve_shard_trials(grid.num_points(), grid.trials_per_point,
                                 spec.threads);

  // Only a missing path creates a store. Anything else at the path must be
  // a readable store of this version: "wb" would wipe a file that is not
  // (a CSV given by mistake, a store from another version).
  std::error_code ec;
  if (std::filesystem::exists(path, ec) || ec) {
    auto loaded = ShardStore::load(path);
    if (!loaded)
      reject_store(path, "is not a readable version-" +
                             std::to_string(ShardStore::kVersion) +
                             " campaign store (wrong magic or version, or a "
                             "header shorter than " +
                             std::to_string(ShardStoreHeader::kWords) +
                             " words)");
    // On resume the stored shard granularity wins (the schedule must match
    // the records), and every identity field must agree.
    const ShardStoreHeader& on_disk = loaded->header;
    if (on_disk.fingerprint != header.fingerprint ||
        on_disk.campaign_seed != header.campaign_seed ||
        on_disk.num_points != header.num_points ||
        on_disk.trials_per_point != header.trials_per_point)
      reject_store(path,
                   "belongs to a different campaign (fingerprint mismatch)");
    header = on_disk;
    store.records = std::move(loaded->records);
    store.writer = ShardStore::open_append(path);
  } else {
    header.num_shards = campaign_schedule(spec, header.shard_trials).size();
    store.writer = ShardStore::create(path, header);
  }
  if (store.writer == nullptr)
    throw std::runtime_error("run_campaign: cannot open shard store '" + path +
                             "'");
  return store;
}

/// A run_campaign spec resolved against its protocol target: one frame per
/// rate-axis entry (shared by every scale×SNR point of that rate), and the
/// spec with base.tx_rate_hz set to the target's native rate. Rejects rate
/// indices outside the target's rate table.
struct ResolvedTarget {
  const ProtocolTarget& target;
  CampaignSpec spec;
  std::vector<dsp::cvec> frames;
};

ResolvedTarget resolve_target(const CampaignSpec& spec) {
  const ProtocolTarget& target = target_or_throw(spec.target);
  for (const std::size_t idx : spec.grid.rate_indices)
    if (idx >= target.rates.size())
      throw std::invalid_argument(
          "run_campaign: rate index " + std::to_string(idx) +
          " out of range for target '" + target.name + "' (" +
          std::to_string(target.rates.size()) + " rates)");
  ResolvedTarget resolved{target, spec, {}};
  resolved.spec.base.tx_rate_hz = target.native_rate_hz;
  resolved.frames.reserve(spec.grid.rate_indices.size());
  for (const std::size_t idx : spec.grid.rate_indices)
    resolved.frames.push_back(target_frame(target, idx, spec.psdu_bytes,
                                           spec.psdu_fill,
                                           spec.scrambler_seed));
  return resolved;
}

}  // namespace

CampaignReport run_campaign(const CampaignSpec& spec,
                            const std::string& store_path) {
  const CampaignGrid& grid = spec.grid;
  if (grid.num_points() == 0 || grid.trials_per_point == 0)
    throw std::invalid_argument("run_campaign: empty grid");
  const ResolvedTarget resolved = resolve_target(spec);
  const OpenedStore store = open_store(spec, store_path);

  CampaignReport report = execute_grid(resolved.spec, resolved.frames, store);
  for (std::size_t p = 0; p < report.points.size(); ++p) {
    const TargetRate& rate =
        resolved.target.rates[grid.rate_indices[grid.coords(p).rate_index]];
    report.points[p].rate_mbps = rate.mbps;
    report.points[p].rate_id = rate.id;
  }
  return report;
}

CampaignReport run_campaign_frames(const CampaignSpec& spec,
                                   std::span<const dsp::cvec> frames) {
  return execute_grid(spec, frames, OpenedStore{});
}

DetectionTrialOutcome replay_trial(const CampaignSpec& spec,
                                   std::span<const dsp::cvec> frames,
                                   std::size_t point, std::size_t trial,
                                   obs::Telemetry* telemetry) {
  if (point >= spec.grid.num_points() || trial >= spec.grid.trials_per_point)
    throw std::invalid_argument(
        "replay_trial: point " + std::to_string(point) + " trial " +
        std::to_string(trial) + " is outside the grid (" +
        std::to_string(spec.grid.num_points()) + " points of " +
        std::to_string(spec.grid.trials_per_point) + " trials)");
  if (frames.empty()) {
    const ResolvedTarget resolved = resolve_target(spec);
    return replay_trial(resolved.spec, resolved.frames, point, trial,
                        telemetry);
  }
  if (frames.size() != spec.grid.rate_indices.size())
    throw std::invalid_argument(
        "replay_trial: need one frame per rate-axis entry");

  const DetectionTrialPlan plan = point_plan(spec, frames, point);
  ReactiveJammer jammer(spec.jammer);
  std::unique_ptr<CampaignTrialHook> hook;
  if (spec.make_trial_hook) hook = spec.make_trial_hook();
  if (telemetry != nullptr) jammer.attach_trace(telemetry);
  ShardRecord record;  // the executor's fold; the outcome is what we return
  const DetectionTrialOutcome outcome =
      PointTrials(spec, point, plan).run(jammer, hook.get(), trial, record);
  if (telemetry != nullptr) jammer.attach_trace(nullptr);
  return outcome;
}

}  // namespace rjf::core
