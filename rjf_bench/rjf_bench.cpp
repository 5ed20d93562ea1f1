// rjf_bench — end-to-end benchmark program for the reactive-jamming framework.
//
// One invocation runs ONE workload in this process, so peak RSS is per
// workload. run.py (the benchmark's entry point) builds this binary, calls
// it once per measurement and checks the outputs it prints against
// reference.json; README.md describes the workloads and the metric map.
//
//   rjf_bench --workload NAME --seed S --seconds T [--trace] [--tmpdir DIR]
//   rjf_bench --workload NAME --seed S --setup-only
//   rjf_bench --workload NAME --seed S --reference
//   (--smoke shrinks every size for the self-test)
//
// The library only ever sees inputs generated here from --seed. Timing is
// taken only around calls into public library functions; nothing in src/
// is instrumented for this benchmark.
//
// Untraced mode measures the end-to-end metrics. --trace first repeats the
// untraced measurement, then replays exactly the same work through the
// library's public building blocks with a steady_clock span around each
// call, and counts every unit whose replayed outputs differ from the
// untraced ones as an error.
//
// End-to-end times are reference seconds: host time rescaled by the speed
// of the core it ran on, which a ClockSampler measures while the work runs.
//
// Output: human-readable lines, then one JSON object on the last line.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/presets.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "fpga/dsp_core.h"
#include "net/mac_frame.h"
#include "net/waveform_cache.h"
#include "net/wifi_network.h"
#include "obs/events.h"
#include "obs/telemetry.h"
#include "phy80211/rates.h"
#include "radio/adc_dac.h"

using namespace rjf;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Cores this process may run on, read once at start-up (before any thread
/// is pinned). std::thread::hardware_concurrency() reports the machine, not
/// the affinity or cgroup mask of a shared host.
const std::vector<int>& affinity_cores() {
  static const std::vector<int> cores = [] {
    std::vector<int> c;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int i = 0; i < CPU_SETSIZE; ++i)
        if (CPU_ISSET(i, &set)) c.push_back(i);
    return c;
  }();
  return cores;
}

unsigned host_cores() {
  const std::size_t n = affinity_cores().size();
  return n > 0 ? static_cast<unsigned>(n)
               : std::max(1u, std::thread::hardware_concurrency());
}

/// Load comes from this one process and never uses more than 4 threads.
unsigned bench_threads() { return std::min(4u, host_cores()); }

/// The cores the workload runs on: the first bench_threads() cores of the
/// affinity mask (all cores' ids, if the mask cannot be read).
std::vector<int> worker_cores() {
  std::vector<int> cores = affinity_cores();
  if (cores.empty())
    for (unsigned c = 0; c < bench_threads(); ++c)
      cores.push_back(static_cast<int>(c));
  cores.resize(std::min<std::size_t>(cores.size(), bench_threads()));
  return cores;
}

/// Slot in worker_cores() of the core the calling thread is pinned to.
thread_local std::size_t this_thread_slot = 0;

void pin_to_slot(std::size_t slot) {
  const std::vector<int> cores = worker_cores();
  this_thread_slot = slot % cores.size();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cores[this_thread_slot], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins the calling worker thread, once, to the next worker core. A host
/// whose cpuset turns scheduler load balancing off (sched_load_balance=0,
/// as on some shared VMs) leaves every thread a pool creates on its
/// creator's core, so a 4-thread pool may share one core for a whole run.
/// Pools run one at a time and have at most as many workers as there are
/// worker cores, so one pool's pins are consecutive and land on distinct
/// cores, as a balancing scheduler would place them.
void pin_worker_thread() {
  static std::atomic<std::size_t> next{0};
  thread_local bool pinned = false;
  if (pinned) return;
  pinned = true;
  pin_to_slot(next++);
}

// ---------------------------------------------------------------------------
// Host speed. On a shared host a core's speed changes by up to a third for
// seconds at a time, whenever another tenant's work runs on the same
// physical core; no run is long enough to average that out. A ClockSampler
// thread per worker core therefore times a fixed speed probe every
// kSamplePeriod. The probe runs at kRefProbeNs / (its time) of its
// uncontended speed. A contended core slows the workloads more than the
// probe: their rates go with the probe's speed to a power, their
// sensitivity. A core's speed for a workload is the probe's speed to that
// power: about 1 on an uncontended core, less on a shared one.
//
// The end-to-end rates use this twice. Work that took T host seconds at
// mean speed v took T * v reference seconds, which corrects for changes of
// speed. How much a contended core slows the workload also depends on what
// the other tenant runs, so units of work (stream cycles, campaign rounds,
// network sims) that ran at less than kFastShare of the run's fast speed
// are left out as well.

constexpr std::size_t kProbeFloats = 256;
constexpr int kProbePasses = 8;
/// The probe's time on an uncontended core of the 4-vCPU Xeon host the
/// benchmark was defined on. Any constant works; this one keeps reference
/// seconds close to uncontended host seconds there.
constexpr double kRefProbeNs = 1350.0;
constexpr auto kSamplePeriod = std::chrono::milliseconds(2);
/// A unit counts when its cores ran at no less than this share of the 90th
/// percentile of the run's unit speeds.
constexpr double kFastShare = 0.9;

/// Sensitivity of a workload to its cores' speed: the slope of log rate
/// over log probe speed across the units of ten runs on the defining host
/// came out near 1.2 for the campaigns and the network and near 1.5 for
/// the stream.
double sensitivity(const std::string& workload) {
  return workload == "stream_realtime" ? 1.5 : 1.25;
}

/// The speed probe: passes over a small array, each element a load, a
/// multiply, an add that depends on the previous one, and a store. A
/// chain of adds alone runs at full speed while the core's other
/// hyperthread is busy; the loads and stores around it feel that sharing
/// as the workload does.
[[gnu::noinline]] float speed_probe(float* a) {
  float acc = 0.0f;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < kProbeFloats; ++i) {
      sum += a[i] * 1.0001f;
      a[i] = sum * 0.5f;
    }
    acc += sum;
  }
  return acc;
}

class ClockSampler {
 public:
  /// Starts one sampling thread on each worker core; speeds are for a
  /// workload of the given sensitivity.
  explicit ClockSampler(double sensitivity)
      : sensitivity_(sensitivity), slots_(worker_cores().size()) {
    for (std::size_t s = 0; s < slots_.size(); ++s)
      threads_.emplace_back([this, s] { sample(s); });
  }
  ~ClockSampler() { stop(); }
  ClockSampler(const ClockSampler&) = delete;
  ClockSampler& operator=(const ClockSampler&) = delete;

  /// Stops and joins the sampling threads; the queries below read the
  /// samples unlocked, so they are valid only after this.
  void stop() {
    stop_ = true;
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

  /// Mean speed for the workload of the core in `slot` over [a, b]: the
  /// mean over its samples inside the interval, or its sample nearest to
  /// the middle of an interval too short to hold one.
  [[nodiscard]] double speed(std::size_t slot, Clock::time_point a,
                             Clock::time_point b) const {
    return mean_speed(slot, a, b, sensitivity_);
  }

  /// The same for the probe itself. Set-up is a single short unit per
  /// process, measured in whatever state the core is in; raising the
  /// probe's speed to a power there only adds the probe's own noise.
  [[nodiscard]] double probe_speed(std::size_t slot, Clock::time_point a,
                                   Clock::time_point b) const {
    return mean_speed(slot, a, b, 1.0);
  }

  /// Mean speed for the workload of all samples, and how many there are.
  [[nodiscard]] std::pair<double, std::size_t> overall() const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const std::vector<Sample>& v : slots_)
      for (const Sample& s : v) {
        sum += std::pow(s.probe, sensitivity_);
        ++n;
      }
    return {n > 0 ? sum / static_cast<double>(n) : 0.0, n};
  }

  /// Mean speed over [a, b] of all worker cores, for work spread over all
  /// of them.
  [[nodiscard]] double speed_all(Clock::time_point a,
                                 Clock::time_point b) const {
    double sum = 0.0;
    for (std::size_t s = 0; s < slots_.size(); ++s) sum += speed(s, a, b);
    return sum / static_cast<double>(slots_.size());
  }

 private:
  struct Sample {
    Clock::time_point t;
    double probe;  // the probe's speed, kRefProbeNs over its time
  };
  static bool before(const Sample& s, Clock::time_point t) { return s.t < t; }
  static bool after(Clock::time_point t, const Sample& s) { return t < s.t; }

  [[nodiscard]] double mean_speed(std::size_t slot, Clock::time_point a,
                                  Clock::time_point b, double power) const {
    const std::vector<Sample>& v = slots_.at(slot);
    if (v.empty()) throw std::runtime_error("clock sampler took no samples");
    const auto lo = std::lower_bound(v.begin(), v.end(), a, before);
    const auto hi = std::upper_bound(v.begin(), v.end(), b, after);
    if (lo < hi) {
      double sum = 0.0;
      for (auto it = lo; it != hi; ++it) sum += std::pow(it->probe, power);
      return sum / static_cast<double>(hi - lo);
    }
    const Clock::time_point mid = a + (b - a) / 2;
    auto nearest = lo;
    if (lo == v.end() ||
        (lo != v.begin() && mid - std::prev(lo)->t < lo->t - mid))
      nearest = std::prev(lo);
    return std::pow(nearest->probe, power);
  }

  void sample(std::size_t slot) {
    pin_to_slot(slot);
    std::vector<float> probe(kProbeFloats, 1.0f);
    volatile float sink = 0.0f;
    std::vector<Sample>& out = slots_[slot];
    while (!stop_) {
      // Best of three, so an interrupt inside one probe does not count.
      double best_ns = HUGE_VAL;
      for (int k = 0; k < 3; ++k) {
        std::fill(probe.begin(), probe.end(), 1.0f);  // same values each time
        const Clock::time_point t0 = Clock::now();
        sink = sink + speed_probe(probe.data());
        best_ns = std::min(
            best_ns, std::chrono::duration<double, std::nano>(Clock::now() -
                                                              t0)
                         .count());
      }
      out.push_back({Clock::now(), kRefProbeNs / best_ns});
      std::this_thread::sleep_for(kSamplePeriod);
    }
  }

  double sensitivity_;
  std::vector<std::vector<Sample>> slots_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Which units ran on fast cores, given each unit's mean core speed.
std::vector<bool> fast_units(const std::vector<double>& speeds) {
  const double floor = kFastShare * percentile(speeds, 0.9);
  std::vector<bool> fast;
  for (const double s : speeds) fast.push_back(s >= floor);
  return fast;
}

/// A run's rate from its units' host rates and mean core speeds: the median
/// reference rate of the units that ran on fast cores. Prints the spread of
/// the kept units' rates, in reference and in host seconds.
double fast_rate(const char* unit, const std::vector<double>& host_rates,
                 const std::vector<double>& speeds) {
  const std::vector<bool> fast = fast_units(speeds);
  std::vector<double> ref, host;
  for (std::size_t i = 0; i < host_rates.size(); ++i)
    if (fast[i]) {
      host.push_back(host_rates[i]);
      ref.push_back(host_rates[i] / speeds[i]);
    }
  std::printf(
      "  air s / reference s per %s: p25 %.4f  p50 %.4f  p75 %.4f  (%zu of "
      "%zu %ss on fast cores)\n"
      "  air s / host s per %s:      p25 %.4f  p50 %.4f  p75 %.4f\n",
      unit, percentile(ref, 0.25), percentile(ref, 0.5),
      percentile(ref, 0.75), ref.size(), host_rates.size(), unit, unit,
      percentile(host, 0.25), percentile(host, 0.5), percentile(host, 0.75));
  return percentile(ref, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a, for printing a short digest of a report.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Options and result

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool reference = false;
  bool smoke = false;
  std::string tmpdir = ".";
};

/// Per-layer metrics, in print order. Every workload prints all of them; a
/// layer the workload does not time from outside reads 0 (README.md maps
/// each metric to the workloads that time it).
constexpr const char* kLayerMetrics[] = {
    "dsp.noise_s",          "dsp.noise_ns_per_sample",
    "core.cfo_s",           "core.cfo_ns_per_sample",
    "core.trial_prep_s",    "fpga.reset_s",
    "radio.adc_s",          "radio.adc_ns_per_sample",
    "fpga.stream_s",        "fpga.stream_ns_per_sample",
    "core.plan_build_s",    "core.plan_wait_s",
    "core.shard_setup_s",   "core.store_append_s",
    "core.pool_busy_frac",  "core.unattributed_s",
    "radio.stream_calls",   "radio.settings_writes_per_reconfigure",
    "net.other_s",          "net.pool_busy_frac",
    "net.data_frames",      "net.retries",
    "net.cca_defers",       "net.waveform_cache_hits",
    "net.waveform_cache_misses",
    "stream.block_p50_us",  "stream.block_p99_us",
    "stream.deadline_miss_frac",
    "core.trials",          "core.shards",
    "fpga.samples",         "fpga.xcorr_detections",
    "fpga.jam_triggers",    "obs.trace_overhead_x",
};

struct Result {
  Clock::time_point setup_end;    // set-up runs on the main thread
  std::uint64_t units = 0;        // shards, sims or blocks attempted
  std::uint64_t unit_errors = 0;  // units whose traced replay disagreed
  double air_s_per_ref_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, double> layers;
  std::string checks = "[]";      // JSON array of check inputs for run.py

  Result() {
    for (const char* name : kLayerMetrics) layers[name] = 0.0;
  }
  void set(const char* name, double value) {
    if (!layers.contains(name))
      throw std::logic_error(std::string("unknown layer metric ") + name);
    layers[name] = value;
  }
};

/// Busy-time accumulator for back-to-back spans on one thread.
class Lap {
 public:
  Lap() : last_(Clock::now()) {}
  void mark() { last_ = Clock::now(); }
  /// Seconds since the previous mark() or lap(); starts the next span.
  double lap() {
    const Clock::time_point now = Clock::now();
    const double s = seconds_between(last_, now);
    last_ = now;
    return s;
  }

 private:
  Clock::time_point last_;
};

// ---------------------------------------------------------------------------
// Campaign workloads: core::run_campaign over a {rate x SNR} grid, repeated
// in rounds of a fixed trial count until the measuring time is used up.

struct CampaignShape {
  const char* target;
  std::vector<std::size_t> rate_indices;
  std::vector<double> snrs_db;
  std::size_t psdu_bytes;
  std::size_t trials_per_round;  // per point
  std::size_t reference_trials;  // per point, for reference.json
};

CampaignShape campaign_shape(const std::string& workload) {
  if (workload == "campaign_ofdm")
    // 6 and 54 Mb/s, 64-byte PSDU: 1k-3k sample captures, so per-trial
    // fixed costs (detector reset, capture allocation, per-shard jammer
    // build and store append) weigh most.
    return {"wifi_ofdm", {0, 7}, {-4.0, -2.0, 0.0, 2.0, 4.0}, 64, 800,
            160000};
  // 1 and 11 Mb/s, 310-byte PSDU: a 1 Mb/s capture is ~67k samples, so
  // per-sample costs dominate and each 1 Mb/s plan build stalls a worker.
  return {"wifi_dsss", {0, 3}, {-4.0, 0.0, 4.0}, 310, 192, 9600};
}

struct CampaignSetup {
  core::CampaignSpec spec;
  std::vector<std::uint64_t> samples_per_trial;  // per rate-axis entry
};

CampaignSetup setup_campaign(const Options& opt) {
  const CampaignShape shape = campaign_shape(opt.workload);
  const core::ProtocolTarget& target = core::target_or_throw(shape.target);
  CampaignSetup s;
  core::CampaignSpec& spec = s.spec;
  spec.target = shape.target;
  spec.jammer = core::target_reactive_preset(target, 100e-6);
  spec.tap = core::DetectorTap::kXcorr;
  spec.psdu_bytes = shape.psdu_bytes;
  spec.base.lead_in = 128;
  spec.base.tail = 128;
  spec.grid.rate_indices = shape.rate_indices;
  spec.grid.snrs_db = shape.snrs_db;
  spec.grid.trials_per_point =
      opt.reference ? shape.reference_trials
      : opt.smoke   ? std::max<std::size_t>(shape.trials_per_round / 16, 3)
                    : shape.trials_per_round;
  spec.threads = bench_threads();
  // The per-shard hook factory runs on the worker thread; it only pins it.
  spec.make_trial_hook = [] {
    pin_worker_thread();
    return std::unique_ptr<core::CampaignTrialHook>();
  };

  // Capture length per rate, sized as the trial kernel sizes it: lead-in +
  // the frame resampled to the fabric rate + tail. The traced replay checks
  // this against the captures it actually streams.
  const dsp::Resampler to_fabric(target.native_rate_hz, fpga::kBasebandRateHz);
  for (const std::size_t r : spec.grid.rate_indices) {
    const dsp::cvec frame = core::target_frame(target, r, spec.psdu_bytes,
                                               spec.psdu_fill,
                                               spec.scrambler_seed);
    const auto resampled = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(frame.size()) * to_fabric.ratio()));
    s.samples_per_trial.push_back(spec.base.lead_in + resampled +
                                  spec.base.tail);
  }
  return s;
}

std::string point_label(const core::CampaignSpec& spec, std::size_t point) {
  const core::CampaignGrid::Coords c = spec.grid.coords(point);
  const core::ProtocolTarget& t = core::target_or_throw(spec.target);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%gMbps@%gdB",
                t.rates[spec.grid.rate_indices[c.rate_index]].mbps,
                spec.grid.snrs_db[c.snr_index]);
  return buf;
}

/// Per-point totals the untraced run and the traced replay must agree on.
struct PointCounts {
  std::uint64_t trials = 0;
  std::uint64_t frames_detected = 0;
  std::uint64_t detections = 0;
  std::uint64_t trigger_latency_count = 0;
  bool operator==(const PointCounts&) const = default;

  void add(const PointCounts& o) {
    trials += o.trials;
    frames_detected += o.frames_detected;
    detections += o.detections;
    trigger_latency_count += o.trigger_latency_count;
  }
};

std::string store_path(const Options& opt, std::size_t round) {
  return opt.tmpdir + "/rjf_bench_" + std::to_string(getpid()) + "_" +
         std::to_string(round) + ".rjfc";
}

/// What the traced replay of a campaign records. Times are summed over
/// worker threads, so they are busy seconds, not wall seconds.
struct CampaignSpans {
  double prep_s = 0, noise_s = 0, cfo_s = 0, reset_s = 0, adc_s = 0,
         stream_s = 0, plan_build_s = 0, plan_wait_s = 0, shard_setup_s = 0,
         append_s = 0, shard_wall_s = 0, pool_capacity_s = 0, wall_s = 0;
  std::uint64_t samples = 0, xcorr = 0, jam = 0;

  void add(const CampaignSpans& o) {
    prep_s += o.prep_s;
    noise_s += o.noise_s;
    cfo_s += o.cfo_s;
    reset_s += o.reset_s;
    adc_s += o.adc_s;
    stream_s += o.stream_s;
    plan_build_s += o.plan_build_s;
    plan_wait_s += o.plan_wait_s;
    shard_setup_s += o.shard_setup_s;
    append_s += o.append_s;
    shard_wall_s += o.shard_wall_s;
    pool_capacity_s += o.pool_capacity_s;
    wall_s += o.wall_s;
    samples += o.samples;
    xcorr += o.xcorr;
    jam += o.jam;
  }
  [[nodiscard]] double attributed_s() const {
    return prep_s + noise_s + cfo_s + reset_s + adc_s + stream_s +
           plan_build_s + plan_wait_s + shard_setup_s + append_s;
  }
};

/// Replay one run_campaign call through make_shard_schedule/run_shards,
/// LazyPlanTable, ShardStore::append and the steps of
/// core::run_detection_trial, timing each call. Returns per-point counts.
std::vector<PointCounts> replay_campaign(const core::CampaignSpec& spec,
                                         const std::string& path,
                                         CampaignSpans& total) {
  const core::ProtocolTarget& target = core::target_or_throw(spec.target);
  const core::CampaignGrid& grid = spec.grid;
  const std::size_t num_points = grid.num_points();

  core::SweepConfig schedule_config;
  schedule_config.trials_per_point = grid.trials_per_point;
  schedule_config.shard_trials = core::resolve_shard_trials(
      num_points, grid.trials_per_point, spec.threads);
  schedule_config.seed = spec.seed;
  const std::vector<core::ShardTask> schedule =
      core::make_shard_schedule(num_points, schedule_config);

  core::ShardStoreHeader header;
  header.fingerprint = spec.fingerprint();
  header.campaign_seed = spec.seed;
  header.num_points = num_points;
  header.trials_per_point = grid.trials_per_point;
  header.shard_trials = schedule_config.shard_trials;
  header.num_shards = schedule.size();

  const Clock::time_point start = Clock::now();
  std::unique_ptr<core::ShardStore> store =
      core::ShardStore::create(path, header);
  if (store == nullptr)
    throw std::runtime_error("cannot create shard store " + path);

  // Frames are synthesised lazily per rate inside the plan-building
  // callback, as run_campaign does, so plan build time includes frame
  // synthesis.
  const std::vector<std::uint8_t> psdu(
      std::max<std::size_t>(spec.psdu_bytes, 1), spec.psdu_fill);
  std::vector<dsp::cvec> frames(grid.rate_indices.size());
  std::unique_ptr<std::once_flag[]> frame_once(
      new std::once_flag[grid.rate_indices.size()]);
  std::vector<double> build_s(num_points, 0.0);
  static thread_local bool built_here = false;
  core::LazyPlanTable plans(num_points, [&](std::size_t point) {
    const Clock::time_point t0 = Clock::now();
    const core::CampaignGrid::Coords c = grid.coords(point);
    std::call_once(frame_once[c.rate_index], [&] {
      frames[c.rate_index] = target.make_frame(
          grid.rate_indices[c.rate_index], psdu, spec.scrambler_seed);
    });
    core::DetectionRunConfig config = spec.base;
    config.snr_db = grid.snrs_db[c.snr_index];
    config.num_frames = grid.trials_per_point;
    config.seed = dsp::derive_seed(spec.seed, point);
    config.tx_rate_hz = target.native_rate_hz;
    core::DetectionTrialPlan plan = core::prepare_detection_trials(
        frames[c.rate_index], spec.tap, config);
    build_s[point] = seconds_between(t0, Clock::now());
    built_here = true;
    return plan;
  });

  std::vector<CampaignSpans> shard_spans(schedule.size());
  std::vector<PointCounts> shard_counts(schedule.size());
  std::atomic<bool> append_failed{false};
  const radio::Adc adc;

  const unsigned pool = core::run_shards(
      schedule, spec.threads, [&](const core::ShardTask& task) {
        pin_worker_thread();
        CampaignSpans& sp = shard_spans[task.index];
        PointCounts& counts = shard_counts[task.index];
        const Clock::time_point shard_start = Clock::now();
        Lap span;

        built_here = false;
        const core::DetectionTrialPlan& plan = plans.get(task.point);
        const double get_s = span.lap();
        const double built = built_here ? build_s[task.point] : 0.0;
        sp.plan_build_s += built;
        sp.plan_wait_s += std::max(0.0, get_s - built);

        core::ReactiveJammer jammer(spec.jammer);
        sp.shard_setup_s += span.lap();

        const std::uint64_t lead_ticks =
            static_cast<std::uint64_t>(plan.lead_in) * fpga::kClocksPerSample;
        for (std::size_t t = task.first_trial;
             t < task.first_trial + task.trials; ++t) {
          span.mark();
          // core::run_detection_trial, one timed span per step. The trial
          // RNG is drawn up front; the noise source has its own stream.
          dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, t));
          const std::uint64_t noise_seed = rng.next();
          const dsp::cvec& frame =
              plan.variants[rng.uniform_int(plan.variants.size())];
          const double cfo = (2.0 * rng.uniform() - 1.0) * plan.max_cfo_hz;
          dsp::cvec capture(plan.lead_in + frame.size() + plan.tail);
          sp.prep_s += span.lap();

          dsp::NoiseSource noise(plan.noise_power, noise_seed);
          for (auto& s : capture) s = noise.sample();
          sp.noise_s += span.lap();

          const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
          for (std::size_t k = 0; k < frame.size(); ++k)
            capture[plan.lead_in + k] += frame[k] * core::cfo_phasor(w, k);
          sp.cfo_s += span.lap();

          jammer.reset_detection_state();
          sp.reset_s += span.lap();

          const dsp::iqvec iq =
              adc.convert(jammer.radio().frontend().apply_rx(capture));
          sp.adc_s += span.lap();

          const auto run = jammer.observe(std::span<const dsp::IQ16>(iq));
          sp.stream_s += span.lap();

          counts.trials += 1;
          counts.detections += run.xcorr_detections;
          if (run.xcorr_detections > 0) ++counts.frames_detected;
          if (run.jam_triggers > 0 && run.last_trigger_vita >= lead_ticks)
            ++counts.trigger_latency_count;
          sp.samples += capture.size();
          sp.xcorr += run.xcorr_detections;
          sp.jam += run.jam_triggers;
        }

        core::ShardRecord record;
        record.point = task.point;
        record.shard_index = task.index;
        record.first_trial = task.first_trial;
        record.trials = task.trials;
        record.frames_detected = counts.frames_detected;
        record.total_detections = counts.detections;
        record.trigger_latency_count = counts.trigger_latency_count;
        span.mark();
        if (!store->append(record)) append_failed = true;
        sp.append_s += span.lap();
        sp.shard_wall_s += seconds_between(shard_start, Clock::now());
      });
  store.reset();
  const double wall = seconds_between(start, Clock::now());
  std::remove(path.c_str());
  if (append_failed) throw std::runtime_error("shard store append failed");

  std::vector<PointCounts> points(num_points);
  for (const core::ShardTask& task : schedule) {
    points[task.point].add(shard_counts[task.index]);
    total.add(shard_spans[task.index]);
  }
  total.pool_capacity_s += wall * std::max(1u, pool);
  total.wall_s += wall;
  return points;
}

std::vector<PointCounts> report_counts(const core::CampaignReport& report) {
  std::vector<PointCounts> points;
  for (const core::CampaignPointResult& p : report.points)
    points.push_back({p.trials_done, p.result.frames_detected,
                      p.result.total_detections, p.trigger_latency_count});
  return points;
}

void run_campaign_workload(const Options& opt, ClockSampler& clock,
                           Result& res) {
  CampaignSetup setup = setup_campaign(opt);
  core::CampaignSpec& spec = setup.spec;
  const std::size_t num_points = spec.grid.num_points();
  res.setup_end = Clock::now();
  if (opt.setup_only) return;

  const auto air_samples = [&](const std::vector<PointCounts>& points) {
    std::uint64_t n = 0;
    for (std::size_t p = 0; p < points.size(); ++p)
      n += points[p].trials *
           setup.samples_per_trial[spec.grid.coords(p).rate_index];
    return n;
  };

  // Untraced rounds: one complete run_campaign each, fresh store, seed
  // derived from (--seed, round).
  std::vector<std::vector<PointCounts>> rounds;
  std::vector<Clock::time_point> round_start, round_end;
  std::vector<std::uint64_t> round_samples;
  std::size_t point_shards = 0;  // per point and round, equal for all points
  std::uint64_t untraced_samples = 0;
  std::uint64_t csv_digest = 0;
  const Clock::time_point measure_start = Clock::now();
  for (std::size_t r = 0;; ++r) {
    spec.seed = dsp::derive_seed(opt.seed, r);
    const std::string path = store_path(opt, r);
    std::remove(path.c_str());
    const Clock::time_point t0 = Clock::now();
    const core::CampaignReport report = core::run_campaign(spec, path);
    const Clock::time_point t1 = Clock::now();
    std::remove(path.c_str());
    if (!report.complete)
      throw std::runtime_error("run_campaign returned an incomplete report");

    rounds.push_back(report_counts(report));
    if (r == 0) {
      csv_digest = fnv1a(report.to_csv());
      // Later rounds only add allocator fragmentation that depends on which
      // worker happened to build which plan.
      res.peak_rss_mb = peak_rss_mb();
    }
    const std::uint64_t samples = air_samples(rounds.back());
    untraced_samples += samples;
    round_start.push_back(t0);
    round_end.push_back(t1);
    round_samples.push_back(samples);
    res.units += report.shards_run;
    point_shards = report.shards_total / num_points;
    if (opt.reference || opt.smoke ||
        seconds_between(measure_start, Clock::now()) >= opt.seconds)
      break;
  }
  // Every worker core is busy for the whole round, so a round's speed is
  // the mean speed of all of them.
  clock.stop();
  std::vector<double> round_wall, round_rate, round_speed;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    round_wall.push_back(seconds_between(round_start[r], round_end[r]));
    round_rate.push_back(static_cast<double>(round_samples[r]) /
                         fpga::kBasebandRateHz / round_wall.back());
    round_speed.push_back(clock.speed_all(round_start[r], round_end[r]));
  }

  std::vector<PointCounts> totals(num_points);
  for (const auto& round : rounds)
    for (std::size_t p = 0; p < num_points; ++p) totals[p].add(round[p]);

  std::string checks = "[";
  for (std::size_t p = 0; p < num_points; ++p) {
    if (p > 0) checks += ",";
    checks += "{\"label\":\"" + point_label(spec, p) +
              "\",\"kind\":\"binomial\",\"n\":" + num(totals[p].trials) +
              ",\"k\":" + num(totals[p].frames_detected) +
              ",\"units\":" + num(point_shards * rounds.size()) + "}";
    std::printf("  %-14s trials %8llu  P_det %.4f  detections/frame %.3f\n",
                point_label(spec, p).c_str(),
                static_cast<unsigned long long>(totals[p].trials),
                ratio(totals[p].frames_detected, totals[p].trials),
                ratio(totals[p].detections, totals[p].trials));
  }
  res.checks = checks + "]";
  std::printf("  rounds of %zu trials/point on %u threads; round 0 CSV "
              "digest %016llx (information only)\n",
              spec.grid.trials_per_point, spec.threads,
              static_cast<unsigned long long>(csv_digest));
  res.air_s_per_ref_s = fast_rate("round", round_rate, round_speed);
  if (!opt.trace) return;

  double untraced_wall = 0.0;
  std::uint64_t trials = 0;
  for (const double w : round_wall) untraced_wall += w;
  for (const PointCounts& p : totals) trials += p.trials;

  CampaignSpans sp;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    spec.seed = dsp::derive_seed(opt.seed, r);
    const std::vector<PointCounts> replayed =
        replay_campaign(spec, store_path(opt, r), sp);
    for (std::size_t p = 0; p < num_points; ++p)
      if (!(replayed[p] == rounds[r][p])) res.unit_errors += point_shards;
  }
  // The throughput denominator is only as good as the capture-length model.
  if (sp.samples != untraced_samples) res.unit_errors += 1;

  const double ns = 1e9;
  res.set("dsp.noise_s", sp.noise_s);
  res.set("dsp.noise_ns_per_sample", ratio(sp.noise_s * ns, sp.samples));
  res.set("core.cfo_s", sp.cfo_s);
  res.set("core.cfo_ns_per_sample", ratio(sp.cfo_s * ns, sp.samples));
  res.set("core.trial_prep_s", sp.prep_s);
  res.set("fpga.reset_s", sp.reset_s);
  res.set("radio.adc_s", sp.adc_s);
  res.set("radio.adc_ns_per_sample", ratio(sp.adc_s * ns, sp.samples));
  res.set("fpga.stream_s", sp.stream_s);
  res.set("fpga.stream_ns_per_sample", ratio(sp.stream_s * ns, sp.samples));
  res.set("core.plan_build_s", sp.plan_build_s);
  res.set("core.plan_wait_s", sp.plan_wait_s);
  res.set("core.shard_setup_s", sp.shard_setup_s);
  res.set("core.store_append_s", sp.append_s);
  res.set("core.pool_busy_frac", ratio(sp.shard_wall_s, sp.pool_capacity_s));
  res.set("core.unattributed_s", sp.shard_wall_s - sp.attributed_s());
  res.set("core.trials", static_cast<double>(trials));
  res.set("core.shards", static_cast<double>(res.units));
  res.set("fpga.samples", static_cast<double>(sp.samples));
  res.set("fpga.xcorr_detections", static_cast<double>(sp.xcorr));
  res.set("fpga.jam_triggers", static_cast<double>(sp.jam));
  res.set("obs.trace_overhead_x", ratio(sp.wall_s, untraced_wall));
}

// ---------------------------------------------------------------------------
// network_reactive: the Figs. 10-11 iperf rig. Each sweep round runs nine
// WifiNetworkSim points (jammer off, continuous, reactive 0.1 ms and 0.01
// ms, at jam powers around each curve's knee) on the worker pool.

struct NetPoint {
  const char* label;
  std::size_t config;  // index into the jammer configurations below
  double jam_power;
};

// Heaviest sims first (measured host cost), so the pool's tail stays short.
// A starved continuous-jammer link and the jammer-off link cost almost
// nothing: the first never gets a frame out, the second never streams
// through the jammer.
constexpr NetPoint kNetPoints[] = {
    {"cont@2e-5", 1, 2e-5},       {"react100us@1e-3", 2, 1e-3},
    {"react100us@1e-4", 2, 1e-4}, {"react10us@3e-2", 3, 3e-2},
    {"react10us@1e-2", 3, 1e-2},  {"react100us@3e-3", 2, 3e-3},
    {"react10us@1e-1", 3, 1e-1},  {"cont@3e-5", 1, 3e-5},
    {"off", 0, 0.0},
};
constexpr std::size_t kNumNetPoints = std::size(kNetPoints);

/// Simulated air seconds per sim. The reference band is drawn at this
/// length, so the smoke test keeps it and runs a single round.
constexpr double kNetAirS = 0.1;

std::vector<std::optional<core::JammerConfig>> net_configs() {
  return {std::nullopt, core::continuous_preset(),
          core::energy_reactive_preset(1e-4, 10.0),
          core::energy_reactive_preset(1e-5, 10.0)};
}

/// Synthesise every data and ACK waveform the rig can transmit into the
/// process-wide cache, so measured rounds never pay first-use synthesis.
/// The frames mirror the ones WifiNetworkSim::exchange() builds; if they
/// drift apart, the traced run's net.waveform_cache_misses turns non-zero.
void prebuild_net_waveforms() {
  const net::WifiNetworkConfig defaults;
  net::MacFrame data;
  data.type = net::FrameType::kData;
  data.src = 2;
  data.dst = 1;
  data.payload.assign(defaults.iperf.datagram_bytes, 0x42);
  const net::Bytes data_psdu = net::serialize(data);
  for (const phy80211::Rate rate : phy80211::all_rates())
    (void)net::WaveformCache::instance().get_or_build(
        data_psdu, rate, 0x5D, defaults.client_tx_power, 0);
  net::MacFrame ack;
  ack.type = net::FrameType::kAck;
  ack.src = 1;
  ack.dst = 2;
  (void)net::WaveformCache::instance().get_or_build(
      net::serialize(ack), defaults.timing.ack_rate, 0x2B,
      defaults.client_tx_power, 0);
}

struct SimOutcome {
  double bandwidth_kbps = 0.0;
  std::uint64_t received = 0, data_frames = 0, retries = 0, cca_defers = 0,
                jam_triggers = 0;
  bool operator==(const SimOutcome&) const = default;
};

struct NetSpans {
  double sim_wall_s = 0, stream_s = 0;
  std::uint64_t samples = 0, stream_calls = 0, xcorr = 0;
};

/// One sim: point `point` of sweep round `round`.
struct SimRun {
  SimRun(std::size_t r, std::size_t p) : round(r), point(p) {}
  std::size_t round, point;
  bool ran = false;
  double start_s = 0.0, end_s = 0.0;  // from the start of the pool
  Clock::time_point t0, t1;           // the same, as time points
  std::size_t slot = 0;               // worker core it ran on
  SimOutcome outcome;
  NetSpans spans;  // traced runs only
};

/// Sweep rounds back to back on one worker pool: sims are claimed in
/// order (round-major, heaviest point first), so every worker stays busy
/// until `deadline_s`; sims not started by then are skipped. With `traced`
/// each sim carries a private Telemetry bundle (probes off). Returns the
/// pool's busy capacity in thread-seconds.
double run_sims(const std::vector<std::optional<core::JammerConfig>>& configs,
                std::uint64_t seed, std::vector<SimRun>& sims,
                double deadline_s, bool traced) {
  core::SweepConfig sweep;
  sweep.trials_per_point = 1;
  sweep.shard_trials = 1;
  const auto tasks = core::make_shard_schedule(sims.size(), sweep);
  const Clock::time_point start = Clock::now();
  const unsigned pool = core::run_shards(
      tasks, bench_threads(), [&](const core::ShardTask& task) {
        pin_worker_thread();
        SimRun& s = sims[task.point];
        s.slot = this_thread_slot;
        s.t0 = Clock::now();
        s.start_s = seconds_between(start, s.t0);
        if (s.start_s >= deadline_s) return;
        const NetPoint& point = kNetPoints[s.point];
        net::WifiNetworkConfig config;
        config.iperf.duration_s = kNetAirS;
        config.jammer = configs[point.config];
        config.jammer_tx_power = point.jam_power;
        config.seed =
            dsp::derive_seed(dsp::derive_seed(seed, s.round), s.point);
        net::WifiNetworkSim sim(config);
        std::optional<obs::Telemetry> telemetry;
        if (traced) {
          obs::TelemetryConfig tc;
          tc.probe_enabled = false;
          telemetry.emplace(tc);
          sim.attach_telemetry(&*telemetry);
        }
        const net::WifiRunResult run = sim.run();
        s.t1 = Clock::now();
        s.end_s = seconds_between(start, s.t1);
        s.ran = true;
        SimOutcome& o = s.outcome;
        o.bandwidth_kbps =
            run.report.bandwidth_kbps(config.iperf.datagram_bytes);
        o.received = run.report.datagrams_received;
        o.data_frames = run.data_frames_sent;
        o.retries = run.retries;
        o.cca_defers = run.cca_busy_defers;
        o.jam_triggers = run.jam_triggers;
        if (telemetry.has_value()) {
          sim.attach_telemetry(nullptr);
          telemetry->flush();
          const obs::MetricsRegistry& m = telemetry->metrics();
          const auto events = [&m](obs::EventKind kind) {
            return m.counter_value(std::string("events.") +
                                   obs::event_kind_name(kind));
          };
          s.spans.sim_wall_s = s.end_s - s.start_s;
          s.spans.stream_s =
              static_cast<double>(m.counter_value("stream_wall_ns")) / 1e9;
          s.spans.samples = m.counter_value("stream_samples");
          s.spans.stream_calls = events(obs::EventKind::kStreamStart);
          s.spans.xcorr = events(obs::EventKind::kXcorrTrigger);
        }
      });
  return seconds_between(start, Clock::now()) * std::max(1u, pool);
}

void run_network_workload(const Options& opt, ClockSampler& clock,
                          Result& res) {
  const auto configs = net_configs();
  prebuild_net_waveforms();
  res.setup_end = Clock::now();
  if (opt.setup_only) return;

  // A reference run draws five independent seeds of every point, the smoke
  // test one; a measured run offers far more rounds than it can finish.
  const bool timed = !opt.reference && !opt.smoke;
  const std::size_t max_rounds =
      opt.reference ? 5
      : opt.smoke   ? 1
                    : 100 * (1 + static_cast<std::size_t>(opt.seconds));
  std::vector<SimRun> sims;
  for (std::size_t r = 0; r < max_rounds; ++r)
    for (std::size_t p = 0; p < kNumNetPoints; ++p)
      sims.emplace_back(r, p);
  const double deadline = timed ? opt.seconds : HUGE_VAL;
  const double capacity = run_sims(configs, opt.seed, sims, deadline, false);
  res.peak_rss_mb = peak_rss_mb();
  clock.stop();
  std::erase_if(sims, [](const SimRun& s) { return !s.ran; });
  if (timed && sims.size() == max_rounds * kNumNetPoints)
    throw std::runtime_error(
        "every offered sim finished before the deadline");
  res.units = sims.size();

  // Rate of one sweep round with every sim at its median time and every
  // worker busy, as they are until the deadline. Sims differ a thousandfold
  // in cost, so a time window's rate would swing with how many cheap sims
  // it happens to hold; a per-point median does not. Each sim's reference
  // time is its host time at the mean speed of its core while it ran, and
  // the medians are over the sims that ran on fast cores (over all of a
  // point's sims, should none of them have).
  std::vector<double> speeds;
  for (const SimRun& s : sims) speeds.push_back(clock.speed(s.slot, s.t0, s.t1));
  const std::vector<bool> fast = fast_units(speeds);
  double round_ref_s = 0.0, round_host_s = 0.0;
  std::size_t fast_sims = 0;
  std::vector<double> ref_s(kNumNetPoints);
  for (std::size_t p = 0; p < kNumNetPoints; ++p) {
    std::vector<double> ref, host, ref_fast, host_fast;
    for (std::size_t i = 0; i < sims.size(); ++i) {
      if (sims[i].point != p) continue;
      host.push_back(sims[i].end_s - sims[i].start_s);
      ref.push_back(host.back() * speeds[i]);
      if (!fast[i]) continue;
      host_fast.push_back(host.back());
      ref_fast.push_back(ref.back());
    }
    fast_sims += ref_fast.size();
    if (!ref_fast.empty()) {
      ref.swap(ref_fast);
      host.swap(host_fast);
    }
    ref_s[p] = percentile(std::move(ref), 0.5);
    round_ref_s += ref_s[p];
    round_host_s += percentile(std::move(host), 0.5);
  }
  const double round_air_s = kNetAirS *
                             static_cast<double>(kNumNetPoints) *
                             bench_threads();
  res.air_s_per_ref_s = round_air_s / round_ref_s;

  // One datagram more or less over the test: the resolution of a result.
  const double quantum_kbps =
      static_cast<double>(net::IperfConfig{}.datagram_bytes) * 8.0 /
      kNetAirS / 1e3;
  std::string checks = "[";
  for (std::size_t p = 0; p < kNumNetPoints; ++p) {
    std::string values;
    double sum = 0.0;
    std::size_t n = 0;
    for (const SimRun& s : sims) {
      if (s.point != p) continue;
      values += std::string(n++ == 0 ? "" : ",") +
                num(s.outcome.bandwidth_kbps);
      sum += s.outcome.bandwidth_kbps;
    }
    if (p > 0) checks += ",";
    checks += std::string("{\"label\":\"") + kNetPoints[p].label +
              "\",\"kind\":\"band\",\"values\":[" + values +
              "],\"quantum\":" + num(quantum_kbps) +
              ",\"units\":" + num(static_cast<double>(n)) + "}";
    std::printf("  %-16s bandwidth %9.0f kbps (mean of %zu), %.4f "
                "reference s per sim (median)\n",
                kNetPoints[p].label, ratio(sum, n), n, ref_s[p]);
  }
  res.checks = checks + "]";
  std::printf("  %zu sims of %.3f s air on %u threads, %zu on fast cores; "
              "air s / reference s %.4f, air s / host s %.4f\n",
              sims.size(), kNetAirS, bench_threads(), fast_sims,
              res.air_s_per_ref_s, round_air_s / round_host_s);
  if (!opt.trace) return;

  // Replay exactly the sims that ran, traced.
  std::vector<SimRun> replay;
  for (const SimRun& s : sims) replay.emplace_back(s.round, s.point);
  const std::uint64_t hits0 = net::WaveformCache::instance().hits();
  const std::uint64_t misses0 = net::WaveformCache::instance().misses();
  const double replay_capacity =
      run_sims(configs, opt.seed, replay, HUGE_VAL, true);
  NetSpans sp;
  std::uint64_t data_frames = 0, retries = 0, cca = 0, jam = 0;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const SimRun& s = replay[i];
    if (!(s.outcome == sims[i].outcome)) ++res.unit_errors;
    sp.sim_wall_s += s.spans.sim_wall_s;
    sp.stream_s += s.spans.stream_s;
    sp.samples += s.spans.samples;
    sp.stream_calls += s.spans.stream_calls;
    sp.xcorr += s.spans.xcorr;
    data_frames += s.outcome.data_frames;
    retries += s.outcome.retries;
    cca += s.outcome.cca_defers;
    jam += s.outcome.jam_triggers;
  }
  res.set("fpga.stream_s", sp.stream_s);
  res.set("fpga.stream_ns_per_sample", ratio(sp.stream_s * 1e9, sp.samples));
  res.set("net.other_s", sp.sim_wall_s - sp.stream_s);
  res.set("net.pool_busy_frac", ratio(sp.sim_wall_s, replay_capacity));
  res.set("net.data_frames", static_cast<double>(data_frames));
  res.set("net.retries", static_cast<double>(retries));
  res.set("net.cca_defers", static_cast<double>(cca));
  res.set("net.waveform_cache_hits",
          static_cast<double>(net::WaveformCache::instance().hits() - hits0));
  res.set("net.waveform_cache_misses",
          static_cast<double>(net::WaveformCache::instance().misses() -
                              misses0));
  res.set("radio.stream_calls", static_cast<double>(sp.stream_calls));
  res.set("fpga.samples", static_cast<double>(sp.samples));
  res.set("fpga.xcorr_detections", static_cast<double>(sp.xcorr));
  res.set("fpga.jam_triggers", static_cast<double>(jam));
  res.set("obs.trace_overhead_x", ratio(replay_capacity, capacity));
}

// ---------------------------------------------------------------------------
// stream_realtime: one thread streams 25 MSPS air through
// ReactiveJammer::observe in 1 ms blocks, closed loop (each block is
// offered as soon as the previous one returns). A 6 dB OFDM frame arrives
// in every block and reconfigure() alternates the correlator threshold
// every 10 blocks, so settings-bus writes land mid-stream.

constexpr std::size_t kBlockSamples = 25000;  // 1 ms at 25 MSPS
constexpr std::size_t kDistinctBlocks = 100;  // pre-generated input cycle
constexpr std::size_t kReconfigureEvery = 10;

struct StreamSetup {
  core::JammerConfig personality[2];
  core::DetectionTrialPlan frames;  // 6 dB frame per timing phase
};

StreamSetup setup_stream() {
  const core::ProtocolTarget& target = core::target_or_throw("wifi_ofdm");
  StreamSetup s;
  s.personality[0] = core::target_reactive_preset(target, 100e-6);
  s.personality[1] = core::target_reactive_preset(target, 100e-6, 0.52);
  core::DetectionRunConfig config;
  config.snr_db = 6.0;
  config.tx_rate_hz = target.native_rate_hz;
  s.frames = core::prepare_detection_trials(
      core::target_frame(target, 0, 64, 0xA5, 0x5D), core::DetectorTap::kXcorr,
      config);
  return s;
}

/// Block `index` of the input stream for `seed`: receiver noise plus one
/// frame at a random offset, timing phase and carrier offset.
dsp::cvec make_block(const StreamSetup& s, std::uint64_t seed,
                     std::size_t index) {
  dsp::Xoshiro256 rng(dsp::derive_seed(seed, index));
  dsp::cvec block =
      dsp::make_wgn(kBlockSamples, s.frames.noise_power, rng.next());
  const dsp::cvec& frame =
      s.frames.variants[rng.uniform_int(s.frames.variants.size())];
  const std::size_t offset = rng.uniform_int(kBlockSamples - frame.size());
  const double cfo = (2.0 * rng.uniform() - 1.0) * s.frames.max_cfo_hz;
  const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
  for (std::size_t k = 0; k < frame.size(); ++k)
    block[offset + k] += frame[k] * core::cfo_phasor(w, k);
  return block;
}

struct BlockCounts {
  std::uint64_t xcorr = 0, jam = 0;
  bool operator==(const BlockCounts&) const = default;
};

/// Personality switch due before block `i`, if any.
const core::JammerConfig* reconfigure_before(const StreamSetup& s,
                                             std::size_t i) {
  if (i == 0 || i % kReconfigureEvery != 0) return nullptr;
  return &s.personality[(i / kReconfigureEvery) % 2];
}

void run_stream_workload(const Options& opt, ClockSampler& clock,
                         Result& res) {
  const StreamSetup setup = setup_stream();
  std::vector<dsp::cvec> blocks;
  if (!opt.reference)
    for (std::size_t i = 0; i < kDistinctBlocks; ++i)
      blocks.push_back(make_block(setup, opt.seed, i));
  res.setup_end = Clock::now();
  if (opt.setup_only) return;

  // A reference run streams distinct blocks throughout.
  const std::size_t reference_blocks = 4000;
  const std::size_t max_blocks = opt.reference ? reference_blocks
                                 : opt.smoke   ? 2 * kDistinctBlocks
                                               : SIZE_MAX;
  core::ReactiveJammer jammer(setup.personality[0]);
  std::vector<double> service_us;
  std::vector<BlockCounts> counts;
  std::vector<Clock::time_point> cycle_end;  // after each whole input cycle
  dsp::cvec reference_block;
  const Clock::time_point measure_start = Clock::now();
  for (std::size_t i = 0; i < max_blocks; ++i) {
    if (opt.reference) reference_block = make_block(setup, opt.seed, i);
    const dsp::cvec& rx =
        opt.reference ? reference_block : blocks[i % kDistinctBlocks];
    const Clock::time_point t0 = Clock::now();
    if (const core::JammerConfig* c = reconfigure_before(setup, i))
      jammer.reconfigure(*c);
    const auto run = jammer.observe(rx);
    const Clock::time_point t1 = Clock::now();
    service_us.push_back(seconds_between(t0, t1) * 1e6);
    counts.push_back({run.xcorr_detections, run.jam_triggers});
    if ((i + 1) % kDistinctBlocks == 0) cycle_end.push_back(t1);
    // Stop at a whole input cycle, so every run covers the same blocks.
    if (!opt.reference && !opt.smoke && (i + 1) % kDistinctBlocks == 0 &&
        seconds_between(measure_start, t1) >= opt.seconds)
      break;
  }
  const std::size_t n = counts.size();
  res.units = n;
  res.peak_rss_mb = peak_rss_mb();
  clock.stop();

  // Headroom over the line rate, one value per whole input cycle. The
  // stream runs on the main thread, pinned to the first worker core.
  std::vector<double> cycle_rate, cycle_speed;
  for (std::size_t c = 0; c < cycle_end.size(); ++c) {
    double us = 0.0;
    for (std::size_t i = c * kDistinctBlocks; i < (c + 1) * kDistinctBlocks;
         ++i)
      us += service_us[i];
    cycle_rate.push_back(static_cast<double>(kDistinctBlocks) * 1e3 / us);
    cycle_speed.push_back(clock.speed(
        0, c == 0 ? measure_start : cycle_end[c - 1], cycle_end[c]));
  }

  // Checks on triggers per frame (one frame per block). The input repeats
  // every kDistinctBlocks blocks and the personality every 2 *
  // kReconfigureEvery, so at most kDistinctBlocks blocks are independent.
  const std::size_t n_eff =
      opt.reference ? n : std::min(n, kDistinctBlocks);
  std::string checks = "[";
  for (const bool jam : {false, true}) {
    double sum = 0.0, sum2 = 0.0;
    for (const BlockCounts& b : counts) {
      const double v = static_cast<double>(jam ? b.jam : b.xcorr);
      sum += v;
      sum2 += v * v;
    }
    const double mean = sum / static_cast<double>(n);
    const double sd = std::sqrt(std::max(0.0, sum2 / static_cast<double>(n) -
                                                  mean * mean));
    if (jam) checks += ",";
    checks += std::string("{\"label\":\"") +
              (jam ? "jam_triggers_per_frame" : "xcorr_detections_per_frame") +
              "\",\"kind\":\"mean\",\"mean\":" + num(mean) +
              ",\"sd\":" + num(sd) + ",\"n\":" + num(n_eff) +
              ",\"units\":" + num(n) + "}";
    std::printf("  %-28s %.4f (sd %.4f over %zu blocks)\n",
                jam ? "jam triggers / frame" : "xcorr detections / frame",
                mean, sd, n);
  }
  res.checks = checks + "]";
  std::printf("  %zu blocks of 1 ms, block service p50 %.1f us\n", n,
              percentile(service_us, 0.5));
  res.air_s_per_ref_s = fast_rate("cycle", cycle_rate, cycle_speed);
  if (!opt.trace) return;

  std::size_t misses = 0;
  double untraced_wall = 0.0;
  for (const double us : service_us) {
    if (us > 1000.0) ++misses;
    untraced_wall += us * 1e-6;
  }
  res.set("stream.block_p50_us", percentile(service_us, 0.5));
  res.set("stream.block_p99_us", percentile(service_us, 0.99));
  res.set("stream.deadline_miss_frac", ratio(misses, n));

  // Traced replay: each block split into front end + ADC and fabric calls.
  core::ReactiveJammer traced(setup.personality[0]);
  const radio::Adc adc;
  double adc_s = 0.0, fabric_s = 0.0;
  std::uint64_t xcorr = 0, jam = 0, reconfigures = 0;
  const std::uint64_t writes0 =
      traced.radio().settings_bus().writes_issued();
  Lap span;
  for (std::size_t i = 0; i < n; ++i) {
    const dsp::cvec& rx = blocks[i % kDistinctBlocks];
    span.mark();
    const dsp::iqvec iq = adc.convert(traced.radio().frontend().apply_rx(rx));
    adc_s += span.lap();
    if (const core::JammerConfig* c = reconfigure_before(setup, i)) {
      traced.reconfigure(*c);
      ++reconfigures;
    }
    const auto run = traced.observe(std::span<const dsp::IQ16>(iq));
    fabric_s += span.lap();
    if (!(BlockCounts{run.xcorr_detections, run.jam_triggers} == counts[i]))
      ++res.unit_errors;
    xcorr += run.xcorr_detections;
    jam += run.jam_triggers;
  }
  const double samples = static_cast<double>(n * kBlockSamples);
  res.set("radio.adc_s", adc_s);
  res.set("radio.adc_ns_per_sample", adc_s * 1e9 / samples);
  res.set("fpga.stream_s", fabric_s);
  res.set("fpga.stream_ns_per_sample", fabric_s * 1e9 / samples);
  res.set("radio.settings_writes_per_reconfigure",
          ratio(static_cast<double>(
                    traced.radio().settings_bus().writes_issued() - writes0),
                static_cast<double>(reconfigures)));
  res.set("fpga.samples", samples);
  res.set("fpga.xcorr_detections", static_cast<double>(xcorr));
  res.set("fpga.jam_triggers", static_cast<double>(jam));
  res.set("obs.trace_overhead_x", ratio(adc_s + fabric_s, untraced_wall));
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "rjf_bench: %s\n"
               "usage: rjf_bench --workload NAME --seed S [--seconds T] "
               "[--trace] [--setup-only | --reference] [--smoke] "
               "[--tmpdir DIR]\n"
               "workloads: campaign_ofdm campaign_dsss network_reactive "
               "stream_realtime\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    usage((std::string(flag) + " expects a non-negative integer").c_str());
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((a + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = parse_u64("--seed", value());
    else if (a == "--seconds")
      opt.seconds = static_cast<double>(parse_u64("--seconds", value()));
    else if (a == "--tmpdir") opt.tmpdir = value();
    else if (a == "--trace") opt.trace = true;
    else if (a == "--setup-only") opt.setup_only = true;
    else if (a == "--reference") opt.reference = true;
    else if (a == "--smoke") opt.smoke = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.workload != "campaign_ofdm" && opt.workload != "campaign_dsss" &&
      opt.workload != "network_reactive" && opt.workload != "stream_realtime")
    usage(("unknown workload " + opt.workload).c_str());
  if (opt.reference && (opt.trace || opt.setup_only))
    usage("--reference runs untraced and measures nothing");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  // Set-up, and the stream, run on the main thread on the first worker
  // core.
  pin_to_slot(0);
  ClockSampler clock(sensitivity(opt.workload));
  const Clock::time_point start = Clock::now();
  Result res;
  double setup_s = 0.0;
  try {
    if (opt.workload == "campaign_ofdm" || opt.workload == "campaign_dsss")
      run_campaign_workload(opt, clock, res);
    else if (opt.workload == "network_reactive")
      run_network_workload(opt, clock, res);
    else
      run_stream_workload(opt, clock, res);
    clock.stop();
    setup_s = seconds_between(start, res.setup_end) *
              clock.probe_speed(0, start, res.setup_end);
    const auto [speed, samples] = clock.overall();
    std::printf("  worker cores ran at %.3f of the reference speed (mean of "
                "%zu samples)\n",
                speed, samples);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rjf_bench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string line = "{\"workload\":\"" + opt.workload +
                     "\",\"threads\":" + num(bench_threads()) +
                     ",\"setup_s\":" + num(setup_s);
  if (!opt.setup_only) {
    line += ",\"units\":" + num(static_cast<double>(res.units)) +
            ",\"unit_errors\":" + num(static_cast<double>(res.unit_errors)) +
            ",\"air_s_per_ref_s\":" + num(res.air_s_per_ref_s) +
            ",\"peak_rss_mb\":" + num(res.peak_rss_mb) +
            ",\"checks\":" + res.checks;
    if (opt.trace) {
      line += ",\"layers\":{";
      bool first = true;
      for (const char* name : kLayerMetrics) {
        line += std::string(first ? "" : ",") + "\"" + name +
                "\":" + num(res.layers[name]);
        first = false;
      }
      line += "}";
    }
  }
  std::printf("%s}\n", line.c_str());
  return 0;
}
