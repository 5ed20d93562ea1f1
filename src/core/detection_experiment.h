// Detection-probability measurement harness (paper §3.2 methodology).
//
// "For probability of detection, we generate and send 10000 WiFi frames
// (or pseudo frames), at 130 frames per second, and count the number of
// detections." Frames are far enough apart (7.7 ms) that each one is an
// independent trial; the harness therefore runs one capture per frame —
// lead-in noise, the frame at the target SNR, tail noise — and counts
// detector events inside it, which is statistically identical and tractable.
//
// Trials are *strictly* independent: every trial seeds its own RNG stream
// (dsp::derive_seed(config.seed, trial_index)) and the fabric's detector
// state is flushed before each capture (ReactiveJammer::
// reset_detection_state()), so trial N's moving sums, correlator pipeline
// and trigger-FSM stage can never leak into trial N+1, and per-trial
// results depend only on the trial index — not on execution order. That
// property is what lets the campaign executor (core/campaign.h) shard a run
// across worker threads and still reproduce the sequential counts
// bit-for-bit.
//
// The transmitter runs at its standard's native rate; the harness converts
// each frame to the jammer's 25 MSPS sampling domain with a per-trial
// random fractional timing offset (independent TX/RX sample clocks) and a
// per-trial carrier frequency offset (two free-running N210 oscillators),
// then sets the SNR where the paper measures it: at the receiver.
//
// This layer is protocol-agnostic: callers hand in the frame waveform and
// its native rate. The protocol-target registry (core/scenario.h) supplies
// both from a target handle, and run_campaign is the entry point
// experiments should use; run_detection_experiment is the sequential
// reference the campaign executor is tested against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/reactive_jammer.h"
#include "dsp/synth_math.h"

namespace rjf::core {

/// Distinct fractional timing offsets each frame is pre-rendered at.
inline constexpr unsigned kTimingPhases = 8;

struct DetectionRunConfig {
  double snr_db = 10.0;
  double noise_power = 0.01;     // receiver noise floor (linear)
  std::size_t num_frames = 1000;
  std::size_t lead_in = 256;     // noise-only samples before the frame
  std::size_t tail = 256;        // and after
  double tx_rate_hz = 20e6;      // native rate of the supplied frame
  double max_cfo_hz = 3000.0;    // |CFO| bound, uniform per trial
  std::uint64_t seed = 1;
};

struct DetectionRunResult {
  std::size_t frames_sent = 0;
  std::size_t frames_detected = 0;      // >= 1 event during the frame
  std::uint64_t total_detections = 0;   // events summed over all frames
  double probability = 0.0;             // frames_detected / frames_sent
  double detections_per_frame = 0.0;    // total / frames (Fig. 8 over-trigger)
};

enum class DetectorTap { kXcorr, kEnergyHigh, kJamTrigger };

/// Everything a trial needs that is shared (read-only) across trials: the
/// frame pre-rendered at the fabric rate for each fractional timing phase,
/// scaled to the target receive power, plus the per-trial impairment
/// bounds. Immutable after prepare_detection_trials(), so any number of
/// worker threads may run trials against the same plan concurrently.
struct DetectionTrialPlan {
  std::vector<dsp::cvec> variants;  // one per timing phase, fabric rate
  std::size_t lead_in = 0;
  std::size_t tail = 0;
  double noise_power = 0.0;
  double max_cfo_hz = 0.0;
  std::uint64_t seed = 0;           // base seed; trial t uses derive_seed(seed, t)
  DetectorTap tap = DetectorTap::kXcorr;
};

/// Pre-render `frame_native` for every timing phase at the experiment's SNR.
[[nodiscard]] DetectionTrialPlan prepare_detection_trials(
    std::span<const dsp::cfloat> frame_native, DetectorTap tap,
    const DetectionRunConfig& config);

/// Thread-safe lazily built table of per-point trial plans.
///
/// prepare_detection_trials() resamples and power-scales the frame once per
/// timing phase — the dominant per-point setup cost. Building every point's
/// plan up front serialises that work before the worker pool even starts
/// (on wide campaign grids, seconds of single-threaded stall), and a
/// resumed campaign would pay it again for points whose shards are already
/// checkpointed. The table instead builds each plan on first use from
/// whichever worker touches the point first (std::call_once per point), so
/// plan prep overlaps shard execution across the pool and fully completed
/// points are never prepared at all.
///
/// The builder must be a pure function of the point index (the plans here
/// always are: they depend only on the sweep config and derived seeds), so
/// which worker builds a plan can never affect its contents.
class LazyPlanTable {
 public:
  using Builder = std::function<DetectionTrialPlan(std::size_t point)>;

  LazyPlanTable(std::size_t num_points, Builder builder);

  /// The point's plan, building it on first use. Safe to call from any
  /// number of workers concurrently; the reference stays valid for the
  /// table's lifetime.
  [[nodiscard]] const DetectionTrialPlan& get(std::size_t point);

  [[nodiscard]] std::size_t num_points() const noexcept {
    return plans_.size();
  }
  /// Plans actually built so far (diagnostics: a campaign resume should
  /// build only the points that still had shards to run).
  [[nodiscard]] std::size_t plans_built() const noexcept {
    return built_.load(std::memory_order_relaxed);
  }

 private:
  Builder builder_;
  std::unique_ptr<std::once_flag[]> once_;
  std::vector<DetectionTrialPlan> plans_;
  std::atomic<std::size_t> built_{0};
};

/// Everything one trial produced, for harnesses (e.g. the campaign
/// executor) that need per-trial detail beyond the aggregated counts.
/// last_trigger_vita is capture-relative because the detector state (and
/// VITA clock) is flushed at the start of every trial.
struct DetectionTrialOutcome {
  std::uint64_t events = 0;             // detector events at the plan's tap
  std::uint64_t jam_triggers = 0;
  std::uint64_t last_trigger_vita = 0;
  std::uint64_t overflow_gaps = 0;      // fault accounting; 0 on clean runs
  std::uint64_t samples_lost = 0;
};

/// Run exactly one trial of `plan`. Draws the trial's impairments from the
/// derived stream dsp::derive_seed(plan.seed, trial), flushes the fabric's
/// detector state, streams the capture, and reads the tap. The outcome
/// depends only on (plan.seed, trial) and the jammer's programmed state.
[[nodiscard]] DetectionTrialOutcome run_detection_trial(
    ReactiveJammer& jammer, const DetectionTrialPlan& plan, std::size_t trial);

/// The per-trial CFO rotation e^{j·w·k} (defined in dsp/synth_math.h).
using dsp::cfo_phasor;

/// Identity of the trial-capture synthesis: the frame resampler
/// (dsp::Resampler) prepare_detection_trials renders the timing-phase
/// variants with, and the noise generator (dsp::NoiseSource) and CFO phasor
/// (cfo_phasor) run_detection_trial builds every capture with.
/// CampaignSpec::fingerprint folds it, so a shard store written by a
/// different generator is rejected instead of merged. Bump it
/// with any change that alters a capture's bits for the same (plan, trial).
///   1: libm double Box-Muller and cos/sin (implicit; never folded).
///   2: branch-free float kernels (dsp/synth_math.h).
///   3: exact rational resampler phases (dsp::Resampler); moves the frame
///      variants of non-20 MSPS targets (wifi_dsss, WiMAX) by a few 1e-7.
inline constexpr std::uint64_t kTrialSynthesisVersion = 3;

/// Run the experiment: `frame_native` is the frame waveform at
/// `config.tx_rate_hz` with arbitrary scale (re-scaled per-trial).
/// Equivalent to prepare_detection_trials() + run_detection_trial() for
/// every trial in order — the sequential reference oracle the campaign
/// executor's sharded execution reproduces bit-for-bit.
[[nodiscard]] DetectionRunResult run_detection_experiment(
    ReactiveJammer& jammer, std::span<const dsp::cfloat> frame_native,
    DetectorTap tap, const DetectionRunConfig& config);

}  // namespace rjf::core
