#include "core/detection_experiment.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/db.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "dsp/simd/synth.h"
#include "fpga/dsp_core.h"

namespace rjf::core {

DetectionTrialPlan prepare_detection_trials(
    std::span<const dsp::cfloat> frame_native, DetectorTap tap,
    const DetectionRunConfig& config) {
  DetectionTrialPlan plan;
  plan.lead_in = config.lead_in;
  plan.tail = config.tail;
  plan.noise_power = config.noise_power;
  plan.max_cfo_hz = config.max_cfo_hz;
  plan.seed = config.seed;
  plan.tap = tap;

  // Pre-render the frame at the fabric rate for each fractional timing
  // phase; trials then pick a phase at random, modelling the free-running
  // TX/RX sample clocks.
  const dsp::Resampler to_fabric(config.tx_rate_hz, fpga::kBasebandRateHz);
  const double target_power =
      config.noise_power * dsp::ratio_from_db(config.snr_db);
  plan.variants.resize(kTimingPhases);
  for (unsigned p = 0; p < kTimingPhases; ++p) {
    plan.variants[p] = to_fabric.resample(
        frame_native,
        static_cast<double>(p) / static_cast<double>(kTimingPhases));
    dsp::set_mean_power(std::span<dsp::cfloat>(plan.variants[p]),
                        target_power);
  }
  // dsp::simd::cfo_mix equals the std::complex product only on finite
  // frames, so a non-finite one is refused here, once per plan, and never
  // tested in the per-sample loop.
  for (const dsp::cvec& variant : plan.variants)
    for (const dsp::cfloat s : variant)
      if (!std::isfinite(s.real()) || !std::isfinite(s.imag()))
        throw std::invalid_argument(
            "prepare_detection_trials: frame is not finite");
  return plan;
}

LazyPlanTable::LazyPlanTable(std::size_t num_points, Builder builder)
    : builder_(std::move(builder)),
      once_(std::make_unique<std::once_flag[]>(num_points)),
      plans_(num_points) {}

const DetectionTrialPlan& LazyPlanTable::get(std::size_t point) {
  std::call_once(once_[point], [&] {
    plans_[point] = builder_(point);
    built_.fetch_add(1, std::memory_order_relaxed);
  });
  return plans_[point];
}

DetectionTrialOutcome run_detection_trial(ReactiveJammer& jammer,
                                          const DetectionTrialPlan& plan,
                                          std::size_t trial) {
  // Each trial owns a derived RNG stream: impairments depend only on the
  // trial index, never on which trials ran before (or on which thread).
  dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, trial));
  const std::uint64_t noise_seed = rng.next();
  const dsp::cvec& frame = plan.variants[rng.uniform_int(plan.variants.size())];

  dsp::NoiseSource noise(plan.noise_power, noise_seed);
  dsp::cvec capture(plan.lead_in + frame.size() + plan.tail);
  noise.fill(capture);

  // Per-trial carrier frequency offset; phase evaluated in double and
  // wrapped, so long captures keep full precision (see cfo_phasor()).
  const double cfo = (2.0 * rng.uniform() - 1.0) * plan.max_cfo_hz;
  const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
  dsp::simd::cfo_mix(std::span(capture).subspan(plan.lead_in, frame.size()),
                     frame, w);

  // §3.2 requires independent trials: flush the energy differentiator's
  // moving sums, the correlator pipeline and the trigger FSM so nothing
  // carries over from the previous capture.
  jammer.reset_detection_state();

  const auto run = jammer.observe(capture);
  DetectionTrialOutcome outcome;
  switch (plan.tap) {
    case DetectorTap::kXcorr: outcome.events = run.xcorr_detections; break;
    case DetectorTap::kEnergyHigh:
      outcome.events = run.energy_high_detections;
      break;
    case DetectorTap::kJamTrigger: outcome.events = run.jam_triggers; break;
  }
  outcome.jam_triggers = run.jam_triggers;
  outcome.last_trigger_vita = run.last_trigger_vita;
  outcome.overflow_gaps = run.overflow_gaps;
  outcome.samples_lost = run.samples_lost;
  return outcome;
}

DetectionRunResult run_detection_experiment(
    ReactiveJammer& jammer, std::span<const dsp::cfloat> frame_native,
    DetectorTap tap, const DetectionRunConfig& config) {
  const DetectionTrialPlan plan =
      prepare_detection_trials(frame_native, tap, config);
  DetectionRunResult result;
  result.frames_sent = config.num_frames;
  for (std::size_t t = 0; t < config.num_frames; ++t) {
    const std::uint64_t events = run_detection_trial(jammer, plan, t).events;
    result.total_detections += events;
    if (events > 0) ++result.frames_detected;
  }
  result.probability = static_cast<double>(result.frames_detected) /
                       static_cast<double>(result.frames_sent);
  result.detections_per_frame =
      static_cast<double>(result.total_detections) /
      static_cast<double>(result.frames_sent);
  return result;
}

}  // namespace rjf::core
