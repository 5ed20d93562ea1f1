// Fault-robustness degradation curves: detection probability and trigger
// latency of the WiFi cross-correlator jammer under a deterministic fault
// schedule (ADC clip/DC-offset/sample-drop runs, overflow gaps, gain/tune
// glitches) swept over fault intensity × SNR, plus a settings-bus
// drop/stall scenario exercising the bounded-retry recovery path.
//
// Emits BENCH_fault.json (override path with RJF_BENCH_JSON) with the
// clean/heavy detection rates, latency degradation, fault totals, and two
// gates CI enforces with tools/check_bench_regression.py:
//   fault_deterministic      1 iff the faulted grid is bit-identical at
//                            1, 2 and 4 sweep threads
//   fault_zero_fault_mismatch  count deltas between the scale-0 row and the
//                            same grid run clean (scale 0 only, no hook) —
//                            must be 0 (the zero-fault inertness contract;
//                            the scale-0 row attaches no injector)
//
//   RJF_BENCH_FRAMES   trials per grid point (default 400)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/calibration.h"
#include "core/presets.h"
#include "core/campaign.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "fault/fault_experiment.h"
#include "phy80211/transmitter.h"

using namespace rjf;

namespace {

bool same_grid(const core::CampaignReport& a, const core::CampaignReport& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const auto& pa = a.points[p];
    const auto& pb = b.points[p];
    if (pa.result.frames_detected != pb.result.frames_detected ||
        pa.result.total_detections != pb.result.total_detections ||
        pa.faults_injected != pb.faults_injected ||
        pa.overflow_gaps != pb.overflow_gaps ||
        pa.samples_lost != pb.samples_lost ||
        pa.trigger_latency_count != pb.trigger_latency_count)
      return false;
  }
  return true;
}

std::uint64_t abs_delta(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

std::uint64_t total_injected(const core::CampaignReport& r) {
  std::uint64_t n = 0;
  for (const auto& p : r.points) n += p.faults_injected;
  return n;
}

std::uint64_t total_gaps(const core::CampaignReport& r) {
  std::uint64_t n = 0;
  for (const auto& p : r.points) n += p.overflow_gaps;
  return n;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_fault_robustness — degradation under radio faults",
      "robustness surface beyond the paper's clean-channel Figs. 6-8");

  const auto tpl = core::wifi_long_preamble_template();
  const core::XcorrNoiseModel model(tpl);
  core::JammerConfig config;
  config.detection = core::DetectionMode::kCrossCorrelator;
  config.xcorr_template = tpl;
  config.xcorr_threshold = model.threshold_for_rate(0.52);

  std::vector<std::uint8_t> psdu(310, 0xA5);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec full_frame = tx.transmit(psdu);

  const std::vector<double> snrs = {0, 6, 12};
  const std::vector<double> scales = {0.0, 0.5, 1.0, 2.0};
  core::CampaignSpec spec;
  spec.jammer = config;
  spec.grid.snrs_db = snrs;
  spec.grid.fault_scales = scales;
  spec.grid.trials_per_point = bench::frames_per_point();
  spec.seed = 0xFA017;

  // Rates at scale 1.0, per 25 MSPS sample: with ~2700-sample captures each
  // trial sees a few faults, and the 256-sample overflow runs are long
  // enough to swallow a preamble when they land on it.
  fault::FaultPlanConfig fault_base;
  fault_base.seed = 0xFA57;
  fault_base.clip_rate = 2e-4;
  fault_base.dc_rate = 2e-4;
  fault_base.drop_rate = 2e-4;
  fault_base.overflow_rate = 1e-4;
  fault_base.gain_glitch_rate = 1e-4;
  fault_base.tune_glitch_rate = 1e-4;
  spec.make_trial_hook = fault::campaign_fault_hook_factory(fault_base);

  std::printf("trials per point: %zu, %zu SNRs x %zu fault scales\n\n",
              spec.grid.trials_per_point, snrs.size(), scales.size());

  // Determinism gate: the faulted grid must be bit-identical at 1/2/4
  // worker threads (fault schedules key on logical indices only).
  bool deterministic = true;
  core::CampaignReport reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    auto report = core::run_campaign_frames(spec, {&full_frame, 1});
    if (threads == 1)
      reference = std::move(report);
    else
      deterministic = deterministic && same_grid(reference, report);
  }
  std::printf("faulted grid bit-identical across 1/2/4 threads: %s\n\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  // Inertness gate: the scale-0 row (no injector attached) must equal the
  // clean grid, count for count.
  core::CampaignSpec clean_spec = spec;
  clean_spec.grid.fault_scales = {0.0};
  clean_spec.make_trial_hook = nullptr;
  clean_spec.threads = 0;
  const auto clean = core::run_campaign_frames(clean_spec, {&full_frame, 1});
  std::uint64_t zero_fault_mismatch = 0;
  for (std::size_t k = 0; k < snrs.size(); ++k) {
    const auto& faulted = reference.points[k].result;
    const auto& baseline = clean.points[k].result;
    zero_fault_mismatch +=
        abs_delta(faulted.frames_detected, baseline.frames_detected) +
        abs_delta(faulted.total_detections, baseline.total_detections);
  }

  std::printf("%8s %8s %10s %10s %12s %12s\n", "scale", "snr", "P_det",
              "det/frame", "lat(us)", "faults");
  for (std::size_t s = 0; s < scales.size(); ++s) {
    for (std::size_t k = 0; k < snrs.size(); ++k) {
      const auto& p = reference.points[s * snrs.size() + k];
      std::printf("%8.1f %8.0f %10.3f %10.2f %12.3f %12llu\n", p.fault_scale,
                  p.snr_db, p.result.probability,
                  p.result.detections_per_frame,
                  p.trigger_latency_mean_ticks / 100.0,
                  static_cast<unsigned long long>(p.faults_injected));
    }
  }

  // Settings-bus fault scenario: reconfigure through a lossy bus and let
  // the bounded retry path recover, then verify the personality landed.
  fault::FaultPlanConfig bus_cfg;
  bus_cfg.seed = 0xB0B5;
  bus_cfg.bus_drop_rate = 0.25;
  bus_cfg.bus_stall_rate = 0.25;
  fault::FaultInjector bus_injector(fault::FaultPlan::generate(bus_cfg));
  core::ReactiveJammer jammer(config);
  jammer.attach_fault_hooks(nullptr, &bus_injector);
  jammer.radio().settings_bus().set_retry_limit(4);
  jammer.reconfigure(core::energy_reactive_preset(1e-4, 10.0));
  // Stream idle air until the retry traffic drains.
  while (!jammer.radio().settings_bus().idle())
    (void)jammer.observe(dsp::make_wgn(4096, 1e-6, 7));
  const auto& bus = jammer.radio().settings_bus();
  std::printf(
      "\nbus scenario: %llu writes, %llu dropped, %llu retried, %llu "
      "abandoned\n",
      static_cast<unsigned long long>(bus.writes_issued()),
      static_cast<unsigned long long>(bus.writes_dropped()),
      static_cast<unsigned long long>(bus.writes_retried()),
      static_cast<unsigned long long>(bus.writes_abandoned()));
  std::printf("zero-fault mismatch vs clean sweep: %llu\n",
              static_cast<unsigned long long>(zero_fault_mismatch));

  const std::size_t last_snr = snrs.size() - 1;
  const auto& clean_pt = reference.points[last_snr];
  const auto& heavy_pt =
      reference.points[(scales.size() - 1) * snrs.size() + last_snr];
  bench::JsonWriter json;
  json.set("fault_trials_per_point",
           static_cast<std::uint64_t>(spec.grid.trials_per_point));
  json.set("fault_grid_points",
           static_cast<std::uint64_t>(reference.points.size()));
  json.set("fault_pdet_clean", clean_pt.result.probability);
  json.set("fault_pdet_heavy", heavy_pt.result.probability);
  json.set("fault_latency_clean_us", clean_pt.trigger_latency_mean_ticks / 100.0);
  json.set("fault_latency_heavy_us", heavy_pt.trigger_latency_mean_ticks / 100.0);
  json.set("fault_injected_total", total_injected(reference));
  json.set("fault_overflow_gaps", total_gaps(reference));
  json.set("fault_deterministic",
           static_cast<std::uint64_t>(deterministic ? 1 : 0));
  json.set("fault_zero_fault_mismatch", zero_fault_mismatch);
  json.set("fault_bus_writes_dropped", bus.writes_dropped());
  json.set("fault_bus_writes_retried", bus.writes_retried());
  json.set("fault_bus_writes_abandoned", bus.writes_abandoned());

  bench::write_json(json, "BENCH_fault.json");

  bench::print_footer();
  return (deterministic && zero_fault_mismatch == 0) ? 0 : 1;
}
