#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "dsp/rng.h"

namespace rjf::fault {

FaultPlanConfig FaultPlanConfig::scaled(double factor) const noexcept {
  FaultPlanConfig out = *this;
  out.clip_rate *= factor;
  out.dc_rate *= factor;
  out.drop_rate *= factor;
  out.overflow_rate *= factor;
  out.gain_glitch_rate *= factor;
  out.tune_glitch_rate *= factor;
  out.bus_stall_rate *= factor;
  out.bus_drop_rate *= factor;
  return out;
}

namespace {

/// Every kind's shape, indexed by FaultKind.
constexpr FaultShape kFaultShapes[kNumFaultKinds] = {
    {16, 8.0},     // kAdcClip: amplitude multiplier during the jump
    {64, 0.25},    // kDcOffset: added to I and Q
    {4, 0.0},      // kSampleDrop
    {256, 0.0},    // kOverflowRun
    {128, -12.0},  // kGainGlitch: dB
    {128, 200e3},  // kTuneGlitch: Hz
    {160, 0.0},    // kBusStall: extra bus cycles
    {0, 0.0},      // kBusDrop
};

struct TimelineSpec {
  FaultKind kind;
  double rate;
};

// Geometric inter-arrival: the gap before the next fault start, for a
// per-sample start probability `rate`. Inverse-CDF so one uniform draw maps
// to one gap — the draw count per event is fixed, keeping streams aligned.
std::uint64_t geometric_gap(dsp::Xoshiro256& rng, double rate) {
  const double u = std::min(rng.uniform(), 1.0 - 1e-12);
  const double draw = std::log1p(-u) / std::log1p(-rate);
  return 1 + static_cast<std::uint64_t>(draw);
}

}  // namespace

FaultShape fault_shape(FaultKind kind) noexcept {
  return kFaultShapes[static_cast<std::size_t>(kind)];
}

FaultPlan FaultPlan::generate(const FaultPlanConfig& config) {
  FaultPlan plan;
  plan.config_ = config;

  const TimelineSpec specs[] = {
      {FaultKind::kAdcClip, config.clip_rate},
      {FaultKind::kDcOffset, config.dc_rate},
      {FaultKind::kSampleDrop, config.drop_rate},
      {FaultKind::kOverflowRun, config.overflow_rate},
      {FaultKind::kGainGlitch, config.gain_glitch_rate},
      {FaultKind::kTuneGlitch, config.tune_glitch_rate},
  };

  for (const TimelineSpec& spec : specs) {
    // NaN-safe: a NaN rate schedules nothing instead of reaching the
    // float -> integer cast in geometric_gap.
    if (!(spec.rate > 0.0) || config.horizon_samples == 0) continue;
    const FaultShape shape = fault_shape(spec.kind);
    // A start probability above 0.5 would schedule back-to-back runs
    // anyway; clamping keeps log1p(-rate) finite.
    const double rate = std::min(spec.rate, 0.5);
    // One splitmix substream per fault kind, so adding a kind (or changing
    // one kind's rate) never perturbs the others' schedules.
    dsp::Xoshiro256 rng(
        dsp::derive_seed(config.seed, static_cast<std::uint64_t>(spec.kind)));
    std::uint64_t pos = 0;
    while (true) {
      pos += geometric_gap(rng, rate);
      if (pos >= config.horizon_samples) break;
      FaultEvent ev;
      ev.kind = spec.kind;
      ev.at_sample = pos;
      ev.length = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(shape.run, config.horizon_samples - pos));
      ev.magnitude = shape.magnitude;
      // Kind-specific resolution, still one extra draw per event at most.
      if (spec.kind == FaultKind::kDcOffset ||
          spec.kind == FaultKind::kTuneGlitch)
        ev.magnitude = rng.uniform() < 0.5 ? -ev.magnitude : ev.magnitude;
      if (spec.kind == FaultKind::kGainGlitch)
        ev.magnitude = std::pow(10.0, ev.magnitude / 20.0);  // dB -> linear
      plan.events_.push_back(ev);
      plan.max_run_ = std::max(plan.max_run_, ev.length);
      pos += ev.length;  // runs of one kind never overlap
    }
  }

  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::tie(a.at_sample, a.kind) <
                     std::tie(b.at_sample, b.kind);
            });
  return plan;
}

std::uint64_t FaultPlan::count(FaultKind kind) const noexcept {
  std::uint64_t n = 0;
  for (const FaultEvent& ev : events_)
    if (ev.kind == kind) ++n;
  return n;
}

}  // namespace rjf::fault
