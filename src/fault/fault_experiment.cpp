#include "fault/fault_experiment.h"

#include <optional>
#include <utility>

#include "dsp/rng.h"

namespace rjf::fault {

core::CampaignReport run_fault_robustness_sweep(
    const core::JammerConfig& jammer_config,
    std::span<const dsp::cfloat> frame_native, core::DetectorTap tap,
    const core::DetectionRunConfig& base, std::span<const double> snr_points_db,
    std::span<const double> fault_scales, const FaultPlanConfig& fault_base,
    const core::SweepConfig& sweep) {
  core::CampaignSpec spec = core::sweep_campaign_spec(
      jammer_config, tap, base, snr_points_db, sweep);
  spec.grid.fault_scales.assign(fault_scales.begin(), fault_scales.end());
  spec.make_trial_hook = campaign_fault_hook_factory(spec.grid, fault_base);
  const dsp::cvec frame(frame_native.begin(), frame_native.end());
  return core::run_campaign_frames(spec, {&frame, 1});
}

namespace {

/// One per shard; builds the trial's injector in before_trial and detaches
/// it in after_trial. A scale of exactly 0.0 attaches nothing at all, so
/// the zero-fault row exercises the identical code path as a campaign with
/// no hook factory (inertness is structural, not just numerical).
class CampaignFaultHook final : public core::CampaignTrialHook {
 public:
  CampaignFaultHook(core::CampaignGrid grid, FaultPlanConfig base)
      : grid_(std::move(grid)), base_(std::move(base)) {}

  void before_trial(core::ReactiveJammer& jammer, std::size_t point,
                    std::size_t trial,
                    std::uint64_t horizon_samples) override {
    const core::CampaignGrid::Coords c = grid_.coords(point);
    const double scale = grid_.fault_scales[c.scale_index];
    if (scale == 0.0) return;
    FaultPlanConfig fc = base_.scaled(scale);
    fc.horizon_samples = horizon_samples;
    fc.seed = dsp::derive_seed(dsp::derive_seed(base_.seed, point), trial);
    injector_.emplace(FaultPlan::generate(fc));
    jammer.attach_fault_hooks(&*injector_, &*injector_);
  }

  std::uint64_t after_trial(core::ReactiveJammer& jammer) override {
    if (!injector_.has_value()) return 0;
    jammer.attach_fault_hooks(nullptr, nullptr);
    const std::uint64_t injected = injector_->injected_total();
    injector_.reset();
    return injected;
  }

 private:
  core::CampaignGrid grid_;
  FaultPlanConfig base_;
  std::optional<FaultInjector> injector_;
};

}  // namespace

std::function<std::unique_ptr<core::CampaignTrialHook>()>
campaign_fault_hook_factory(core::CampaignGrid grid,
                            FaultPlanConfig fault_base) {
  return [grid = std::move(grid), fault_base = std::move(fault_base)]() {
    return std::unique_ptr<core::CampaignTrialHook>(
        new CampaignFaultHook(grid, fault_base));
  };
}

}  // namespace rjf::fault
