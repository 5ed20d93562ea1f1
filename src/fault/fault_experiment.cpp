#include "fault/fault_experiment.h"

#include <optional>
#include <utility>

#include "dsp/rng.h"

namespace rjf::fault {

namespace {

/// One per shard; builds the trial's injector in before_trial and detaches
/// it in after_trial. A scale of exactly 0.0 attaches nothing at all, so
/// the zero-fault row exercises the identical code path as a campaign with
/// no hook factory (inertness is structural, not just numerical).
class CampaignFaultHook final : public core::CampaignTrialHook {
 public:
  explicit CampaignFaultHook(FaultPlanConfig base) : base_(std::move(base)) {}

  void before_trial(core::ReactiveJammer& jammer, std::size_t point,
                    std::size_t trial, double fault_scale,
                    std::uint64_t horizon_samples) override {
    if (fault_scale == 0.0) return;
    FaultPlanConfig fc = base_.scaled(fault_scale);
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
  FaultPlanConfig base_;
  std::optional<FaultInjector> injector_;
};

}  // namespace

std::function<std::unique_ptr<core::CampaignTrialHook>()>
campaign_fault_hook_factory(FaultPlanConfig fault_base) {
  return [fault_base = std::move(fault_base)]() {
    return std::unique_ptr<core::CampaignTrialHook>(
        new CampaignFaultHook(fault_base));
  };
}

}  // namespace rjf::fault
