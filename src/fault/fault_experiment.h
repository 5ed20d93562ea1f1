// The campaign runner's fault axis: fault intensity as one more grid
// dimension of a core::CampaignSpec.
//
// A fault-robustness curve is a campaign whose grid.fault_scales lists the
// degradation-curve x-axis and whose make_trial_hook is
// campaign_fault_hook_factory(fault_base); run it with run_campaign or
// run_campaign_frames like any other grid. Point index p = scale_index *
// num_snrs + snr_index for one rate, and point plans derive from
// dsp::derive_seed(spec.seed, p) exactly like a clean grid. A scale of 0.0
// attaches no injector at all, so the scale-0 row reproduces the same spec
// with no hook bit-for-bit (the zero-fault inertness contract). Each trial
// generates its own FaultPlan from
// derive_seed(derive_seed(fault_base.seed, p), trial) — fault schedules,
// like impairments, depend only on logical indices, never on thread count
// or shard size.
#pragma once

#include "core/campaign.h"
#include "fault/fault_injector.h"

namespace rjf::fault {

/// Returns a CampaignSpec::make_trial_hook factory whose hooks attach a
/// per-trial FaultInjector built from `fault_base` (the rates at scale 1.0)
/// scaled by the trial's fault scale, which the executor reads from the
/// spec's own grid. The plan's horizon_samples is the trial's capture
/// horizon and its seed derive_seed(derive_seed(fault_base.seed, point),
/// trial), so campaign results are index-deterministic and the scale-0.0
/// rows stay byte-identical to a hookless campaign. One hook is created per
/// shard; hooks hold no shared state, so no locking is involved.
[[nodiscard]] std::function<std::unique_ptr<core::CampaignTrialHook>()>
campaign_fault_hook_factory(FaultPlanConfig fault_base);

}  // namespace rjf::fault
