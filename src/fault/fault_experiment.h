// Fault-robustness sweep: detection probability and trigger latency as a
// function of fault intensity × SNR.
//
// A one-rate campaign grid (core/campaign.h) whose fault axis is
// campaign_fault_hook_factory: point index p = scale_index * num_snrs +
// snr_index. Trial plans derive from dsp::derive_seed(sweep.seed, p)
// exactly like the clean detection sweep, and a scale of 0.0 attaches no
// injector at all, so the scale-0 row of the grid reproduces
// core::run_detection_sweep bit-for-bit (the zero-fault inertness
// contract). Each trial generates its own FaultPlan from
// derive_seed(derive_seed(fault_base.seed, p), trial) — fault schedules,
// like impairments, depend only on logical indices, never on thread count
// or shard size.
#pragma once

#include "core/campaign.h"
#include "fault/fault_injector.h"

namespace rjf::fault {

/// Run the grid. `fault_base` holds the rates at scale 1.0 (its
/// horizon_samples is overridden per trial to cover the capture, its seed
/// is the root of the per-trial schedule streams); `fault_scales` is the
/// degradation-curve x-axis — include 0.0 to anchor the clean baseline.
/// Row (s, k) of the report is points[s * snr_points_db.size() + k].
[[nodiscard]] core::CampaignReport run_fault_robustness_sweep(
    const core::JammerConfig& jammer_config,
    std::span<const dsp::cfloat> frame_native, core::DetectorTap tap,
    const core::DetectionRunConfig& base, std::span<const double> snr_points_db,
    std::span<const double> fault_scales, const FaultPlanConfig& fault_base,
    const core::SweepConfig& sweep);

/// The campaign runner's fault axis. Returns a CampaignSpec::make_trial_hook
/// factory whose hooks attach a per-trial FaultInjector built from
/// `fault_base` scaled by the point's grid.fault_scales entry, seeded
/// derive_seed(derive_seed(fault_base.seed, point), trial), so campaign
/// results are index-deterministic and the scale-0.0 rows stay
/// byte-identical to a hookless campaign (zero-fault inertness). One hook
/// is created per shard; hooks hold no shared state, so no locking is
/// involved.
[[nodiscard]] std::function<std::unique_ptr<core::CampaignTrialHook>()>
campaign_fault_hook_factory(core::CampaignGrid grid,
                            FaultPlanConfig fault_base);

}  // namespace rjf::fault
