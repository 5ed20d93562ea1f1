// Deterministic fault schedules.
//
// A FaultPlan is a pre-computed, immutable timeline of radio misbehaviour —
// ADC-saturating level jumps, DC offset steps, dropped IQ samples, UHD-style
// overflow ("O") gaps, front-end gain/tune glitches — plus per-write
// settings-bus fault probabilities. Generation is keyed entirely on
// (config.seed, fault kind, event ordinal) through dsp::derive_seed
// splitmix streams, the same discipline the sweep engine uses for trials:
// a plan is a pure function of its config, bit-identical at any sweep
// thread count, shard size, or call order. A plan with every rate at zero
// generates no events and must be indistinguishable from having no
// injector attached at all (the zero-fault inertness contract, tested in
// test_fault_injection.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rjf::fault {

enum class FaultKind : std::uint32_t {
  kAdcClip = 0,   // input level jump that saturates the ADC
  kDcOffset,      // DC offset step on both I and Q
  kSampleDrop,    // short run of zeroed IQ samples
  kOverflowRun,   // stream overflow: samples never reach the host
  kGainGlitch,    // front-end gain step (dB), e.g. AGC hiccup
  kTuneGlitch,    // transient frequency offset (Hz), e.g. PLL wander
  kBusStall,      // settings-bus write takes extra cycles
  kBusDrop,       // settings-bus write lost in transit
};

inline constexpr std::size_t kNumFaultKinds = 8;

[[nodiscard]] constexpr const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kAdcClip: return "adc_clip";
    case FaultKind::kDcOffset: return "dc_offset";
    case FaultKind::kSampleDrop: return "sample_drop";
    case FaultKind::kOverflowRun: return "overflow_run";
    case FaultKind::kGainGlitch: return "gain_glitch";
    case FaultKind::kTuneGlitch: return "tune_glitch";
    case FaultKind::kBusStall: return "bus_stall";
    case FaultKind::kBusDrop: return "bus_drop";
  }
  return "unknown";
}

/// Duration and magnitude of one fault kind. Timeline kinds: `run` is the
/// fault's length in samples; `magnitude` is the clip amplitude multiplier,
/// the DC offset added to I and Q (sign randomised), the gain step in dB or
/// the tune offset in Hz (sign randomised), and 0 for drops and overflow
/// gaps. kBusStall: `run` is the extra settings-bus cycles a stalled write
/// takes. kBusDrop has no shape.
struct FaultShape {
  std::uint32_t run = 0;
  double magnitude = 0.0;
};

/// The fixed shape of `kind` (one constant table in fault_plan.cpp).
[[nodiscard]] FaultShape fault_shape(FaultKind kind) noexcept;

/// Rates are per-sample start probabilities (timeline faults, geometric
/// inter-arrival) or per-write probabilities (bus faults); each kind's
/// duration and magnitude come from fault_shape().
struct FaultPlanConfig {
  std::uint64_t seed = 1;
  std::uint64_t horizon_samples = 0;  // timeline length the plan covers

  double clip_rate = 0.0;
  double dc_rate = 0.0;
  double drop_rate = 0.0;
  double overflow_rate = 0.0;
  double gain_glitch_rate = 0.0;
  double tune_glitch_rate = 0.0;
  double bus_stall_rate = 0.0;
  double bus_drop_rate = 0.0;

  /// Every rate multiplied by `factor` (degradation-curve x-axis). A factor
  /// of 0 yields a provably inert plan.
  [[nodiscard]] FaultPlanConfig scaled(double factor) const noexcept;
};

/// One scheduled timeline fault. `magnitude` is pre-resolved at generation
/// time: clip -> amplitude multiplier, dc -> signed offset, gain -> linear
/// gain factor, tune -> signed frequency offset in Hz, drop/overflow -> 0.
struct FaultEvent {
  std::uint64_t at_sample = 0;
  std::uint32_t length = 1;
  FaultKind kind = FaultKind::kAdcClip;
  double magnitude = 0.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Generate the schedule for `config`. Pure: same config -> same plan.
  [[nodiscard]] static FaultPlan generate(const FaultPlanConfig& config);

  /// Timeline events, sorted by (at_sample, kind); runs of the same kind
  /// never overlap each other.
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const FaultPlanConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::uint64_t count(FaultKind kind) const noexcept;
  /// Longest scheduled run, for windowed lookups over the event list.
  [[nodiscard]] std::uint32_t max_run() const noexcept { return max_run_; }

 private:
  FaultPlanConfig config_{};
  std::vector<FaultEvent> events_;
  std::uint32_t max_run_ = 0;
};

}  // namespace rjf::fault
