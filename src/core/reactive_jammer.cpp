#include "core/reactive_jammer.h"

#include <cmath>

#include "core/fabric_units.h"
#include "obs/telemetry.h"

namespace rjf::core {
namespace {

// Register-level encoding of a detection mode as trigger FSM stage masks.
struct StageMasks {
  std::uint32_t m0 = 0;
  std::uint32_t m1 = 0;
  std::uint32_t m2 = 0;
};

StageMasks stage_masks(DetectionMode mode) {
  switch (mode) {
    case DetectionMode::kCrossCorrelator:
      return {fpga::kEventXcorr, 0, 0};
    case DetectionMode::kEnergyRise:
      return {fpga::kEventEnergyHigh, 0, 0};
    case DetectionMode::kEnergyFall:
      return {fpga::kEventEnergyLow, 0, 0};
    case DetectionMode::kXcorrOrEnergy:
      return {fpga::kEventXcorr | fpga::kEventEnergyHigh, 0, 0};
    case DetectionMode::kXcorrThenEnergy:
      return {fpga::kEventXcorr, fpga::kEventEnergyHigh, 0};
    case DetectionMode::kContinuous:
      return {0, 0, 0};  // handled separately: jam uptime = max, trigger on energy floor
  }
  return {};
}

}  // namespace

template <typename WriteFn>
void ReactiveJammer::program(const JammerConfig& config, WriteFn&& write) {
  using fpga::Reg;

  // Correlator template + threshold.
  if (config.xcorr_template) {
    fpga::RegisterFile staging;
    fpga::program_template(staging, *config.xcorr_template);
    for (std::size_t r = 0; r < 16; ++r)
      write(static_cast<Reg>(r), staging.read(static_cast<Reg>(r)));
  }
  write(Reg::kXcorrThreshold, config.xcorr_threshold);

  // Energy thresholds.
  write(Reg::kEnergyThreshHigh,
        energy_threshold_q88_from_db(config.energy_high_db));
  write(Reg::kEnergyThreshLow,
        energy_threshold_q88_from_db(config.energy_low_db));
  write(Reg::kEnergyFloor, config.energy_floor);

  // Trigger FSM.
  const StageMasks masks = stage_masks(config.detection);
  fpga::RegisterFile staging;
  staging.set_trigger_stages(masks.m0, masks.m1, masks.m2);
  write(Reg::kTriggerConfig, staging.read(Reg::kTriggerConfig));
  write(Reg::kTriggerWindow, config.trigger_window_cycles);

  // Jammer response. Continuous mode: trigger immediately on any energy
  // (threshold 0 dB, floor 0) and hold the waveform for the maximum uptime.
  if (config.detection == DetectionMode::kContinuous) {
    staging.set_trigger_stages(fpga::kEventEnergyHigh | fpga::kEventEnergyLow |
                                   fpga::kEventXcorr,
                               0, 0);
    write(Reg::kTriggerConfig, staging.read(Reg::kTriggerConfig));
    write(Reg::kEnergyThreshLow, energy_threshold_q88_from_db(-3.0));
    write(Reg::kEnergyFloor, 0);
    staging.set_jammer(config.waveform, true, 0);
    write(Reg::kJammerControl, staging.read(Reg::kJammerControl));
    write(Reg::kJamDuration, 0xFFFFFFFFu);
    return;
  }

  staging.set_jammer(config.waveform, true,
                     static_cast<std::uint16_t>(config.jam_delay_samples));
  write(Reg::kJammerControl, staging.read(Reg::kJammerControl));
  write(Reg::kJamDuration, config.jam_uptime_samples);
}

ReactiveJammer::ReactiveJammer(const JammerConfig& config) : config_(config) {
  program(config, [this](fpga::Reg addr, std::uint32_t value) {
    radio_.write_register_now(addr, value);
  });
}

void ReactiveJammer::reconfigure(const JammerConfig& config) {
  config_ = config;
  program(config, [this](fpga::Reg addr, std::uint32_t value) {
    radio_.write_register(addr, value);
  });
  if (telemetry_ != nullptr)
    telemetry_->set_personality(config_.description, radio_.now_ticks());
}

void ReactiveJammer::attach_trace(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  radio_.attach_ring(telemetry != nullptr ? &telemetry->ring() : nullptr);
  if (telemetry_ != nullptr)
    telemetry_->set_personality(config_.description, radio_.now_ticks());
}

obs::MetricsRegistry* ReactiveJammer::metrics() const noexcept {
  return telemetry_ != nullptr ? &telemetry_->metrics() : nullptr;
}

void ReactiveJammer::reset_detection_state() {
  radio_.core().reset();
  radio_.core().apply_registers();
}

void ReactiveJammer::absorb_stream_faults(
    const radio::UsrpN210::StreamResult& result) {
  if (result.overflow_gaps == 0 && !result.adc_clipped) return;

  obs::MetricsRegistry* m = metrics();
  if (m != nullptr) {
    if (result.overflow_gaps > 0) {
      m->add("fault.streams_degraded", 1);
      m->add("fault.overflow_gaps", result.overflow_gaps);
      m->add("fault.samples_lost", result.samples_lost);
    }
    if (result.adc_clipped) m->add("fault.clipped_streams", 1);
  }
  // In-stream recovery (DspCore::fast_forward) already kept VITA time exact
  // and flushed the detector pipelines across each gap; this reset
  // additionally returns the whole fabric to a known-clean state for the
  // next capture. Never while a write is in flight: reset_detection_state()
  // re-latches registers, which would apply the write early.
  if (result.overflow_gaps > 0 && radio_.settings_bus().idle()) {
    reset_detection_state();
    if (m != nullptr) m->add("fault.detector_resets", 1);
  }
}

radio::UsrpN210::StreamResult ReactiveJammer::observe(
    std::span<const dsp::cfloat> rx) {
  radio::UsrpN210::StreamResult result = radio_.stream(rx);
  absorb_stream_faults(result);
  return result;
}

radio::UsrpN210::StreamResult ReactiveJammer::observe(
    std::span<const dsp::IQ16> rx) {
  radio::UsrpN210::StreamResult result = radio_.stream_fabric(rx);
  absorb_stream_faults(result);
  return result;
}

void ReactiveJammer::tune(double freq_hz) {
  radio_.frontend().tune(freq_hz);
  if (telemetry_ != nullptr)
    telemetry_->ring().push_event(
        obs::EventKind::kRetune, radio_.now_ticks(),
        static_cast<std::uint64_t>(radio_.frontend().frequency()));
}

void ReactiveJammer::set_tx_gain(double db) {
  radio_.frontend().set_tx_gain(db);
  if (telemetry_ != nullptr)
    // Value is the clamped front-end gain in centi-dB so the integer event
    // payload keeps one decimal of the 0.5 dB SBX gain steps.
    telemetry_->ring().push_event(
        obs::EventKind::kGainChange, radio_.now_ticks(),
        static_cast<std::uint64_t>(
            std::lround(radio_.frontend().tx_gain_db() * 100.0)));
}

}  // namespace rjf::core
