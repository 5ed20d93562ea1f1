#include "core/event_builder.h"

#include <cstdio>

#include "core/calibration.h"
#include "core/templates.h"

namespace rjf::core {
namespace {

std::uint32_t calibrated_threshold(const fpga::CorrelatorTemplate& tpl,
                                   double false_alarms_per_s) {
  return XcorrNoiseModel(tpl).threshold_for_rate(false_alarms_per_s);
}

}  // namespace

JammingEventBuilder& JammingEventBuilder::detect_wifi_short_preamble(
    double false_alarms_per_s) {
  config_.detection = DetectionMode::kCrossCorrelator;
  config_.xcorr_template = wifi_short_preamble_template();
  config_.xcorr_threshold =
      calibrated_threshold(*config_.xcorr_template, false_alarms_per_s);
  detection_set_ = true;
  detection_label_ = "xcorr(WiFi STS)";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::detect_wifi_long_preamble(
    double false_alarms_per_s) {
  config_.detection = DetectionMode::kCrossCorrelator;
  config_.xcorr_template = wifi_long_preamble_template();
  config_.xcorr_threshold =
      calibrated_threshold(*config_.xcorr_template, false_alarms_per_s);
  detection_set_ = true;
  detection_label_ = "xcorr(WiFi LTS)";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::detect_wifi_dsss_preamble(
    double false_alarms_per_s) {
  config_.detection = DetectionMode::kCrossCorrelator;
  config_.xcorr_template = wifi_dsss_preamble_template();
  config_.xcorr_threshold =
      calibrated_threshold(*config_.xcorr_template, false_alarms_per_s);
  detection_set_ = true;
  detection_label_ = "xcorr(802.11b SYNC)";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::detect_wimax_preamble(
    unsigned cell_id, unsigned segment, double false_alarms_per_s) {
  config_.detection = DetectionMode::kCrossCorrelator;
  config_.xcorr_template = wimax_preamble_template(cell_id, segment);
  config_.xcorr_threshold =
      calibrated_threshold(*config_.xcorr_template, false_alarms_per_s);
  detection_set_ = true;
  detection_label_ = "xcorr(WiMAX preamble)";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::detect_energy_rise(
    double threshold_db) {
  config_.detection = DetectionMode::kEnergyRise;
  config_.energy_high_db = threshold_db;
  detection_set_ = true;
  detection_label_ = "energy-rise";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::detect_energy_fall(
    double threshold_db) {
  config_.detection = DetectionMode::kEnergyFall;
  config_.energy_low_db = threshold_db;
  detection_set_ = true;
  detection_label_ = "energy-fall";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::or_energy_rise(double threshold_db) {
  if (config_.detection != DetectionMode::kCrossCorrelator) {
    error_ = "or_energy_rise() requires a correlator detection first";
    return *this;
  }
  config_.detection = DetectionMode::kXcorrOrEnergy;
  config_.energy_high_db = threshold_db;
  detection_label_ += " | energy-rise";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::continuous() {
  config_.detection = DetectionMode::kContinuous;
  detection_set_ = true;
  uptime_set_ = true;  // continuous mode manages its own uptime
  detection_label_ = "continuous";
  return *this;
}

JammingEventBuilder& JammingEventBuilder::white_noise() {
  config_.waveform = fpga::JamWaveform::kWhiteNoise;
  return *this;
}

JammingEventBuilder& JammingEventBuilder::replay_last_samples() {
  config_.waveform = fpga::JamWaveform::kReplay;
  return *this;
}

JammingEventBuilder& JammingEventBuilder::host_stream() {
  config_.waveform = fpga::JamWaveform::kHostStream;
  return *this;
}

JammingEventBuilder& JammingEventBuilder::uptime(double seconds) {
  if (seconds <= 0.0) {
    error_ = "uptime must be positive";
    return *this;
  }
  config_.jam_uptime_samples = JammerConfig::samples_from_seconds(seconds);
  uptime_set_ = true;
  return *this;
}

JammingEventBuilder& JammingEventBuilder::delay(double seconds) {
  if (seconds < 0.0 || seconds > 65535.0 / fpga::kBasebandRateHz) {
    error_ = "delay out of the 16-bit register range (0 .. 2.6 ms)";
    return *this;
  }
  config_.jam_delay_samples =
      static_cast<std::uint32_t>(seconds * fpga::kBasebandRateHz);
  return *this;
}

std::optional<JammerConfig> JammingEventBuilder::build() {
  if (!error_.empty()) return std::nullopt;
  if (!detection_set_) {
    error_ = "no detection selected";
    return std::nullopt;
  }
  if (!uptime_set_) {
    error_ = "no jam uptime selected";
    return std::nullopt;
  }
  config_.description = describe();
  return config_;
}

std::string JammingEventBuilder::describe() const {
  char line[256];
  std::snprintf(line, sizeof line,
                "detect=%s waveform=%s uptime=%.2f us delay=%.2f us",
                detection_label_.c_str(),
                config_.waveform == fpga::JamWaveform::kWhiteNoise ? "WGN"
                : config_.waveform == fpga::JamWaveform::kReplay   ? "replay"
                                                                   : "host",
                config_.jam_uptime_samples / 25.0,
                config_.jam_delay_samples / 25.0);
  return line;
}

}  // namespace rjf::core
