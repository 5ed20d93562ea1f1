// User-facing jammer configuration — the programmatic equivalent of the
// paper's GNU Radio Companion GUI ("a reactive jamming event builder, where
// users can specifically control detection types and desired jamming
// reactions during run time").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fpga/cross_correlator.h"
#include "fpga/dsp_core.h"
#include "fpga/register_file.h"

namespace rjf::core {

enum class DetectionMode {
  kCrossCorrelator,   // template match only (protocol-aware)
  kEnergyRise,        // coarse: any energy increase on the band
  kEnergyFall,        // coarse: energy decrease (end-of-packet)
  kXcorrOrEnergy,     // either detector may fire (paper's WiMAX combo)
  kXcorrThenEnergy,   // sequenced: xcorr followed by energy within a window
  kContinuous,        // no detection: jam permanently (baseline jammer)
};

struct JammerConfig {
  DetectionMode detection = DetectionMode::kEnergyRise;

  // Cross-correlator settings (ignored for energy-only modes).
  std::optional<fpga::CorrelatorTemplate> xcorr_template;
  std::uint32_t xcorr_threshold = 0xFFFFFFFFu;

  // Energy differentiator settings.
  double energy_high_db = 10.0;   // paper's validation setting
  double energy_low_db = 10.0;
  std::uint32_t energy_floor = 1u << 16;

  // Sequenced-trigger window (kXcorrThenEnergy), in fabric clock cycles.
  std::uint32_t trigger_window_cycles = 25000;  // 250 us

  // Human-readable personality name, surfaced in telemetry traces so an
  // exported timeline identifies which jamming event produced each burst.
  // JammingEventBuilder::build() stamps its describe() string here; presets
  // carry their own labels. Never parsed — purely for trace annotation.
  std::string description;

  // Jamming response.
  fpga::JamWaveform waveform = fpga::JamWaveform::kWhiteNoise;
  std::uint32_t jam_delay_samples = 0;       // "surgical" offset, 40 ns units
  std::uint32_t jam_uptime_samples = 2500;   // 0.1 ms default

  /// Uptime helper: seconds -> 25 MSPS samples (paper range 40 ns .. ~40 s).
  static std::uint32_t samples_from_seconds(double seconds) noexcept {
    const double s = seconds * fpga::kBasebandRateHz;
    if (s <= 1.0) return 1;
    if (s >= 4294967295.0) return 0xFFFFFFFFu;
    return static_cast<std::uint32_t>(s);
  }
};

}  // namespace rjf::core
