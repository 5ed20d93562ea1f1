// SBX daughterboard front-end model.
//
// The SBX gives the N210 40 MHz of instantaneous bandwidth and a tunable
// centre frequency between 400 MHz and 4.4 GHz, which is what lets a single
// jammer hardware build cover both WiFi channel 14 (2.484 GHz) and the
// WiMAX carrier (2.608 GHz). The model enforces the tuning range and
// applies TX/RX gain; frequency selectivity itself lives in the channel
// model (signals only couple between front-ends tuned to the same carrier).
#pragma once

#include <stdexcept>

#include "dsp/types.h"

namespace rjf::radio {

class SbxFrontend {
 public:
  static constexpr double kMinFreqHz = 400e6;
  static constexpr double kMaxFreqHz = 4.4e9;
  static constexpr double kMaxBandwidthHz = 40e6;
  static constexpr double kMaxGainDb = 31.5;

  /// Throws std::out_of_range if the frequency is outside the SBX range.
  void tune(double freq_hz);
  [[nodiscard]] double frequency() const noexcept { return freq_hz_; }

  /// Gains clamp to [0, 31.5] dB like the real driver.
  void set_tx_gain(double db) noexcept;
  void set_rx_gain(double db) noexcept;
  [[nodiscard]] double tx_gain_db() const noexcept { return tx_gain_db_; }
  [[nodiscard]] double rx_gain_db() const noexcept { return rx_gain_db_; }

  /// The linear amplitude factors of the two gains, as the float each
  /// baseband sample is multiplied by (UsrpN210::stream_fabric applies the
  /// TX one as it converts each on-air sample).
  [[nodiscard]] float tx_amplitude() const noexcept;
  [[nodiscard]] float rx_amplitude() const noexcept;

  /// Apply RX gain to an incoming baseband buffer.
  [[nodiscard]] dsp::cvec apply_rx(std::span<const dsp::cfloat> in) const;
  /// The same into `out` (out.size() == in.size()).
  void apply_rx(std::span<const dsp::cfloat> in,
                std::span<dsp::cfloat> out) const noexcept;

 private:
  double freq_hz_ = 2.484e9;  // WiFi channel 14 default
  double tx_gain_db_ = 0.0;
  double rx_gain_db_ = 0.0;
};

}  // namespace rjf::radio
