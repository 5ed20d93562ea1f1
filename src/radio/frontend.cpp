#include "radio/frontend.h"

#include <algorithm>

#include "dsp/db.h"

namespace rjf::radio {

void SbxFrontend::tune(double freq_hz) {
  if (freq_hz < kMinFreqHz || freq_hz > kMaxFreqHz)
    throw std::out_of_range("SbxFrontend::tune: frequency outside SBX range");
  freq_hz_ = freq_hz;
}

void SbxFrontend::set_tx_gain(double db) noexcept {
  tx_gain_db_ = std::clamp(db, 0.0, kMaxGainDb);
}

void SbxFrontend::set_rx_gain(double db) noexcept {
  rx_gain_db_ = std::clamp(db, 0.0, kMaxGainDb);
}

float SbxFrontend::tx_amplitude() const noexcept {
  return static_cast<float>(dsp::amplitude_from_db(tx_gain_db_));
}

float SbxFrontend::rx_amplitude() const noexcept {
  return static_cast<float>(dsp::amplitude_from_db(rx_gain_db_));
}

dsp::cvec SbxFrontend::apply_rx(std::span<const dsp::cfloat> in) const {
  dsp::cvec out(in.size());
  apply_rx(in, out);
  return out;
}

void SbxFrontend::apply_rx(std::span<const dsp::cfloat> in,
                           std::span<dsp::cfloat> out) const noexcept {
  const float g = rx_amplitude();
  std::transform(in.begin(), in.end(), out.begin(),
                 [g](dsp::cfloat s) { return s * g; });
}

}  // namespace rjf::radio
