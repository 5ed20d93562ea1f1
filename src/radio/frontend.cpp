#include "radio/frontend.h"

#include <algorithm>
#include <cmath>

#include "dsp/db.h"

namespace rjf::radio {
namespace {

float amplitude(double gain_db) noexcept {
  return static_cast<float>(dsp::amplitude_from_db(gain_db));
}

}  // namespace

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

void SbxFrontend::apply_tx(std::span<dsp::cfloat> buf) const noexcept {
  const float g = amplitude(tx_gain_db_);
  for (dsp::cfloat& s : buf) s *= g;
}

dsp::cvec SbxFrontend::apply_rx(std::span<const dsp::cfloat> in) const {
  const float g = amplitude(rx_gain_db_);
  dsp::cvec out(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [g](dsp::cfloat s) { return s * g; });
  return out;
}

}  // namespace rjf::radio
