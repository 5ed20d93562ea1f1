#include "dsp/types.h"

#include <algorithm>
#include <cmath>

namespace rjf::dsp {

std::int16_t to_q15(float x) noexcept {
  const float scaled = x * 32768.0f;
  const float clamped = std::clamp(scaled, -32768.0f, 32767.0f);
  return static_cast<std::int16_t>(std::lrintf(clamped));
}

IQ16 to_iq16(cfloat x) noexcept { return IQ16{to_q15(x.real()), to_q15(x.imag())}; }

iqvec to_iq16(std::span<const cfloat> in) {
  iqvec out(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [](cfloat s) { return to_iq16(s); });
  return out;
}

cvec from_iq16(std::span<const IQ16> in) {
  cvec out(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [](IQ16 s) { return from_iq16(s); });
  return out;
}

}  // namespace rjf::dsp
