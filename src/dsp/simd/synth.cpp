#include "dsp/simd/synth.h"

#include <cstring>

#include "dsp/simd/synth_kernels_impl.h"

namespace rjf::dsp::simd {
namespace {

// The scalar tier builds at the baseline target, where the compiler still
// vectorises the noise block's loop at SSE2 width (this TU builds with
// -fno-math-errno; sqrt never sees a negative argument there, so the flag
// changes no result). The quantiser takes four rails per pass in GCC
// generic vectors, which the compiler lowers to whatever the target has:
// SSE2 on x86-64.
struct ScalarOps {
  using Q = float __attribute__((vector_size(16)));
  using QMask = std::int32_t __attribute__((vector_size(16)));
  using Codes = std::int16_t __attribute__((vector_size(8)));
  static void store_codes(std::int16_t* to, Q code) noexcept {
    const auto c =
        __builtin_convertvector(__builtin_convertvector(code, QMask), Codes);
    std::memcpy(to, &c, sizeof c);
  }
  static bool any(QMask clip) noexcept {
    return (clip[0] | clip[1] | clip[2] | clip[3]) != 0;
  }
};

// The CFO mix kernel of tier `isa`, or nullptr on the scalar tier.
detail::CfoMixFn cfo_mix_kernel(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      if (const detail::CfoMixFn kernel = detail::cfo_mix_avx512())
        return kernel;
      [[fallthrough]];
    case Isa::kAvx2:
      return detail::cfo_mix_avx2();
    case Isa::kScalar:
      break;
  }
  return nullptr;
}

}  // namespace

NoiseBlockFn noise_block_kernel(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      if (const NoiseBlockFn kernel = detail::noise_block_avx512())
        return kernel;
      [[fallthrough]];
    case Isa::kAvx2:
      if (const NoiseBlockFn kernel = detail::noise_block_avx2())
        return kernel;
      [[fallthrough]];
    case Isa::kScalar:
      break;
  }
  return &noise_block_t<ScalarOps>;
}

QuantiseFn quantise_iq16_kernel(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      if (const QuantiseFn kernel = detail::quantise_iq16_avx512())
        return kernel;
      [[fallthrough]];
    case Isa::kAvx2:
      if (const QuantiseFn kernel = detail::quantise_iq16_avx2())
        return kernel;
      [[fallthrough]];
    case Isa::kScalar:
      break;
  }
  return &quantise_iq16_t<ScalarOps>;
}

void cfo_mix_reference(std::span<cfloat> out, std::span<const cfloat> frame,
                       double w) noexcept {
  for (std::size_t k = 0; k < frame.size(); ++k)
    out[k] += frame[k] * cfo_phasor(w, k);
}

void cfo_mix(std::span<cfloat> out, std::span<const cfloat> frame, double w,
             Isa isa) noexcept {
  if (const detail::CfoMixFn kernel = cfo_mix_kernel(isa))
    kernel(out.data(), frame.data(), frame.size(), w);
  else
    cfo_mix_reference(out, frame, w);
}

}  // namespace rjf::dsp::simd
