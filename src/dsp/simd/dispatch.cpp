#include "dsp/simd/dispatch.h"

#include <cstdlib>

namespace rjf::dsp::simd {
namespace {

Isa detect() noexcept {
  const char* veto = std::getenv("RJF_DISABLE_SIMD");
  if (veto != nullptr && veto[0] != '\0') return Isa::kScalar;
#if defined(RJF_SIMD_HAVE_AVX512) || defined(RJF_SIMD_HAVE_AVX2)
#if defined(__GNUC__) || defined(__clang__)
#if defined(RJF_SIMD_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq"))
    return Isa::kAvx512;
#endif
#if defined(RJF_SIMD_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
#endif
#endif
  return Isa::kScalar;
}

}  // namespace

Isa active_isa() noexcept {
  static const Isa kActive = detect();
  return kActive;
}

Isa compiled_isa() noexcept {
#if defined(RJF_SIMD_HAVE_AVX512)
  return Isa::kAvx512;
#elif defined(RJF_SIMD_HAVE_AVX2)
  return Isa::kAvx2;
#else
  return Isa::kScalar;
#endif
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

}  // namespace rjf::dsp::simd
