#include "dsp/simd/xcorr.h"

namespace rjf::dsp::simd {

XcorrBlockFn xcorr_block_kernel(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      if (const XcorrBlockFn kernel = detail::xcorr_block_avx512())
        return kernel;
      [[fallthrough]];
    case Isa::kAvx2:
      return detail::xcorr_block_avx2();
    case Isa::kScalar:
      break;
  }
  return nullptr;
}

}  // namespace rjf::dsp::simd
