#include "dsp/simd/fft_kernels.h"

namespace rjf::dsp::simd {

bool fft_exec(Isa isa, const FftKernelRun& run, float* x) {
  switch (isa) {
    case Isa::kAvx512:  // no AVX-512 variant: the AVX2 kernel serves
      [[fallthrough]];
    case Isa::kAvx2:
      return detail::fft_exec_avx2(run, x);
    case Isa::kScalar:
      break;
  }
  return false;
}

}  // namespace rjf::dsp::simd
