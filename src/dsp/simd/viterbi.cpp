#include "dsp/simd/viterbi.h"

namespace rjf::dsp::simd {

bool viterbi_hard_acs(Isa isa, std::span<const std::uint8_t> coded,
                      std::uint64_t* survivors,
                      std::uint16_t* final_metrics) {
  const std::size_t n_steps = coded.size() / 2;
  switch (isa) {
    case Isa::kAvx512:  // no AVX-512 variant: the AVX2 kernel serves
      [[fallthrough]];
    case Isa::kAvx2:
      return detail::viterbi_hard_avx2(coded.data(), n_steps, survivors,
                                       final_metrics);
    case Isa::kScalar:
      break;
  }
  return false;
}

bool viterbi_soft_acs(Isa isa, std::span<const float> llrs,
                      std::uint64_t* survivors, float* final_metrics) {
  const std::size_t n_steps = llrs.size() / 2;
  switch (isa) {
    case Isa::kAvx512:  // no AVX-512 variant: the AVX2 kernel serves
      [[fallthrough]];
    case Isa::kAvx2:
      return detail::viterbi_soft_avx2(llrs.data(), n_steps, survivors,
                                       final_metrics);
    case Isa::kScalar:
      break;
  }
  return false;
}

}  // namespace rjf::dsp::simd
