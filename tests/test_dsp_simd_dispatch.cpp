// Dispatch-tier naming (DESIGN.md section 12). Each kernel's outputs are
// checked against its scalar reference on every tier the host runs by the
// kernel's own suite: ViterbiTiers, FftPlanTiers and CrossCorrelatorBlock.
#include <gtest/gtest.h>

#include <string>

#include "dsp/simd/dispatch.h"

namespace rjf::dsp::simd {
namespace {

TEST(SimdDispatch, EveryTierHasADistinctName) {
  const std::string names[] = {isa_name(Isa::kScalar), isa_name(Isa::kAvx2),
                               isa_name(Isa::kAvx512)};
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NE(names[a], "?");
    for (std::size_t b = a + 1; b < 3; ++b) EXPECT_NE(names[a], names[b]);
  }
}

TEST(SimdDispatch, ActiveTierIsCompiledIn) {
  EXPECT_LE(static_cast<int>(active_isa()), static_cast<int>(compiled_isa()));
}

}  // namespace
}  // namespace rjf::dsp::simd
