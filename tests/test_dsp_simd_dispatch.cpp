// Dispatch-tier coverage (DESIGN.md section 12): a tier without its own
// variant of a kernel must fall through to the next narrower one, never to
// the scalar path. The AVX-512 tier carries only the correlator kernel, so
// on an AVX-512 host the Viterbi and FFT entry points must still report a
// vector kernel.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "dsp/simd/dispatch.h"
#include "dsp/simd/fft_kernels.h"
#include "dsp/simd/viterbi.h"

namespace rjf::dsp::simd {
namespace {

TEST(SimdDispatch, VectorEntryPointsServeEveryActiveVectorTier) {
  const Isa active = active_isa();
  ASSERT_LE(static_cast<int>(active), static_cast<int>(compiled_isa()));
  // Every tier from SSE4.2 up to the active one runs on this CPU.
  for (int tier = static_cast<int>(Isa::kSse42);
       tier <= static_cast<int>(active); ++tier) {
    const Isa isa = static_cast<Isa>(tier);
    SCOPED_TRACE(isa_name(isa));

    const std::array<std::uint8_t, 4> coded = {0, 1, 1, 0};
    std::array<std::uint64_t, 2> survivors{};
    std::array<std::uint16_t, 64> hard_metrics{};
    EXPECT_TRUE(viterbi_hard_acs(isa, coded, survivors.data(),
                                 hard_metrics.data()));

    const std::array<float, 4> llrs = {-1.0f, 1.0f, 1.0f, -1.0f};
    std::array<float, 64> soft_metrics{};
    EXPECT_TRUE(
        viterbi_soft_acs(isa, llrs, survivors.data(), soft_metrics.data()));

    // A 2-point transform: the radix-2 pass alone, no radix-4 stages.
    std::array<float, 4> x = {1.0f, 0.0f, 2.0f, 0.0f};
    const FftKernelRun run{2, true, false, nullptr, 0};
    EXPECT_TRUE(fft_exec(isa, run, x.data()));
    EXPECT_EQ(x[0], 3.0f);
    EXPECT_EQ(x[2], -1.0f);
  }
}

TEST(SimdDispatch, EveryTierHasADistinctName) {
  const std::string names[] = {isa_name(Isa::kScalar), isa_name(Isa::kSse42),
                               isa_name(Isa::kAvx2), isa_name(Isa::kAvx512)};
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_NE(names[a], "?");
    for (std::size_t b = a + 1; b < 4; ++b) EXPECT_NE(names[a], names[b]);
  }
}

}  // namespace
}  // namespace rjf::dsp::simd
