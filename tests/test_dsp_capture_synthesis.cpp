// Seeded tier differential for the capture synthesis kernels
// (dsp/simd/synth.h): on every SIMD tier the host supports, the noise
// block kernel behind NoiseSource and the CFO mix must give the scalar
// tier's bits, through every NoiseSource entry point and at every frame
// length, including the partial last pass. Plus the finiteness check the
// CFO kernels' written-out complex product relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/detection_experiment.h"
#include "dsp/noise.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/synth.h"
#include "fpga/dsp_core.h"
#include "tests/simd_tiers.h"

namespace rjf {
namespace {

using dsp::simd::Isa;

constexpr std::uint64_t kSeed = 0xC4A7507EULL;

std::uint64_t bits(dsp::cfloat s) { return std::bit_cast<std::uint64_t>(s); }

void expect_same_bits(std::span<const dsp::cfloat> got,
                      std::span<const dsp::cfloat> want, const char* what,
                      Isa tier) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << " on " << dsp::simd::isa_name(tier) << ", sample " << i;
}

// A vector tier the host runs must have kernels of its own: one that
// quietly fell through to the scalar tier would pass every differential
// below by comparing the scalar tier with itself.
TEST(CaptureSynthesis, VectorTiersRunTheirOwnKernels) {
  for (const Isa tier : test::host_tiers()) {
    if (tier == Isa::kScalar) continue;
    EXPECT_NE(dsp::simd::noise_block_kernel(tier),
              dsp::simd::noise_block_kernel(Isa::kScalar))
        << dsp::simd::isa_name(tier);
    const dsp::simd::detail::CfoMixFn cfo =
        tier == Isa::kAvx512 ? dsp::simd::detail::cfo_mix_avx512()
                             : dsp::simd::detail::cfo_mix_avx2();
    EXPECT_NE(cfo, nullptr) << dsp::simd::isa_name(tier);
  }
  if (dsp::simd::active_isa() == Isa::kAvx512) {
    EXPECT_NE(dsp::simd::noise_block_kernel(Isa::kAvx512),
              dsp::simd::noise_block_kernel(Isa::kAvx2));
  }
}

TEST(CaptureSynthesis, NoiseTiersMatchScalarThroughEveryEntryPoint) {
  // Power 0, a tiny and a huge power (radius up to 8.6 sigma stays finite),
  // and ordinary ones.
  const double powers[] = {0.0, 1e-30, 1e38, 1.0, 0.01};
  for (const Isa tier : test::host_tiers()) {
    for (std::uint64_t s = 0; s < 12; ++s) {
      const std::uint64_t seed = dsp::derive_seed(kSeed, s);
      for (const double power : powers) {
        dsp::NoiseSource want(power, seed, Isa::kScalar);
        dsp::NoiseSource got(power, seed, tier);
        // Random lengths 0..300 through fill, sample, block and add_to,
        // interleaved, so blocks are split at every offset.
        dsp::Xoshiro256 ops(dsp::derive_seed(seed, 1));
        for (int step = 0; step < 40; ++step) {
          const std::size_t n = ops.uniform_int(301);
          switch (ops.uniform_int(4)) {
            case 0: {
              dsp::cvec a(n), b(n);
              want.fill(a);
              got.fill(b);
              expect_same_bits(b, a, "fill", tier);
              break;
            }
            case 1:
              for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(bits(got.sample()), bits(want.sample()))
                    << "sample on " << dsp::simd::isa_name(tier);
              break;
            case 2:
              expect_same_bits(got.block(n), want.block(n), "block", tier);
              break;
            default: {
              dsp::cvec a(n);
              for (auto& x : a)
                x = {static_cast<float>(ops.uniform() - 0.5),
                     static_cast<float>(ops.uniform() - 0.5)};
              dsp::cvec b = a;
              want.add_to(a);
              got.add_to(b);
              expect_same_bits(b, a, "add_to", tier);
              break;
            }
          }
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// Frame samples with the values a product is most likely to differ on:
// signed zeros, subnormals and large finite values, among ordinary ones.
float frame_value(dsp::Xoshiro256& rng) {
  constexpr float kEdges[] = {0.0f,
                              -0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              1e-40f,
                              -3e-39f,
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max(),
                              1e38f,
                              -2.5e37f};
  if (rng.uniform_int(4) == 0)
    return kEdges[rng.uniform_int(std::size(kEdges))];
  return static_cast<float>(4.0 * rng.uniform() - 2.0);
}

// out[k] += frame[k] * cfo_phasor(w, k) through cfo_mix on `tier` and
// through cfo_mix_reference, on the same random output buffer; the element
// past the output is a sentinel neither may touch.
void check_cfo_mix(Isa tier, std::size_t n, double w, dsp::Xoshiro256& rng) {
  dsp::cvec frame(n);
  for (auto& s : frame) s = {frame_value(rng), frame_value(rng)};
  dsp::cvec want(n + 1);
  for (auto& s : want)
    s = {static_cast<float>(rng.uniform() - 0.5),
         static_cast<float>(rng.uniform() - 0.5)};
  const dsp::cfloat sentinel = want[n];
  dsp::cvec got = want;
  dsp::simd::cfo_mix_reference(std::span(want).first(n), frame, w);
  dsp::simd::cfo_mix(std::span(got).first(n), frame, w, tier);
  ASSERT_EQ(bits(got[n]), bits(sentinel))
      << "wrote past the output on " << dsp::simd::isa_name(tier)
      << ", length " << n;
  expect_same_bits(got, want, "cfo_mix", tier);
}

TEST(CaptureSynthesis, CfoMixTiersMatchReference) {
  // 112 kHz is well past every preset's max_cfo_hz.
  const double w_max = 2 * std::numbers::pi * 112e3 / fpga::kBasebandRateHz;
  dsp::Xoshiro256 rng(kSeed);
  std::vector<double> ws = {0.0, w_max, -w_max};
  for (int i = 0; i < 3; ++i) ws.push_back((2 * rng.uniform() - 1) * w_max);
  for (const Isa tier : test::host_tiers()) {
    for (const double w : ws) {
      for (std::size_t n = 0; n <= 257; ++n) {
        check_cfo_mix(tier, n, w, rng);
        if (HasFatalFailure()) return;
      }
    }
    // Past 2^20 samples, longer than a 1 Mb/s DSSS capture, where the
    // double index counter and the quadrant wrap have run a long way.
    for (const double w : {w_max, ws.back()}) {
      check_cfo_mix(tier, (std::size_t{1} << 20) + 3, w, rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CaptureSynthesis, NonFiniteFrameIsRejected) {
  core::DetectionRunConfig config;
  config.tx_rate_hz = 20e6;
  dsp::Xoshiro256 rng(kSeed);
  dsp::cvec frame(200);
  for (auto& s : frame)
    s = {static_cast<float>(rng.uniform() - 0.5),
         static_cast<float>(rng.uniform() - 0.5)};
  EXPECT_NO_THROW((void)core::prepare_detection_trials(
      frame, core::DetectorTap::kXcorr, config));
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    dsp::cvec broken = frame;
    broken[97] = {0.1f, bad};
    EXPECT_THROW((void)core::prepare_detection_trials(
                     broken, core::DetectorTap::kXcorr, config),
                 std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace rjf
