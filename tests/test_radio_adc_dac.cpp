#include "radio/adc_dac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace rjf::radio {
namespace {

TEST(Adc, ZeroInZeroOut) {
  const Adc adc;
  EXPECT_EQ(adc.sample(dsp::cfloat{}), (dsp::IQ16{0, 0}));
}

TEST(Adc, FourteenBitQuantisationStep) {
  const Adc adc(14);
  // One 14-bit LSB is 1/8192 of full scale, left-justified by 2 bits.
  const auto s = adc.sample(dsp::cfloat{1.0f / 8192.0f, 0.0f});
  EXPECT_EQ(s.i, 1 << 2);
}

TEST(Adc, ClipsAndFlags) {
  const Adc adc(14);
  const dsp::cvec hot(10, dsp::cfloat{2.0f, -2.0f});
  const auto out = adc.convert(hot);
  EXPECT_TRUE(adc.clipped());
  EXPECT_EQ(out[0].i, static_cast<std::int16_t>(8191 << 2));
  EXPECT_EQ(out[0].q, static_cast<std::int16_t>(-8192 << 2));
}

TEST(Adc, CleanSignalDoesNotFlag) {
  const Adc adc(14);
  (void)adc.convert(dsp::cvec(10, dsp::cfloat{0.5f, -0.5f}));
  EXPECT_FALSE(adc.clipped());
}

TEST(Adc, TopRepresentableCodeDoesNotFlagClip) {
  // Regression: a sample that scales to exactly the top code (levels-1 =
  // 8191 at 14 bits) is quantised without loss; the pre-fix `scaled >=
  // levels-1` comparison flagged it as clipped anyway.
  const Adc adc(14);
  const auto out =
      adc.convert(dsp::cvec(1, dsp::cfloat{8191.0f / 8192.0f, 0.0f}));
  EXPECT_EQ(out[0].i, static_cast<std::int16_t>(8191 << 2));
  EXPECT_FALSE(adc.clipped());
  // Bottom representable code -levels is equally lossless.
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{-1.0f, 0.0f}));
  EXPECT_FALSE(adc.clipped());
  // One code beyond the top is a genuine clip.
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{8192.0f / 8192.0f, 0.0f}));
  EXPECT_TRUE(adc.clipped());
}

TEST(Adc, RoundingIntoRangeIsNotClipping) {
  // 8191.4/8192 rounds down to the top code: quantisation error only.
  const Adc adc(14);
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{8191.4f / 8192.0f, 0.0f}));
  EXPECT_FALSE(adc.clipped());
  // 8191.6/8192 rounds to 8192, beyond the range: clips.
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{8191.6f / 8192.0f, 0.0f}));
  EXPECT_TRUE(adc.clipped());
}

TEST(Adc, PerSampleClipFlagIsStickyUntilCleared) {
  // sample() participates in clip reporting: the flag ORs across calls and
  // clear_clip() re-arms it, matching convert()'s block semantics.
  const Adc adc(14);
  (void)adc.sample(dsp::cfloat{2.0f, 0.0f});
  EXPECT_TRUE(adc.clipped());
  (void)adc.sample(dsp::cfloat{0.1f, 0.0f});
  EXPECT_TRUE(adc.clipped());  // sticky across clean samples
  adc.clear_clip();
  EXPECT_FALSE(adc.clipped());
  (void)adc.sample(dsp::cfloat{0.1f, 0.0f});
  EXPECT_FALSE(adc.clipped());
  // convert() resets on entry, so a prior per-sample clip doesn't leak in.
  (void)adc.sample(dsp::cfloat{-3.0f, 0.0f});
  (void)adc.convert(dsp::cvec(4, dsp::cfloat{0.25f, 0.0f}));
  EXPECT_FALSE(adc.clipped());
}

TEST(Adc, HugeInputsSaturateOnTheirOwnSide) {
  // Regression: lrintf of a rail with |x * 2^13| >= 2^63 (or of +inf)
  // returns LONG_MIN, so huge positive inputs used to quantise to the
  // bottom code -8192. They must saturate to the top code and flag.
  const Adc adc(14);
  const float inf = std::numeric_limits<float>::infinity();
  const float max = std::numeric_limits<float>::max();
  for (const float x : {1e30f, 1e19f, max, inf}) {
    adc.clear_clip();
    EXPECT_EQ(adc.sample(dsp::cfloat{x, -x}),
              (dsp::IQ16{8191 << 2, -8192 << 2}))
        << x;
    EXPECT_TRUE(adc.clipped()) << x;
    const auto out = adc.convert(dsp::cvec(3, dsp::cfloat{x, -x}));
    EXPECT_EQ(out[2], (dsp::IQ16{8191 << 2, -8192 << 2})) << x;
    EXPECT_TRUE(adc.clipped()) << x;
  }
}

TEST(Adc, NanQuantisesToBottomCodeAndFlags) {
  const Adc adc(14);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(adc.sample(dsp::cfloat{nan, 0.0f}), (dsp::IQ16{-8192 << 2, 0}));
  EXPECT_TRUE(adc.clipped());
  (void)adc.convert(dsp::cvec(5, dsp::cfloat{0.0f, nan}));
  EXPECT_TRUE(adc.clipped());
}

// The documented quantiser in double precision: round half to even, clamp
// to [-levels, levels-1], flag codes outside that range; NaN takes the
// bottom code and flags.
std::pair<std::int16_t, bool> reference_code(float x, unsigned bits) {
  const double levels = std::ldexp(1.0, static_cast<int>(bits) - 1);
  if (std::isnan(x))
    return {static_cast<std::int16_t>(-levels * std::ldexp(1.0, 16 - bits)),
            true};
  const double r = std::nearbyint(
      std::clamp(static_cast<double>(x) * levels, -levels - 1.0, levels));
  const bool clip = r < -levels || r > levels - 1.0;
  const double code = std::clamp(r, -levels, levels - 1.0);
  return {static_cast<std::int16_t>(code * std::ldexp(1.0, 16 - bits)), clip};
}

// Rail values that probe every branch of the quantiser: signed zeros,
// denormals, every half-way point between codes (and its neighbours), the
// full-scale boundaries, huge values, infinities and NaN, plus a dense
// sweep of float bit patterns over [-4, 4].
std::vector<float> probe_rails(unsigned bits) {
  const float levels = std::ldexp(1.0f, static_cast<int>(bits) - 1);
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> rails = {
      0.0f,  -0.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::nextafter(std::numeric_limits<float>::min(), 0.0f),
      -std::nextafter(std::numeric_limits<float>::min(), 0.0f),
      1.0f,  -1.0f, (levels - 1.0f) / levels, -(levels - 1.0f) / levels,
      1e30f, -1e30f, inf, -inf, std::numeric_limits<float>::quiet_NaN()};
  for (float code = -levels - 2.0f; code <= levels + 2.0f; code += 1.0f) {
    const float half = (code + 0.5f) / levels;
    rails.insert(rails.end(), {code / levels, half, std::nextafter(half, inf),
                               std::nextafter(half, -inf)});
  }
  const std::uint32_t top = std::bit_cast<std::uint32_t>(4.0f);
  for (std::uint32_t b = 0; b <= top; b += 4099) {
    const float x = std::bit_cast<float>(b);
    rails.insert(rails.end(), {x, -x});
  }
  return rails;
}

TEST(Adc, ConvertMatchesSampleAndReference) {
  for (const unsigned bits : {2u, 8u, 12u, 14u, 16u}) {
    const Adc adc(bits);
    const std::vector<float> rails = probe_rails(bits);
    // Pair the rails into samples (q lags i by one rail so each value is
    // seen on both rails) and convert them in blocks of varying length, so
    // whole kernel blocks and padded tails both run.
    dsp::cvec in(rails.size());
    for (std::size_t k = 0; k < rails.size(); ++k)
      in[k] = dsp::cfloat{rails[k], rails[(k + 1) % rails.size()]};
    std::size_t k = 0;
    for (std::size_t len = 1; k < in.size(); len = len % 300 + 37) {
      const auto block = std::span(in).subspan(k, std::min(len, in.size() - k));
      const dsp::iqvec out = adc.convert(block);
      const bool block_clip = adc.clipped();
      bool any_clip = false;
      for (std::size_t j = 0; j < block.size(); ++j) {
        const auto [ri, ci] = reference_code(block[j].real(), bits);
        const auto [rq, cq] = reference_code(block[j].imag(), bits);
        adc.clear_clip();
        const dsp::IQ16 one = adc.sample(block[j]);
        ASSERT_EQ(one, (dsp::IQ16{ri, rq}))
            << "bits " << bits << " x " << block[j].real() << ", "
            << block[j].imag();
        ASSERT_EQ(adc.clipped(), ci || cq)
            << "bits " << bits << " x " << block[j].real() << ", "
            << block[j].imag();
        ASSERT_EQ(out[j], one) << "bits " << bits << " sample " << k + j;
        any_clip = any_clip || ci || cq;
      }
      ASSERT_EQ(block_clip, any_clip) << "bits " << bits << " block at " << k;
      k += block.size();
    }
  }
}

TEST(Adc, BitsClamped) {
  EXPECT_EQ(Adc(1).bits(), 2u);
  EXPECT_EQ(Adc(20).bits(), 16u);
  EXPECT_EQ(Adc(14).bits(), 14u);
}

TEST(AdcDac, RoundTripWithinLsb) {
  const Adc adc(14);
  const Dac dac;
  for (const float x : {0.3f, -0.7f, 0.001f, 0.999f}) {
    const dsp::cfloat in{x, -x};
    const dsp::cfloat out = dac.sample(adc.sample(in));
    EXPECT_NEAR(out.real(), in.real(), 1.0f / 8192.0f) << x;
    EXPECT_NEAR(out.imag(), in.imag(), 1.0f / 8192.0f) << x;
  }
}

TEST(Dac, BulkConversion) {
  const Dac dac;
  const dsp::iqvec in(5, dsp::IQ16{16384, -16384});
  const auto out = dac.convert(in);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_FLOAT_EQ(out[0].real(), 0.5f);
  EXPECT_FLOAT_EQ(out[0].imag(), -0.5f);
}

}  // namespace
}  // namespace rjf::radio
