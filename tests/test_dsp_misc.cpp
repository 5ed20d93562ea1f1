// Covers NCO, CRC32, windows, and noise sources.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/crc32.h"
#include "dsp/db.h"
#include "dsp/nco.h"
#include "dsp/noise.h"
#include "dsp/window.h"

namespace rjf::dsp {
namespace {

TEST(Nco, UnitMagnitude) {
  Nco nco(1e6, 25e6);
  for (int k = 0; k < 1000; ++k) EXPECT_NEAR(std::abs(nco.step()), 1.0f, 1e-4f);
}

TEST(Nco, PhaseIncrementMatchesFrequency) {
  const double f = 3.3e6, rate = 25e6;
  Nco nco(f, rate);
  cfloat prev = nco.step();
  const double expected = 2.0 * std::numbers::pi * f / rate;
  for (int k = 0; k < 200; ++k) {
    const cfloat cur = nco.step();
    EXPECT_NEAR(std::arg(cur * std::conj(prev)), expected, 1e-5);
    prev = cur;
  }
}

TEST(Nco, NegativeFrequencyRotatesBackwards) {
  Nco nco(-2e6, 25e6);
  (void)nco.step();
  const cfloat a = nco.step();
  Nco pos(2e6, 25e6);
  (void)pos.step();
  const cfloat b = pos.step();
  EXPECT_NEAR(a.imag(), -b.imag(), 1e-5f);
  EXPECT_NEAR(a.real(), b.real(), 1e-5f);
}

TEST(Nco, FrequencyAccessorRoundTrips) {
  Nco nco(1.5e6, 25e6);
  EXPECT_NEAR(nco.frequency(), 1.5e6, 1.0);
  nco.set_frequency(-4e6);
  EXPECT_NEAR(nco.frequency(), -4e6, 1.0);
}

TEST(Nco, RejectsBadSampleRate) {
  EXPECT_THROW(Nco(1e6, 0.0), std::invalid_argument);
}

TEST(Crc32, KnownVector) {
  const std::string s = "123456789";
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t k = 0; k < data.size(); ++k)
    data[k] = static_cast<std::uint8_t>(k * 31 + 7);
  Crc32 inc;
  inc.update(std::span<const std::uint8_t>(data.data(), 100));
  inc.update(std::span<const std::uint8_t>(data.data() + 100, 157));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0x5A);
  const std::uint32_t good = crc32(data);
  data[20] ^= 0x01;
  EXPECT_NE(crc32(data), good);
}

TEST(Window, RectIsAllOnes) {
  for (const float w : make_window(WindowType::kRect, 32))
    EXPECT_FLOAT_EQ(w, 1.0f);
}

TEST(Window, HannEndpointsZeroAndSymmetric) {
  const auto w = make_window(WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0f, 1e-6f);
  EXPECT_NEAR(w.back(), 0.0f, 1e-6f);
  EXPECT_NEAR(w[32], 1.0f, 1e-6f);
  for (std::size_t k = 0; k < 32; ++k) EXPECT_NEAR(w[k], w[64 - k], 1e-6f);
}

TEST(Window, HammingAndBlackmanShapes) {
  const auto h = make_window(WindowType::kHamming, 33);
  EXPECT_NEAR(h.front(), 0.08f, 1e-3f);
  const auto b = make_window(WindowType::kBlackman, 33);
  EXPECT_NEAR(b.front(), 0.0f, 1e-3f);
  EXPECT_NEAR(b[16], 1.0f, 1e-3f);
}

TEST(NoiseSource, MeanPowerMatchesSetting) {
  NoiseSource src(0.25, 99);
  const cvec block = src.block(100000);
  EXPECT_NEAR(mean_power(block), 0.25, 0.01);
}

TEST(NoiseSource, AddToSuperimposes) {
  NoiseSource src(0.01, 5);
  cvec x(10000, cfloat{1.0f, 0.0f});
  src.add_to(x);
  EXPECT_NEAR(mean_power(x), 1.01, 0.01);
}

TEST(NoiseSource, DeterministicPerSeed) {
  NoiseSource a(1.0, 123), b(1.0, 123);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a.sample(), b.sample());
}

}  // namespace
}  // namespace rjf::dsp
