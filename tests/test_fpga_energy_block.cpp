// Seeded differential for the energy detector's block entry point
// (EnergyDifferentiator::block, DESIGN.md "Host fast path"): on random
// thresholds, floors, streams and splits, every energy sum and both
// trigger masks must equal a step() loop, whichever SIMD tier serves
// block(). Each case runs once per tier the host supports, scalar (the
// step() fallback) included.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/fabric_units.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "fpga/energy_differentiator.h"
#include "tests/simd_tiers.h"

namespace rjf::fpga {
namespace {

constexpr std::uint64_t kSeed = 0xE2E2'B10Cu;
constexpr std::int16_t kMin16 = std::numeric_limits<std::int16_t>::min();
constexpr std::int16_t kMax16 = std::numeric_limits<std::int16_t>::max();

using test::host_tiers;

struct Thresholds {
  std::uint32_t high, low, floor;
};

// `blk` is driven through block() on one tier, `ref` through step() only.
struct Pair {
  Pair(dsp::simd::Isa isa, const Thresholds& t) : blk(isa) {
    blk.set_thresholds(t.high, t.low, t.floor);
    ref.set_thresholds(t.high, t.low, t.floor);
  }
  EnergyDifferentiator blk;
  EnergyDifferentiator ref;
  std::uint64_t highs = 0;
  std::uint64_t lows = 0;
};

// block() over rx against step() per sample; mask bits past the run must
// be clear. Counts the triggers so a case can show it covered both.
void expect_block_matches(Pair& p, std::span<const dsp::IQ16> rx,
                          std::uint64_t at) {
  EnergyBlock out;
  p.blk.block(rx, out);
  const std::size_t n = std::min(rx.size(), kMetricBlock);
  for (std::size_t k = 0; k < n; ++k) {
    const EnergyDifferentiator::Output o = p.ref.step(rx[k]);
    ASSERT_EQ(out.energy_sum(k), o.energy_sum) << "sample " << at + k;
    ASSERT_EQ(mask_test(out.high, k), o.trigger_high) << "sample " << at + k;
    ASSERT_EQ(mask_test(out.low, k), o.trigger_low) << "sample " << at + k;
    p.highs += o.trigger_high ? 1 : 0;
    p.lows += o.trigger_low ? 1 : 0;
  }
  for (std::size_t k = n; k < kMetricBlock; ++k) {
    ASSERT_FALSE(mask_test(out.high, k)) << "past the run, bit " << k;
    ASSERT_FALSE(mask_test(out.low, k)) << "past the run, bit " << k;
  }
}

// step() on both instances: the block instance must continue from where
// its last block() left the histories.
void expect_step_matches(Pair& p, dsp::IQ16 s, std::uint64_t at) {
  const EnergyDifferentiator::Output a = p.blk.step(s);
  const EnergyDifferentiator::Output b = p.ref.step(s);
  ASSERT_EQ(a.energy_sum, b.energy_sum) << "sample " << at;
  ASSERT_EQ(a.trigger_high, b.trigger_high) << "sample " << at;
  ASSERT_EQ(a.trigger_low, b.trigger_low) << "sample " << at;
}

// Air made of segments of random length at random amplitude: silence,
// full-scale negative rails, full scale of random sign, or noise at a
// random level, so the power steps up and down across every comparator.
std::vector<dsp::IQ16> random_air(dsp::Xoshiro256& rng, std::size_t total) {
  std::vector<dsp::IQ16> air;
  while (air.size() < total) {
    const std::size_t len = 1 + rng.uniform_int(300);
    const std::uint64_t kind = rng.uniform_int(5);
    const int bits = 1 + static_cast<int>(rng.uniform_int(15));
    for (std::size_t k = 0; k < len; ++k) {
      switch (kind) {
        case 0:
          air.push_back({0, 0});
          break;
        case 1:
          air.push_back({kMin16, kMin16});
          break;
        case 2:
          air.push_back({rng.uniform_int(2) ? kMin16 : kMax16,
                         rng.uniform_int(2) ? kMin16 : kMax16});
          break;
        default: {
          const auto rail = [&] {
            const std::int64_t span = std::int64_t{1} << bits;
            return static_cast<std::int16_t>(
                static_cast<std::int64_t>(rng.uniform_int(2 * span)) - span);
          };
          const std::int16_t i = rail();
          air.push_back({i, rail()});
        }
      }
    }
  }
  air.resize(total);
  return air;
}

// Q8.8 ratios: the extremes, the 1.0 boundary and its neighbours, and
// random words of every width.
std::uint32_t random_threshold(dsp::Xoshiro256& rng) {
  constexpr std::uint32_t kEdges[] = {0u, 1u, 255u, 256u, 257u, 0xFFFFFFFFu};
  if (rng.uniform_int(3) == 0) return kEdges[rng.uniform_int(6)];
  return static_cast<std::uint32_t>(rng.next() >> (32 + rng.uniform_int(32)));
}

std::uint32_t random_floor(dsp::Xoshiro256& rng) {
  constexpr std::uint32_t kEdges[] = {0u, 1000u, 0xFFFFFFFFu};
  if (rng.uniform_int(2) == 0) return kEdges[rng.uniform_int(3)];
  return static_cast<std::uint32_t>(rng.next() >> (32 + rng.uniform_int(32)));
}

TEST(EnergyBlock, RandomSplitsInterleavedWithStepMatchStep) {
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    std::uint64_t highs = 0;
    std::uint64_t lows = 0;
    for (std::uint64_t round = 0; round < 48; ++round) {
      dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, round));
      const Thresholds t{random_threshold(rng), random_threshold(rng),
                         random_floor(rng)};
      SCOPED_TRACE(::testing::Message() << "round " << round << " thresholds "
                                        << t.high << ' ' << t.low << " floor "
                                        << t.floor);
      Pair p(isa, t);
      const std::vector<dsp::IQ16> air = random_air(rng, 6000);
      std::size_t pos = 0;
      while (pos < air.size()) {
        if (rng.uniform_int(4) == 0) {
          // A few step() calls between blocks.
          const std::size_t steps =
              std::min<std::size_t>(1 + rng.uniform_int(5), air.size() - pos);
          for (std::size_t k = 0; k < steps; ++k, ++pos) {
            expect_step_matches(p, air[pos], pos);
            if (::testing::Test::HasFatalFailure()) return;
          }
          continue;
        }
        // Splits of 0 to past kMetricBlock: block() takes at most
        // kMetricBlock samples of a longer run.
        const std::size_t want = rng.uniform_int(2) == 0
                                     ? rng.uniform_int(10)
                                     : rng.uniform_int(kMetricBlock + 40);
        const std::size_t len = std::min(want, air.size() - pos);
        expect_block_matches(p, std::span(air).subspan(pos, len), pos);
        if (::testing::Test::HasFatalFailure()) return;
        pos += std::min(len, kMetricBlock);
      }
      highs += p.highs;
      lows += p.lows;
    }
    // Both comparators must have fired often, or the masks were only ever
    // compared as zero.
    EXPECT_GT(highs, 1000u);
    EXPECT_GT(lows, 1000u);
  }
}

TEST(EnergyBlock, FullScaleNegativeRailsAtTheUnityRatio) {
  // Full-scale-negative I and Q give x = 2^31, the widest power, and a
  // steady run of them y = 2^36, the widest sum: the 68-bit products of the
  // comparators then depend on the high half of the sum. At a ratio of
  // exactly 1.0 (256 in Q8.8) a steady level must not trigger; just below
  // it, it must.
  std::vector<dsp::IQ16> air(200, dsp::IQ16{0, 0});
  air.resize(1200, dsp::IQ16{kMin16, kMin16});
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    for (const std::uint32_t ratio : {255u, 256u, 257u}) {
      SCOPED_TRACE(::testing::Message() << "ratio " << ratio);
      Pair p(isa, Thresholds{ratio, ratio, 0});
      std::size_t steady_highs = 0;
      for (std::size_t pos = 0; pos < air.size(); pos += kMetricBlock) {
        const auto run = std::span(air).subspan(
            pos, std::min(kMetricBlock, air.size() - pos));
        expect_block_matches(p, run, pos);
        if (::testing::Test::HasFatalFailure()) return;
        if (pos >= 400) steady_highs += p.highs;
        p.highs = 0;
      }
      EXPECT_EQ(steady_highs > 0, ratio < 256u);
    }
  }
}

TEST(EnergyBlock, ExtremeThresholdsAndFloors) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 1000));
  const std::vector<dsp::IQ16> air = random_air(rng, 3000);
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    for (const std::uint32_t high : {0u, 0xFFFFFFFFu}) {
      for (const std::uint32_t low : {0u, 0xFFFFFFFFu}) {
        for (const std::uint32_t floor : {0u, 0xFFFFFFFFu}) {
          SCOPED_TRACE(::testing::Message() << "thresholds " << high << ' '
                                            << low << " floor " << floor);
          Pair p(isa, Thresholds{high, low, floor});
          for (std::size_t pos = 0; pos < air.size(); pos += 200) {
            const auto run =
                std::span(air).subspan(pos, std::min<std::size_t>(
                                                200, air.size() - pos));
            expect_block_matches(p, run, pos);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(EnergyBlock, WarmupEndingInsideABlock) {
  // The comparators arm after kEnergyWarmup samples; with a zero threshold
  // and floor a non-silent sample triggers high as soon as they do. The
  // pipe fills inside the second block of each split below.
  std::vector<dsp::IQ16> air(600, dsp::IQ16{1000, -1000});
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    for (const std::size_t first : {std::size_t{1}, std::size_t{50},
                                    std::size_t{95}, std::size_t{96}}) {
      SCOPED_TRACE(::testing::Message() << "first block " << first);
      Pair p(isa, Thresholds{0, 0, 0});
      expect_block_matches(p, std::span(air).first(first), 0);
      expect_block_matches(p, std::span(air).subspan(first, kMetricBlock),
                           first);
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(p.highs, first + kMetricBlock - kEnergyWarmup);
    }
    // Warm-up ending inside the very first block.
    Pair p(isa, Thresholds{0, 0, 0});
    expect_block_matches(p, std::span(air).first(kMetricBlock), 0);
    EXPECT_EQ(p.highs, kMetricBlock - kEnergyWarmup);
  }
}

TEST(EnergyBlock, ResetBetweenCalls) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 2000));
  const std::vector<dsp::IQ16> air = random_air(rng, 2000);
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    const std::uint32_t six_db = core::energy_threshold_q88_from_db(6.0);
    Pair p(isa, Thresholds{six_db, six_db, 100});
    std::size_t pos = 0;
    for (const std::size_t len : {std::size_t{70}, std::size_t{256},
                                  std::size_t{13}, std::size_t{200}}) {
      expect_block_matches(p, std::span(air).subspan(pos, len), pos);
      if (::testing::Test::HasFatalFailure()) return;
      pos += len;
      // reset() in the middle of the histories: both must restart from an
      // empty pipe, warm-up included.
      p.blk.reset();
      p.ref.reset();
    }
    EXPECT_GT(p.highs + p.lows, 0u);
  }
}

}  // namespace
}  // namespace rjf::fpga
