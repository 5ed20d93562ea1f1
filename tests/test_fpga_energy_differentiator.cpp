#include "fpga/energy_differentiator.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/fabric_units.h"
#include "dsp/noise.h"
#include "dsp/rng.h"

namespace rjf::fpga {
namespace {

constexpr std::size_t kWarmup = kEnergyWindow + kEnergyRefDelay;

// Feed `n` samples of constant amplitude; returns the last output.
EnergyDifferentiator::Output feed(EnergyDifferentiator& det, std::int16_t amp,
                                  std::size_t n) {
  EnergyDifferentiator::Output out;
  for (std::size_t k = 0; k < n; ++k) out = det.step(dsp::IQ16{amp, amp});
  return out;
}

TEST(EnergyDifferentiator, SilentInputNeverTriggers) {
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(3.0),
                     core::energy_threshold_q88_from_db(3.0), 0);
  for (std::size_t k = 0; k < 1000; ++k) {
    const auto out = det.step(dsp::IQ16{0, 0});
    ASSERT_FALSE(out.trigger_high);
    ASSERT_FALSE(out.trigger_low);
  }
}

TEST(EnergyDifferentiator, WarmupSuppressesTriggers) {
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(3.0),
                     core::energy_threshold_q88_from_db(3.0), 0);
  // A strong signal from the very first sample: no trigger until the
  // 96-sample pipeline (32 sum + 64 reference delay) is full.
  for (std::size_t k = 0; k < kWarmup; ++k) {
    const auto out = det.step(dsp::IQ16{8000, 8000});
    ASSERT_FALSE(out.trigger_high) << "k=" << k;
  }
}

TEST(EnergyDifferentiator, StepUpTriggersHigh) {
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(10.0),
                     core::energy_threshold_q88_from_db(10.0), 1);
  feed(det, 100, 400);  // quiet baseline, fully warmed up
  // A 40x amplitude step is a 32 dB energy rise: must trigger within the
  // 32-sample window plus the 64-sample reference delay.
  bool high = false;
  for (std::size_t k = 0; k < kEnergyWindow + kEnergyRefDelay && !high; ++k)
    high = det.step(dsp::IQ16{4000, 4000}).trigger_high;
  EXPECT_TRUE(high);
}

TEST(EnergyDifferentiator, StepDownTriggersLow) {
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(10.0),
                     core::energy_threshold_q88_from_db(10.0), 1);
  feed(det, 4000, 400);
  bool low = false;
  for (std::size_t k = 0; k < kEnergyWindow + kEnergyRefDelay && !low; ++k)
    low = det.step(dsp::IQ16{100, 100}).trigger_low;
  EXPECT_TRUE(low);
}

TEST(EnergyDifferentiator, SmallRiseBelowThresholdIgnored) {
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(10.0),
                     core::energy_threshold_q88_from_db(10.0), 1);
  feed(det, 1000, 400);
  // +3 dB rise (amplitude x1.41) must NOT trip a 10 dB threshold.
  bool high = false;
  for (std::size_t k = 0; k < 300; ++k)
    high |= det.step(dsp::IQ16{1414, 1414}).trigger_high;
  EXPECT_FALSE(high);
}

TEST(EnergyDifferentiator, ThresholdBoundaryIsSharp) {
  // A rise of exactly 12 dB: triggers at a 10 dB setting, not at 14 dB.
  for (const auto& [setting_db, expect] :
       std::vector<std::pair<double, bool>>{{10.0, true}, {14.0, false}}) {
    EnergyDifferentiator det;
    det.set_thresholds(core::energy_threshold_q88_from_db(setting_db),
                       core::energy_threshold_q88_from_db(setting_db), 1);
    feed(det, 500, 400);
    bool high = false;
    for (std::size_t k = 0; k < 300; ++k)
      high |= det.step(dsp::IQ16{1990, 1990}).trigger_high;  // ~12 dB up
    EXPECT_EQ(high, expect) << "setting " << setting_db;
  }
}

TEST(EnergyDifferentiator, FloorArmsDetector) {
  EnergyDifferentiator det;
  // Enormous floor: even a big relative rise must not trigger.
  det.set_thresholds(core::energy_threshold_q88_from_db(3.0),
                     core::energy_threshold_q88_from_db(3.0), ~0u);
  feed(det, 100, 400);
  bool high = false;
  for (std::size_t k = 0; k < 300; ++k)
    high |= det.step(dsp::IQ16{4000, 4000}).trigger_high;
  EXPECT_FALSE(high);
}

TEST(EnergyDifferentiator, EnergySumMatchesWindowSum) {
  EnergyDifferentiator det;
  det.set_thresholds(~0u, ~0u, 0);
  const std::int16_t amp = 1000;
  const auto out = feed(det, amp, 200);
  const std::uint64_t per_sample =
      2ull * static_cast<std::uint64_t>(amp) * amp;
  EXPECT_EQ(out.energy_sum, per_sample * kEnergyWindow);
}

TEST(EnergyDifferentiator, LoadFromRegisters) {
  RegisterFile regs;
  regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(10.0));
  regs.write(Reg::kEnergyThreshLow, core::energy_threshold_q88_from_db(10.0));
  regs.write(Reg::kEnergyFloor, 1);
  EnergyDifferentiator det;
  det.load_from_registers(regs);
  feed(det, 100, 400);
  bool high = false;
  for (std::size_t k = 0; k < 300; ++k)
    high |= det.step(dsp::IQ16{4000, 4000}).trigger_high;
  EXPECT_TRUE(high);
}

TEST(EnergyDifferentiator, ResetRequiresRewarming) {
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(3.0),
                     core::energy_threshold_q88_from_db(3.0), 1);
  feed(det, 100, 400);
  det.reset();
  for (std::size_t k = 0; k < kWarmup; ++k) {
    const auto out = det.step(dsp::IQ16{4000, 4000});
    ASSERT_FALSE(out.trigger_high);
  }
}

// Direct model of paper Fig. 4, recomputed from the whole history on every
// sample: y[n] is the sum of the last kEnergyWindow powers I^2+Q^2, the
// reference is y[n-kEnergyRefDelay] (zero before the stream began), and the
// comparators arm once kEnergyWindow + kEnergyRefDelay samples have passed
// since the last reset.
class BruteForceEnergy {
 public:
  BruteForceEnergy(std::uint32_t high_q88, std::uint32_t low_q88,
                   std::uint32_t floor)
      : high_(high_q88), low_(low_q88), floor_(floor) {}

  struct Step {
    EnergyDifferentiator::Output out;
    bool on_boundary = false;  // an armed compare hit 256*a == thresh*b
  };

  Step step(dsp::IQ16 s) {
    const std::int64_t i = s.i;
    const std::int64_t q = s.q;
    x_.push_back(static_cast<std::uint64_t>(i * i + q * q));
    std::uint64_t y = 0;
    const std::size_t n = x_.size();
    for (std::size_t k = n > kEnergyWindow ? n - kEnergyWindow : 0; k < n; ++k)
      y += x_[k];
    y_.push_back(y);
    const std::uint64_t y_ref =
        n > kEnergyRefDelay ? y_[n - 1 - kEnergyRefDelay] : 0;

    Step r;
    r.out.energy_sum = y;
    if (n <= kWarmup) return r;
    using U128 = unsigned __int128;
    const U128 up = U128{y} << 8;
    const U128 down = U128{y_ref} << 8;
    r.out.trigger_high = y > floor_ && up > U128{y_ref} * high_;
    r.out.trigger_low = y_ref > floor_ && down > U128{y} * low_;
    r.on_boundary = up == U128{y_ref} * high_ || down == U128{y} * low_;
    return r;
  }

  void reset() {
    x_.clear();
    y_.clear();
  }

 private:
  std::uint64_t high_, low_, floor_;
  std::vector<std::uint64_t> x_;
  std::vector<std::uint64_t> y_;
};

TEST(EnergyDifferentiator, MatchesBruteForceModel) {
  // Steady levels whose powers stand in exact power-of-two ratios (so
  // Q8.8 thresholds of 256, 512 and 1024 land exactly on the comparator
  // boundary), full-scale rails, and random rails.
  constexpr dsp::IQ16 kLevels[] = {
      {100, 100},       // x = 20000
      {200, 0},         // x = 40000
      {200, 200},       // x = 80000
      {0, -400},        // x = 160000
      {-32768, -32768}, // x = 2^31, the largest power
      {-32768, 32767},  {32767, 32767}, {0, 0}};
  constexpr std::uint32_t kBoundaryThresholds[] = {256, 512, 1024};
  std::uint64_t fired_high = 0, fired_low = 0, boundaries = 0, resets = 0;
  for (std::uint64_t run = 0; run < 48; ++run) {
    dsp::Xoshiro256 rng(dsp::derive_seed(0xE11E'26F7, run));
    const auto pick_threshold = [&]() -> std::uint32_t {
      switch (rng.uniform_int(3)) {
        case 0: return kBoundaryThresholds[rng.uniform_int(3)];
        case 1: return static_cast<std::uint32_t>(rng.uniform_int(1u << 16));
        default: return static_cast<std::uint32_t>(rng.next());
      }
    };
    const std::uint32_t high = pick_threshold();
    const std::uint32_t low = pick_threshold();
    // Floors: off, at a steady level's window sum exactly, or random.
    const std::uint32_t floor =
        run % 3 == 0 ? 0u
        : run % 3 == 1 ? 32u * 20000u
                       : static_cast<std::uint32_t>(rng.uniform_int(1u << 24));
    EnergyDifferentiator det;
    det.set_thresholds(high, low, floor);
    BruteForceEnergy model(high, low, floor);

    std::size_t n = 0;
    while (n < 6000) {
      const std::size_t len = 1 + rng.uniform_int(250);
      const bool random_rails = rng.uniform_int(3) == 0;
      const dsp::IQ16 level = kLevels[rng.uniform_int(std::size(kLevels))];
      for (std::size_t k = 0; k < len; ++k, ++n) {
        dsp::IQ16 s = level;
        if (random_rails)
          s = dsp::IQ16{static_cast<std::int16_t>(rng.next()),
                        static_cast<std::int16_t>(rng.next())};
        const auto got = det.step(s);
        const auto want = model.step(s);
        SCOPED_TRACE(::testing::Message() << "run " << run << " n " << n);
        ASSERT_EQ(got.energy_sum, want.out.energy_sum);
        ASSERT_EQ(got.trigger_high, want.out.trigger_high);
        ASSERT_EQ(got.trigger_low, want.out.trigger_low);
        fired_high += got.trigger_high;
        fired_low += got.trigger_low;
        boundaries += want.on_boundary;
      }
      if (rng.uniform_int(16) == 0) {
        det.reset();
        model.reset();
        ++resets;
      }
    }
  }
  // The comparison only means something if both comparators fired, sat
  // exactly on their boundary, and warm-up re-ran after resets.
  EXPECT_GT(fired_high, 0u);
  EXPECT_GT(fired_low, 0u);
  EXPECT_GT(boundaries, 0u);
  EXPECT_GT(resets, 0u);
}

// Property sweep: the detector must fire for any configured threshold when
// the actual rise exceeds it by 3 dB, across the paper's 3-30 dB range.
class EnergyThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(EnergyThresholdSweep, FiresAboveConfiguredThreshold) {
  const double threshold_db = GetParam();
  EnergyDifferentiator det;
  det.set_thresholds(core::energy_threshold_q88_from_db(threshold_db),
                     core::energy_threshold_q88_from_db(threshold_db), 1);
  feed(det, 200, 400);
  const double rise_db = threshold_db + 3.0;
  const auto amp = static_cast<std::int16_t>(
      200.0 * std::pow(10.0, rise_db / 20.0));
  bool high = false;
  for (std::size_t k = 0; k < 300; ++k)
    high |= det.step(dsp::IQ16{amp, amp}).trigger_high;
  EXPECT_TRUE(high) << "threshold " << threshold_db << " dB";
}

INSTANTIATE_TEST_SUITE_P(PaperRange, EnergyThresholdSweep,
                         ::testing::Values(3.0, 6.0, 10.0, 15.0, 20.0, 25.0,
                                           30.0));

}  // namespace
}  // namespace rjf::fpga
