#include "fpga/jammer_controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dsp/rng.h"

namespace rjf::fpga {
namespace {

TEST(JammerController, IdleUntilTriggered) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 10);
  for (int k = 0; k < 100; ++k) {
    const auto out = ctl.clock(false);
    ASSERT_FALSE(out.rf_active);
  }
  EXPECT_EQ(ctl.jam_count(), 0u);
}

TEST(JammerController, DisabledIgnoresTriggers) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, false, 0, 10);
  const auto out = ctl.clock(true);
  EXPECT_FALSE(out.rf_active);
  for (int k = 0; k < 100; ++k) ASSERT_FALSE(ctl.clock(false).rf_active);
  EXPECT_EQ(ctl.jam_count(), 0u);
}

TEST(JammerController, RfWithinEightCyclesOfTrigger) {
  // Paper §2.4: 1 cycle to initiate + ~7 cycles to fill the DUC = 80 ns.
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 4);
  (void)ctl.clock(true);  // trigger cycle
  int cycles_to_rf = 1;
  bool active = false;
  for (; cycles_to_rf <= 16; ++cycles_to_rf) {
    if (ctl.clock(false).rf_active) {
      active = true;
      break;
    }
  }
  EXPECT_TRUE(active);
  EXPECT_EQ(cycles_to_rf, static_cast<int>(kTxInitCycles));
}

TEST(JammerController, UptimeCountsExactSamples) {
  JammerController ctl;
  const std::uint32_t uptime = 25;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, uptime);
  (void)ctl.clock(true);
  std::uint32_t strobes = 0;
  for (int k = 0; k < 4000; ++k)
    if (ctl.clock(false).sample_strobe) ++strobes;
  EXPECT_EQ(strobes, uptime);
  EXPECT_FALSE(ctl.busy());
}

TEST(JammerController, MinimumUptimeIsOneSample) {
  // Paper: jamming duration from 1 sample time (40 ns).
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 0);  // clamped to 1
  (void)ctl.clock(true);
  std::uint32_t strobes = 0;
  for (int k = 0; k < 100; ++k)
    if (ctl.clock(false).sample_strobe) ++strobes;
  EXPECT_EQ(strobes, 1u);
}

TEST(JammerController, DelayPostponesJamming) {
  JammerController ctl;
  const std::uint32_t delay_samples = 10;
  ctl.configure(JamWaveform::kWhiteNoise, true, delay_samples, 4);
  (void)ctl.clock(true);
  int cycles = 1;
  while (!ctl.clock(false).rf_active && cycles < 1000) ++cycles;
  // Delay (in sample periods) plus the 8-cycle TX init.
  EXPECT_EQ(cycles,
            static_cast<int>(delay_samples * kClocksPerSample + kTxInitCycles));
}

TEST(JammerController, TriggersIgnoredWhileBusy) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 100);
  (void)ctl.clock(true);
  for (int k = 0; k < 50; ++k) (void)ctl.clock(true);  // re-trigger attempts
  EXPECT_EQ(ctl.jam_count(), 1u);
}

TEST(JammerController, ReplayPlaysBackRecordedSamples) {
  JammerController ctl;
  ctl.configure(JamWaveform::kReplay, true, 0, 8);
  // Record a recognisable ramp.
  for (std::int16_t k = 0; k < 512; ++k)
    ctl.record_rx(dsp::IQ16{k, static_cast<std::int16_t>(-k)});
  (void)ctl.clock(true);
  std::vector<dsp::IQ16> played;
  for (int k = 0; k < 200 && played.size() < 8; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) played.push_back(out.sample);
  }
  ASSERT_EQ(played.size(), 8u);
  // Playback starts at the oldest recorded sample (write cursor position).
  for (std::size_t k = 0; k < played.size(); ++k) {
    EXPECT_EQ(played[k].i, static_cast<std::int16_t>(k));
    EXPECT_EQ(played[k].q, static_cast<std::int16_t>(-static_cast<int>(k)));
  }
}

TEST(JammerController, RecordRxBlockMatchesRecordRx) {
  // Runs of every length up to past the ring's depth, from every write
  // position the random lengths reach: the whole ring, replayed, must
  // match the sample-by-sample recording.
  dsp::Xoshiro256 rng(0x4EC0'4DB1u);
  for (int round = 0; round < 64; ++round) {
    JammerController by_sample;
    JammerController by_block;
    for (JammerController* ctl : {&by_sample, &by_block})
      ctl->configure(JamWaveform::kReplay, true, 0, kReplayDepth);
    for (int run = 0; run < 4; ++run) {
      std::vector<dsp::IQ16> rx(rng.uniform_int(2 * kReplayDepth + 2));
      for (dsp::IQ16& v : rx)
        v = dsp::IQ16{static_cast<std::int16_t>(rng.next()),
                      static_cast<std::int16_t>(rng.next())};
      for (const dsp::IQ16 v : rx) by_sample.record_rx(v);
      by_block.record_rx_block(rx);
    }
    std::vector<dsp::IQ16> played[2];
    for (int c = 0; c < 2; ++c) {
      JammerController& ctl = c == 0 ? by_sample : by_block;
      (void)ctl.clock(true);
      while (ctl.busy()) {
        const auto out = ctl.clock(false);
        if (out.sample_strobe) played[c].push_back(out.sample);
      }
    }
    ASSERT_EQ(played[0].size(), kReplayDepth);
    ASSERT_EQ(played[1], played[0]) << "round " << round;
  }
}

TEST(JammerController, HostStreamWaveformCycles) {
  JammerController ctl;
  ctl.configure(JamWaveform::kHostStream, true, 0, 6);
  ctl.set_host_waveform({dsp::IQ16{100, 0}, dsp::IQ16{0, 100}, dsp::IQ16{-100, 0}});
  (void)ctl.clock(true);
  std::vector<dsp::IQ16> played;
  for (int k = 0; k < 200 && played.size() < 6; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) played.push_back(out.sample);
  }
  ASSERT_EQ(played.size(), 6u);
  EXPECT_EQ(played[0], (dsp::IQ16{100, 0}));
  EXPECT_EQ(played[3], (dsp::IQ16{100, 0}));  // wrapped around
}

TEST(JammerController, EmptyHostStreamEmitsSilence) {
  JammerController ctl;
  ctl.configure(JamWaveform::kHostStream, true, 0, 3);
  (void)ctl.clock(true);
  for (int k = 0; k < 100; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) {
      EXPECT_EQ(out.sample, (dsp::IQ16{0, 0}));
    }
  }
}

TEST(JammerController, WhiteNoiseIsNonConstantAndBounded) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 256);
  (void)ctl.clock(true);
  std::vector<dsp::IQ16> samples;
  for (int k = 0; k < 4000 && samples.size() < 256; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) samples.push_back(out.sample);
  }
  ASSERT_EQ(samples.size(), 256u);
  bool varies = false;
  for (std::size_t k = 1; k < samples.size(); ++k)
    varies |= !(samples[k] == samples[0]);
  EXPECT_TRUE(varies);
  for (const auto s : samples) {
    EXPECT_LT(std::abs(static_cast<int>(s.i)), 32768);
    EXPECT_LT(std::abs(static_cast<int>(s.q)), 32768);
  }
}

// Clock `ctl` for `n` clocks with no trigger.
void clock_idle(JammerController& ctl, std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) (void)ctl.clock(false);
}

// fast_forward(n) must leave the jammer where 4n untriggered clocks leave
// it: the same busy() and rf_active(), and the same rf_active and
// sample_strobe on every later clock. The waveform is not compared: by
// contract it does not advance across the gap.
void expect_fast_forward_matches_clocking(JamWaveform waveform,
                                          std::uint32_t delay,
                                          std::uint32_t uptime,
                                          std::uint64_t pre_roll,
                                          std::uint64_t gap) {
  JammerController clocked;
  JammerController skipped;
  for (JammerController* ctl : {&clocked, &skipped}) {
    ctl->configure(waveform, true, delay, uptime);
    (void)ctl->clock(true);
    clock_idle(*ctl, pre_roll);
  }
  clock_idle(clocked, gap * kClocksPerSample);
  skipped.fast_forward(gap);
  SCOPED_TRACE(::testing::Message()
               << "delay " << delay << " uptime " << uptime << " pre-roll "
               << pre_roll << " gap " << gap);
  ASSERT_EQ(clocked.busy(), skipped.busy());
  ASSERT_EQ(clocked.rf_active(), skipped.rf_active());
  for (int k = 0; k < 100; ++k) {
    const auto a = clocked.clock(false);
    const auto b = skipped.clock(false);
    ASSERT_EQ(a.rf_active, b.rf_active) << "clock " << k;
    ASSERT_EQ(a.sample_strobe, b.sample_strobe) << "clock " << k;
  }
  EXPECT_EQ(clocked.jam_count(), skipped.jam_count());
}

TEST(JammerController, FastForwardMatchesClockedScheduling) {
  // The minimal case that used to fail: the 1-3 clocks left over when
  // kInit ended mid-period were dropped, so the one-sample burst outlived
  // its clocked twin.
  expect_fast_forward_matches_clocking(JamWaveform::kWhiteNoise, 0, 1, 0, 2);
  if (::testing::Test::HasFatalFailure()) return;

  // Random delay (0-3), uptime (1-12) and gap; the pre-roll after the
  // trigger clock is whole sample periods plus 0-3 clocks (3 is where
  // DspCore leaves it: triggers fire on strobe clocks), so the gap starts
  // at every strobe phase of every state.
  constexpr std::uint64_t kSeed = 0x5EED'0019;
  constexpr std::uint64_t kCases = 50'000;
  for (std::uint64_t c = 0; c < kCases; ++c) {
    dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, c));
    const auto waveform = static_cast<JamWaveform>(rng.uniform_int(3));
    const auto delay = static_cast<std::uint32_t>(rng.uniform_int(4));
    const auto uptime = static_cast<std::uint32_t>(1 + rng.uniform_int(12));
    const std::uint64_t pre_roll =
        kClocksPerSample * rng.uniform_int(16) + rng.uniform_int(4);
    const std::uint64_t gap = rng.uniform_int(24);
    expect_fast_forward_matches_clocking(waveform, delay, uptime, pre_roll,
                                         gap);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(JammerController, FastForwardThroughIdleIsNoop) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 10);
  ctl.fast_forward(100000);
  EXPECT_FALSE(ctl.busy());
  EXPECT_EQ(ctl.jam_count(), 0u);
}

// Test-local per-step model of the on-fabric noise generator: the 32-bit
// Galois LFSR stepped once per 8-bit uniform variate, four variates per
// rail, centred and scaled the way the controller documents.
class GaloisNoiseModel {
 public:
  explicit GaloisNoiseModel(std::uint32_t state) : state_(state) {}

  // One Galois step: shift right, apply the taps if a 1 was shifted out.
  void step() {
    const bool lsb = (state_ & 1u) != 0;
    state_ >>= 1;
    if (lsb) state_ ^= 0xB4BCD35Cu;
  }

  // Four steps, summing the low byte after each.
  int sum4() {
    int acc = 0;
    for (int k = 0; k < 4; ++k) {
      step();
      acc += static_cast<int>(state_ & 0xFFu);
    }
    return acc;
  }

  dsp::IQ16 sample() {
    const auto rail = [&] {
      return static_cast<std::int16_t>((sum4() - 510) * 24);
    };
    const std::int16_t i = rail();
    const std::int16_t q = rail();
    return dsp::IQ16{i, q};
  }

  [[nodiscard]] std::uint32_t state() const { return state_; }

 private:
  std::uint32_t state_;
};

TEST(JammerController, LfsrJumpTablesMatchPerStepGaloisModel) {
  // From arbitrary states, one lookup pair equals four single steps.
  constexpr std::uint64_t kSeed = 0x5EED'0019'1F5Bu;
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 0));
  for (int k = 0; k < 1'000'000; ++k) {
    const auto s = static_cast<std::uint32_t>(rng.next());
    GaloisNoiseModel model(s);
    const int acc = model.sum4();
    ASSERT_EQ(kLfsrJump.sum4[s & 0xFFFu].u64(), static_cast<std::uint64_t>(acc))
        << "state " << s;
    ASSERT_EQ((s >> 4) ^ kLfsrJump.feedback4[s & 0xFu].u64(), model.state())
        << "state " << s;
  }
}

TEST(JammerController, WhiteNoiseMatchesPerStepGaloisModel) {
  // Several bursts, each starting from the LFSR state the previous one left
  // behind, with samples drawn alternately clock by clock and by whole
  // sample periods: more than a million draws, all equal to the model's.
  JammerController ctl;
  GaloisNoiseModel model(0xACE1ACE1u);  // the fabric's power-on state
  std::uint64_t draws = 0;
  for (const std::uint32_t uptime : {1u, 7u, 2'500u, 300'000u, 800'000u}) {
    ctl.configure(JamWaveform::kWhiteNoise, true, 0, uptime);
    (void)ctl.clock(true);
    while (ctl.busy()) {
      if (ctl.mid_burst() && (draws & 1u) != 0) {
        ASSERT_EQ(ctl.jam_period(), model.sample()) << "draw " << draws;
        ++draws;
        continue;
      }
      const auto out = ctl.clock(false);
      if (!out.sample_strobe) continue;
      ASSERT_EQ(out.sample, model.sample()) << "draw " << draws;
      ++draws;
    }
  }
  EXPECT_GE(draws, 1'000'000u);
}

TEST(JammerController, LfsrSliceTablesMatchSingleSteps) {
  // Every entry of the eight-step feedback table and of each 32-step byte
  // table against single steps of the model.
  for (std::uint32_t v = 0; v < 256; ++v) {
    GaloisNoiseModel eight(v);
    for (int k = 0; k < 8; ++k) eight.step();
    ASSERT_EQ(kLfsrJump.feedback8[v].u64(), eight.state()) << "byte " << v;
    for (unsigned b = 0; b < 4; ++b) {
      GaloisNoiseModel model(v << (8 * b));
      for (int k = 0; k < 32; ++k) model.step();
      ASSERT_EQ(kLfsrJump.jump32[b][v].u64(), model.state())
          << "table " << b << " byte " << v;
    }
  }
}

// wgn_fill() from `state` into `n` records, each checked against the
// model's next sample; `state` and the model move on together.
void expect_wgn_fill_matches(hw::UInt<32>& state, GaloisNoiseModel& model,
                             std::size_t n) {
  std::vector<SamplePeriodOutput> out(n);
  wgn_fill(state, out);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_EQ(out[k].tx, model.sample()) << "length " << n << " sample " << k;
    ASSERT_TRUE(out[k].tx_strobe);
    ASSERT_TRUE(out[k].rf_active);
  }
  ASSERT_EQ(state.u64(), model.state()) << "length " << n;
}

TEST(JammerController, WgnFillMatchesPerStepGaloisModel) {
  // From random states, every length 0-300 in turn and then 2^16 + 3, the
  // state carried from call to call: the four-sample groups and every tail
  // length, at every group phase of a running stream.
  constexpr std::uint64_t kSeed = 0x5EED'0029'F111u;
  for (std::uint64_t round = 0; round < 4; ++round) {
    dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, round));
    const auto start = static_cast<std::uint32_t>(rng.next());
    hw::UInt<32> state(start);
    GaloisNoiseModel model(start);
    for (std::size_t n = 0; n <= 300; ++n) {
      expect_wgn_fill_matches(state, model, n);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_wgn_fill_matches(state, model, (std::size_t{1} << 16) + 3);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(JammerController, JamPeriodsMatchPerSampleLoop) {
  // jam_periods() in random runs against record_rx() + jam_period() per
  // sample, for each waveform: the same TX records, the same burst length
  // left, and the same replay ring afterwards (replayed in full).
  constexpr std::uint64_t kSeed = 0x5EED'0029'1A77u;
  for (const JamWaveform waveform :
       {JamWaveform::kWhiteNoise, JamWaveform::kReplay,
        JamWaveform::kHostStream}) {
    dsp::Xoshiro256 rng(
        dsp::derive_seed(kSeed, static_cast<std::uint64_t>(waveform)));
    JammerController bulk;
    JammerController looped;
    for (JammerController* ctl : {&bulk, &looped}) {
      ctl->configure(waveform, true, 0, 20'000);
      ctl->set_host_waveform({dsp::IQ16{1, 2}, dsp::IQ16{3, 4},
                              dsp::IQ16{5, 6}});
      (void)ctl->clock(true);
      clock_idle(*ctl, kTxInitCycles - 1);
    }
    std::vector<dsp::IQ16> rx;
    std::vector<SamplePeriodOutput> out;
    while (bulk.mid_burst_periods() > 0) {
      const std::uint64_t n = std::min<std::uint64_t>(
          rng.uniform_int(rng.uniform_int(4) == 0 ? 8 : 1200),
          bulk.mid_burst_periods());
      rx.resize(n);
      for (dsp::IQ16& v : rx)
        v = dsp::IQ16{static_cast<std::int16_t>(rng.next()),
                      static_cast<std::int16_t>(rng.next())};
      out.assign(n, SamplePeriodOutput{});
      bulk.jam_periods(rx, out);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(looped.mid_burst());
        looped.record_rx(rx[k]);
        ASSERT_EQ(out[k].tx, looped.jam_period()) << "sample " << k;
        ASSERT_TRUE(out[k].tx_strobe);
        ASSERT_TRUE(out[k].rf_active);
      }
      ASSERT_EQ(bulk.mid_burst_periods(), looped.mid_burst_periods());
    }
    std::vector<dsp::IQ16> played[2];
    for (int c = 0; c < 2; ++c) {
      JammerController& ctl = c == 0 ? bulk : looped;
      clock_idle(ctl, 4 * kClocksPerSample);
      ASSERT_FALSE(ctl.busy());
      ctl.configure(JamWaveform::kReplay, true, 0, kReplayDepth);
      (void)ctl.clock(true);
      while (ctl.busy()) {
        const auto out_clock = ctl.clock(false);
        if (out_clock.sample_strobe) played[c].push_back(out_clock.sample);
      }
    }
    ASSERT_EQ(played[0].size(), kReplayDepth);
    EXPECT_EQ(played[0], played[1]);
  }
}

TEST(JammerController, PeriodStepMatchesFourClocks) {
  // jam_period() against four clock() calls from every strobe phase, with
  // a trigger on the first clock (the busy jammer must ignore it).
  for (const JamWaveform waveform :
       {JamWaveform::kWhiteNoise, JamWaveform::kReplay,
        JamWaveform::kHostStream}) {
    for (std::uint64_t phase = 0; phase < kClocksPerSample; ++phase) {
      JammerController stepped;
      JammerController clocked;
      for (JammerController* ctl : {&stepped, &clocked}) {
        ctl->configure(waveform, true, 0, 6);
        ctl->set_host_waveform({dsp::IQ16{1, 2}, dsp::IQ16{3, 4},
                                dsp::IQ16{5, 6}});
        for (std::int16_t k = 0; k < 512; ++k)
          ctl->record_rx(dsp::IQ16{k, static_cast<std::int16_t>(-k)});
        (void)ctl->clock(true);
        clock_idle(*ctl, kTxInitCycles - 1 + phase);
      }
      while (stepped.mid_burst()) {
        const bool due = stepped.strobe_due();
        const dsp::IQ16 got = stepped.jam_period();
        std::uint32_t strobes = 0;
        for (std::uint32_t c = 0; c < kClocksPerSample; ++c) {
          const auto out = clocked.clock(c == 0);
          ASSERT_TRUE(out.rf_active);
          if (!out.sample_strobe) continue;
          ++strobes;
          ASSERT_EQ(out.sample, got);
          ASSERT_EQ(c == 0, due);
        }
        ASSERT_EQ(strobes, 1u);
      }
      ASSERT_TRUE(clocked.busy());
      ASSERT_TRUE(stepped.busy());
      EXPECT_EQ(stepped.jam_count(), clocked.jam_count());
      for (int k = 0; k < 16; ++k) {
        const auto a = stepped.clock(false);
        const auto b = clocked.clock(false);
        ASSERT_EQ(a.rf_active, b.rf_active);
        ASSERT_EQ(a.sample_strobe, b.sample_strobe);
        ASSERT_EQ(a.sample, b.sample);
      }
      EXPECT_FALSE(stepped.busy());
    }
  }
}

TEST(JammerController, LoadFromRegisters) {
  RegisterFile regs;
  regs.set_jammer(JamWaveform::kReplay, true, 7);
  regs.write(Reg::kJamDuration, 123);
  JammerController ctl;
  ctl.load_from_registers(regs);
  (void)ctl.clock(true);
  EXPECT_TRUE(ctl.busy());
  EXPECT_EQ(ctl.jam_count(), 1u);
}

}  // namespace
}  // namespace rjf::fpga
