// Mid-stream reconfiguration differential test.
//
// UsrpN210::stream_fabric() runs the fabric in chunked DspCore::run_block()
// passes and services the settings bus only at chunk starts. The reference
// below drives an identical radio one fabric clock at a time through
// DspCore::tick(), servicing the bus before every baseband sample. Random
// jammer personalities (thresholds, trigger stage masks and windows, jam
// delay and uptime, all three waveforms), settings-bus writes that land at
// random ticks mid-stream, random block lengths and occasional raw tick()s
// that knock the strobe phase off alignment must all give the same TX
// vector bit for bit, the same bursts and counters, the same VITA time and,
// with an inline-drain event ring attached, the same record sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "dsp/db.h"
#include "dsp/rng.h"
#include "fpga/cross_correlator.h"
#include "obs/event_ring.h"
#include "radio/usrp_n210.h"
#include "tests/ring_recording.h"

namespace rjf::radio {
namespace {

constexpr std::uint64_t kSeed = 0x5EED'0015;

// ---------------------------------------------------------------------------
// Per-tick reference: the same radio clocked one fabric tick at a time.

UsrpN210::StreamResult reference_stream(UsrpN210& radio,
                                        std::span<const dsp::IQ16> rx) {
  UsrpN210::StreamResult result;
  result.tx.assign(rx.size(), dsp::cfloat{});
  obs::EventRing* ring = radio.ring();
  if (ring != nullptr)
    ring->push_event(obs::EventKind::kStreamStart, radio.now_ticks(),
                     rx.size());
  const fpga::HostFeedback before = radio.feedback();
  fpga::DspCore& core = radio.core();
  SettingsBus& bus = radio.settings_bus();
  const Dac dac;

  bool burst_open = false;
  for (std::size_t m = 0; m < rx.size(); ++m) {
    if (!bus.idle() && bus.service(core.registers(), radio.now_ticks()) > 0)
      core.apply_registers();
    bool rf_active = false;
    bool tx_strobe = false;
    dsp::IQ16 tx{};
    for (std::uint32_t c = 0; c < fpga::kClocksPerSample; ++c) {
      const fpga::CoreOutput out =
          core.tick(c == 0 ? std::optional<dsp::IQ16>(rx[m]) : std::nullopt);
      rf_active = rf_active || out.tx.rf_active;
      if (out.tx.sample_strobe) {
        tx_strobe = true;
        tx = out.tx.sample;
      }
    }
    if (tx_strobe) result.tx[m] = dac.sample(tx);
    if (rf_active && !burst_open) {
      result.bursts.push_back(JamBurst{m, 0});
      burst_open = true;
    } else if (!rf_active) {
      burst_open = false;
    }
    if (burst_open) ++result.bursts.back().length;
  }

  const auto g = static_cast<float>(
      dsp::amplitude_from_db(radio.frontend().tx_gain_db()));
  for (dsp::cfloat& s : result.tx) s *= g;

  const fpga::HostFeedback& after = radio.feedback();
  result.jam_triggers = after.jam_triggers - before.jam_triggers;
  result.xcorr_detections = after.xcorr_detections - before.xcorr_detections;
  result.energy_high_detections =
      after.energy_high_detections - before.energy_high_detections;
  result.energy_low_detections =
      after.energy_low_detections - before.energy_low_detections;
  result.last_trigger_vita = after.last_trigger_vita;
  if (ring != nullptr) {
    ring->push_event(obs::EventKind::kStreamWall, radio.now_ticks(), 0);
    ring->push_event(obs::EventKind::kStreamEnd, radio.now_ticks(), rx.size());
    ring->drain_if_inline();
  }
  return result;
}

void expect_same_result(const UsrpN210::StreamResult& got,
                        const UsrpN210::StreamResult& want) {
  ASSERT_EQ(got.tx.size(), want.tx.size());
  for (std::size_t k = 0; k < got.tx.size(); ++k) {
    // Bit-for-bit: compare the float representations, not values.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.tx[k]),
              std::bit_cast<std::uint64_t>(want.tx[k]))
        << "tx sample " << k;
  }
  ASSERT_EQ(got.bursts.size(), want.bursts.size());
  for (std::size_t k = 0; k < got.bursts.size(); ++k) {
    ASSERT_EQ(got.bursts[k].start_sample, want.bursts[k].start_sample) << k;
    ASSERT_EQ(got.bursts[k].length, want.bursts[k].length) << k;
  }
  ASSERT_EQ(got.jam_triggers, want.jam_triggers);
  ASSERT_EQ(got.xcorr_detections, want.xcorr_detections);
  ASSERT_EQ(got.energy_high_detections, want.energy_high_detections);
  ASSERT_EQ(got.energy_low_detections, want.energy_low_detections);
  ASSERT_EQ(got.last_trigger_vita, want.last_trigger_vita);
  ASSERT_EQ(got.overflow_gaps, want.overflow_gaps);
  ASSERT_EQ(got.samples_lost, want.samples_lost);
  ASSERT_EQ(got.adc_clipped, want.adc_clipped);
}

// ---------------------------------------------------------------------------
// Random personalities and inputs.

std::int16_t rand_rail(dsp::Xoshiro256& rng, std::int32_t amp) {
  const auto span = static_cast<std::uint64_t>(2 * amp + 1);
  return static_cast<std::int16_t>(
      static_cast<std::int32_t>(rng.uniform_int(span)) - amp);
}

// A full register image but the correlator threshold: correlator taps,
// detector thresholds, FSM stages and window, jammer waveform, delay (0..3)
// and uptime (1..300, or 2000..11999).
fpga::RegisterFile random_personality(dsp::Xoshiro256& rng) {
  fpga::RegisterFile regs;
  for (std::size_t k = 0; k < fpga::kCorrelatorLength; ++k) {
    regs.set_coefficient(false, k, static_cast<int>(rng.uniform_int(8)) - 4);
    regs.set_coefficient(true, k, static_cast<int>(rng.uniform_int(8)) - 4);
  }
  regs.write(fpga::Reg::kEnergyThreshHigh,
             static_cast<std::uint32_t>(300 + rng.uniform_int(4000)));
  regs.write(fpga::Reg::kEnergyThreshLow,
             static_cast<std::uint32_t>(300 + rng.uniform_int(4000)));
  regs.write(fpga::Reg::kEnergyFloor,
             static_cast<std::uint32_t>(rng.uniform_int(200'000)));
  const auto mask = [&] {
    return static_cast<std::uint32_t>(1 + rng.uniform_int(7));
  };
  const std::uint64_t stages = 1 + rng.uniform_int(3);
  regs.set_trigger_stages(mask(), stages > 1 ? mask() : 0,
                          stages > 2 ? mask() : 0);
  regs.write(fpga::Reg::kTriggerWindow,
             rng.uniform_int(4) == 0
                 ? 0u
                 : static_cast<std::uint32_t>(1 + rng.uniform_int(3000)));
  regs.set_jammer(static_cast<fpga::JamWaveform>(rng.uniform_int(3)),
                  rng.uniform_int(8) != 0,
                  static_cast<std::uint16_t>(rng.uniform_int(4)));
  // Short bursts, or (one in four) bursts long enough to straddle blocks
  // and stream_fabric's 8192-sample chunks, so the fabric's one-step-per-
  // period path runs for most of their length.
  regs.write(fpga::Reg::kJamDuration,
             static_cast<std::uint32_t>(
                 rng.uniform_int(4) == 0 ? 2000 + rng.uniform_int(10'000)
                                         : 1 + rng.uniform_int(300)));
  return regs;
}

// The 64-sample burst the programmed correlator taps match: each rail takes
// the sign of its tap at amplitude `amp`.
dsp::iqvec matched_burst(const fpga::RegisterFile& regs, std::int16_t amp) {
  dsp::iqvec burst(fpga::kCorrelatorLength);
  const auto rail = [&](int coef) {
    return static_cast<std::int16_t>(coef < 0 ? -amp : amp);
  };
  for (std::size_t k = 0; k < burst.size(); ++k)
    burst[k] = dsp::IQ16{rail(regs.coefficient(false, k)),
                         rail(regs.coefficient(true, k))};
  return burst;
}

// Quiet noise, loud noise, silence, matched bursts and choppy air (short
// runs of silence and noise, so detector edges come every few samples) in
// random order.
dsp::iqvec random_air(dsp::Xoshiro256& rng, const dsp::iqvec& burst,
                      std::size_t length) {
  dsp::iqvec air;
  air.reserve(length + 1024);
  while (air.size() < length) {
    switch (rng.uniform_int(5)) {
      case 0: {
        const std::size_t n = 50 + rng.uniform_int(600);
        for (std::size_t k = 0; k < n; ++k)
          air.push_back(dsp::IQ16{rand_rail(rng, 60), rand_rail(rng, 60)});
        break;
      }
      case 1: {
        const std::size_t n = 50 + rng.uniform_int(400);
        const auto amp = static_cast<std::int32_t>(500 + rng.uniform_int(8000));
        for (std::size_t k = 0; k < n; ++k)
          air.push_back(dsp::IQ16{rand_rail(rng, amp), rand_rail(rng, amp)});
        break;
      }
      case 2:
        air.resize(air.size() + 1 + rng.uniform_int(300), dsp::IQ16{});
        break;
      case 3: {
        const std::size_t end = air.size() + 100 + rng.uniform_int(500);
        while (air.size() < end) {
          air.resize(air.size() + 1 + rng.uniform_int(16), dsp::IQ16{});
          const auto amp = static_cast<std::int32_t>(100 + rng.uniform_int(4000));
          for (std::uint64_t k = 1 + rng.uniform_int(16); k > 0; --k)
            air.push_back(dsp::IQ16{rand_rail(rng, amp), rand_rail(rng, amp)});
        }
        break;
      }
      default:
        for (const dsp::IQ16 s : burst)
          air.push_back(dsp::IQ16{
              static_cast<std::int16_t>(s.i + rand_rail(rng, 40)),
              static_cast<std::int16_t>(s.q + rand_rail(rng, 40))});
        break;
    }
  }
  air.resize(length);
  return air;
}

std::size_t random_block_length(dsp::Xoshiro256& rng) {
  switch (rng.uniform_int(4)) {
    case 0: return 1 + rng.uniform_int(8);
    case 1: return 1 + rng.uniform_int(64);
    default: return 1 + rng.uniform_int(3000);
  }
}

constexpr fpga::Reg kPersonalityRegs[] = {
    fpga::Reg::kXcorrThreshold, fpga::Reg::kEnergyThreshHigh,
    fpga::Reg::kEnergyThreshLow, fpga::Reg::kEnergyFloor,
    fpga::Reg::kTriggerConfig,  fpga::Reg::kTriggerWindow,
    fpga::Reg::kJammerControl,  fpga::Reg::kJamDuration,
    fpga::Reg::kXcorrCoefI3,    fpga::Reg::kXcorrCoefQ5,
};

struct Totals {
  std::uint64_t jam_triggers = 0;
  std::uint64_t bursts = 0;
  std::uint64_t writes = 0;
  std::uint64_t misaligned_blocks = 0;
};

// One personality, streamed through a block-path radio and a per-tick
// reference radio in lockstep.
void run_trial(std::uint64_t trial, bool traced, Totals& totals) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, trial));

  // Mid-stream writes draw from this and a second personality.
  fpga::RegisterFile regs = random_personality(rng);
  fpga::RegisterFile alt = random_personality(rng);
  const dsp::iqvec burst = matched_burst(
      regs, static_cast<std::int16_t>(2000 + rng.uniform_int(10000)));
  // Correlator thresholds between a fifth of and just above the burst's
  // clean peak, or zero: then any non-silent sample triggers, so the tick a
  // threshold write lands on shows in the jam timing.
  fpga::CrossCorrelator probe;
  probe.load_from_registers(regs);
  std::uint32_t peak = 0;
  for (const dsp::IQ16 s : burst) peak = std::max(peak, probe.step(s).metric);
  for (fpga::RegisterFile* r : {&regs, &alt})
    r->write(fpga::Reg::kXcorrThreshold,
             rng.uniform_int(4) == 0
                 ? 0u
                 : static_cast<std::uint32_t>(peak * (0.2 + rng.uniform())));

  std::vector<dsp::IQ16> host_wave(1 + rng.uniform_int(100));
  for (auto& s : host_wave)
    s = dsp::IQ16{rand_rail(rng, 20000), rand_rail(rng, 20000)};
  const double tx_gain_db = static_cast<double>(rng.uniform_int(21));

  UsrpN210 fast;
  UsrpN210 ref;
  obs::RingConfig cfg;
  cfg.strobe_sample_period =
      static_cast<std::uint32_t>(1 + rng.uniform_int(16));
  obs::EventRing fast_ring(cfg);
  obs::EventRing ref_ring(cfg);
  test::RecordingSink fast_sink;
  test::RecordingSink ref_sink;
  for (UsrpN210* radio : {&fast, &ref}) {
    for (std::size_t r = 0; r < fpga::kNumUserRegisters; ++r)
      radio->write_register_now(static_cast<fpga::Reg>(r),
                                regs.read(static_cast<fpga::Reg>(r)));
    radio->core().jammer().set_host_waveform(host_wave);
    radio->frontend().set_tx_gain(tx_gain_db);
  }
  if (traced) {
    fast_ring.set_consumer(&fast_sink, /*inline_drain=*/true);
    ref_ring.set_consumer(&ref_sink, /*inline_drain=*/true);
    fast.attach_ring(&fast_ring);
    ref.attach_ring(&ref_ring);
  }

  const dsp::iqvec air =
      random_air(rng, burst, 20'000 + rng.uniform_int(20'000));
  std::size_t pos = 0;
  while (pos < air.size()) {
    // Settings-bus writes issued at the block boundary land 40 fabric
    // clocks apart from here on, i.e. at arbitrary ticks of the next block.
    // Each write takes its value from either personality, so the fabric
    // flips between the two.
    if (rng.uniform_int(3) == 0) {
      const std::uint64_t n = 1 + rng.uniform_int(6);
      for (std::uint64_t w = 0; w < n; ++w) {
        const fpga::Reg reg =
            kPersonalityRegs[rng.uniform_int(std::size(kPersonalityRegs))];
        const std::uint32_t value =
            (rng.uniform_int(2) == 0 ? alt : regs).read(reg);
        fast.write_register(reg, value);
        ref.write_register(reg, value);
        ++totals.writes;
      }
    }
    // A raw fabric clock leaves the strobe phase misaligned for the next
    // block, which then takes run_block's per-tick fallback.
    if (rng.uniform_int(16) == 0) {
      const std::optional<dsp::IQ16> in =
          rng.uniform_int(2) == 0 ? std::optional<dsp::IQ16>(air[pos])
                                  : std::nullopt;
      (void)fast.core().tick(in);
      (void)ref.core().tick(in);
      ++totals.misaligned_blocks;
    }
    const std::size_t len =
        std::min(random_block_length(rng), air.size() - pos);
    const auto block = std::span(air).subspan(pos, len);
    const UsrpN210::StreamResult got = fast.stream_fabric(block);
    const UsrpN210::StreamResult want = reference_stream(ref, block);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << (traced ? " traced" : " plain")
                 << " block at " << pos << " len " << len);
    expect_same_result(got, want);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(fast.feedback().vita_ticks, ref.feedback().vita_ticks);
    totals.jam_triggers += got.jam_triggers;
    totals.bursts += got.bursts.size();
    pos += len;
  }

  const fpga::HostFeedback& a = fast.feedback();
  const fpga::HostFeedback& b = ref.feedback();
  EXPECT_EQ(a.xcorr_detections, b.xcorr_detections);
  EXPECT_EQ(a.energy_high_detections, b.energy_high_detections);
  EXPECT_EQ(a.energy_low_detections, b.energy_low_detections);
  EXPECT_EQ(a.jam_triggers, b.jam_triggers);
  EXPECT_EQ(a.last_trigger_vita, b.last_trigger_vita);
  EXPECT_EQ(a.vita_ticks, b.vita_ticks);
  if (traced) {
    EXPECT_EQ(fast_ring.dropped(), 0u);
    EXPECT_EQ(ref_ring.dropped(), 0u);
    EXPECT_FALSE(fast_sink.seen.empty());
    test::expect_same_records(fast_sink.seen, ref_sink.seen);
  }
}

void run_trials(bool traced) {
  Totals totals;
  constexpr std::uint64_t kTrials = 32;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    run_trial(t, traced, totals);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The comparison proves nothing unless the jammer actually fired, bursts
  // went on the air, writes landed mid-stream and the fallback ran.
  EXPECT_GT(totals.jam_triggers, 100u);
  EXPECT_GT(totals.bursts, 100u);
  EXPECT_GT(totals.writes, 100u);
  EXPECT_GT(totals.misaligned_blocks, 10u);
}

TEST(StreamReconfigDifferential, BlockPathMatchesPerTickReference) {
  run_trials(/*traced=*/false);
}

TEST(StreamReconfigDifferential, TracedBlockPathMatchesPerTickReference) {
  run_trials(/*traced=*/true);
}

}  // namespace
}  // namespace rjf::radio
