// Equivalence tests for the host fast path (DESIGN.md "Host fast path"):
// the bit-parallel CrossCorrelator::step() against the scalar shift-register
// reference, and DspCore::run_block() against the per-tick cadence — both
// must be bit-identical, including trigger edges and VITA timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <vector>

#include "core/fabric_units.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "fpga/cross_correlator.h"
#include "fpga/dsp_core.h"
#include "phy80211/preamble.h"
#include "tests/ring_recording.h"

namespace rjf::fpga {
namespace {

// Drive two instances of the same correlator config through the fast and
// reference paths and require identical outputs on every sample.
void expect_paths_match(const CorrelatorTemplate& tpl, std::uint32_t threshold,
                        std::span<const dsp::IQ16> stream) {
  CrossCorrelator fast;
  CrossCorrelator ref;
  fast.set_coefficients(tpl.coef_i, tpl.coef_q);
  ref.set_coefficients(tpl.coef_i, tpl.coef_q);
  fast.set_threshold(threshold);
  ref.set_threshold(threshold);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const auto a = fast.step(stream[k]);
    const auto b = ref.step_reference(stream[k]);
    ASSERT_EQ(a.metric, b.metric) << "sample " << k;
    ASSERT_EQ(a.trigger, b.trigger) << "sample " << k;
  }
}

dsp::iqvec noise_stream(std::size_t n, double power, std::uint64_t seed) {
  dsp::NoiseSource noise(power, seed);
  return dsp::to_iq16(noise.block(n));
}

// 20 MSPS standard preamble resampled to the fabric's 25 MSPS grid.
dsp::iqvec fabric_preamble(const dsp::cvec& wave, float scale) {
  const dsp::Resampler rs(20e6, 25e6);
  const dsp::cvec at25 = rs.resample(wave);
  dsp::iqvec out(at25.size());
  for (std::size_t k = 0; k < at25.size(); ++k)
    out[k] = dsp::to_iq16(at25[k] * scale);
  return out;
}

TEST(FastPathCorrelator, MatchesReferenceOnRandomNoise) {
  const auto tpl = core::wifi_long_preamble_template();
  expect_paths_match(tpl, 1u << 14, noise_stream(50000, 0.05, 11));
}

TEST(FastPathCorrelator, MatchesReferenceOnRandomTemplates) {
  // Random coefficients across the full 3-bit range (including the -4
  // boundary that exercises the sign bit-plane) against random signs.
  dsp::Xoshiro256 rng(0xFA57);
  for (int round = 0; round < 8; ++round) {
    CorrelatorTemplate tpl;
    for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
      tpl.coef_i[k] = static_cast<int>(rng.uniform() * 8.0) - 4;
      tpl.coef_q[k] = static_cast<int>(rng.uniform() * 8.0) - 4;
    }
    expect_paths_match(tpl, 1u << 12,
                       noise_stream(4000, 0.2, 0x1000u + round));
  }
}

TEST(FastPathCorrelator, MatchesReferenceOnShortPreambleStream) {
  const auto tpl = core::wifi_short_preamble_template();
  dsp::iqvec stream = noise_stream(5000, 0.001, 21);
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);
  stream.insert(stream.end(), burst.begin(), burst.end());
  const dsp::iqvec tail = noise_stream(5000, 0.001, 22);
  stream.insert(stream.end(), tail.begin(), tail.end());

  // Make sure the stream actually crosses the trigger threshold somewhere,
  // so the comparison covers the trigger path, not just quiet metrics.
  CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : stream) peak = std::max(peak, probe.step(s).metric);
  ASSERT_GT(peak, 0u);
  expect_paths_match(tpl, peak * 3 / 4, stream);
}

TEST(FastPathCorrelator, MatchesReferenceOnLongPreambleStream) {
  const auto tpl = core::wifi_long_preamble_template();
  dsp::iqvec stream = noise_stream(5000, 0.001, 31);
  const dsp::iqvec burst = fabric_preamble(phy80211::long_preamble(), 0.5f);
  stream.insert(stream.end(), burst.begin(), burst.end());

  CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : stream) peak = std::max(peak, probe.step(s).metric);
  ASSERT_GT(peak, 0u);
  expect_paths_match(tpl, peak * 3 / 4, stream);
}

TEST(FastPathCorrelator, ThresholdBoundaryAgreesAcrossPaths) {
  const auto tpl = core::wifi_short_preamble_template();
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);

  CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : burst) peak = std::max(peak, probe.step(s).metric);
  ASSERT_GT(peak, 0u);

  // metric > threshold is strict: at threshold == peak neither path may
  // trigger; one below, both must.
  for (const std::uint32_t threshold : {peak, peak - 1}) {
    CrossCorrelator fast;
    CrossCorrelator ref;
    fast.set_coefficients(tpl.coef_i, tpl.coef_q);
    ref.set_coefficients(tpl.coef_i, tpl.coef_q);
    fast.set_threshold(threshold);
    ref.set_threshold(threshold);
    bool fast_fired = false;
    bool ref_fired = false;
    for (const auto s : burst) {
      fast_fired |= fast.step(s).trigger;
      ref_fired |= ref.step_reference(s).trigger;
    }
    EXPECT_EQ(fast_fired, ref_fired) << "threshold " << threshold;
    EXPECT_EQ(fast_fired, threshold < peak) << "threshold " << threshold;
  }
}

TEST(FastPathCorrelator, MaxMetricCachedAtLoadTime) {
  const auto tpl = core::wifi_long_preamble_template();
  CrossCorrelator corr;
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kCorrelatorLength; ++k)
    sum += std::abs(tpl.coef_i[k]) + std::abs(tpl.coef_q[k]);
  EXPECT_EQ(corr.max_metric(), static_cast<std::uint32_t>(sum * sum));

  // Reloading different coefficients must refresh the cache.
  const auto tpl2 = core::wifi_short_preamble_template();
  corr.set_coefficients(tpl2.coef_i, tpl2.coef_q);
  sum = 0;
  for (std::size_t k = 0; k < kCorrelatorLength; ++k)
    sum += std::abs(tpl2.coef_i[k]) + std::abs(tpl2.coef_q[k]);
  EXPECT_EQ(corr.max_metric(), static_cast<std::uint32_t>(sum * sum));
}

// ---------------------------------------------------------------------------
// run_block() vs per-sample tick() equivalence.

// One sample period clocked tick by tick: tick(sample) plus the idle
// clocks, folded the way run_block() folds them.
SamplePeriodOutput tick_period(DspCore& core, dsp::IQ16 sample) {
  SamplePeriodOutput rec;
  for (std::uint32_t c = 0; c < kClocksPerSample; ++c) {
    const CoreOutput out =
        core.tick(c == 0 ? std::optional<dsp::IQ16>(sample) : std::nullopt);
    rec.rf_active = rec.rf_active || out.tx.rf_active;
    if (out.tx.sample_strobe) {
      rec.tx_strobe = true;
      rec.tx = out.tx.sample;
    }
  }
  return rec;
}

void expect_records_equal(const SamplePeriodOutput& a,
                          const SamplePeriodOutput& b,
                          std::uint64_t sample_index) {
  ASSERT_EQ(a.rf_active, b.rf_active) << "sample " << sample_index;
  ASSERT_EQ(a.tx_strobe, b.tx_strobe) << "sample " << sample_index;
  ASSERT_EQ(a.tx, b.tx) << "sample " << sample_index;
}

void expect_feedback_equal(const HostFeedback& a, const HostFeedback& b) {
  ASSERT_EQ(a.xcorr_detections, b.xcorr_detections);
  ASSERT_EQ(a.energy_high_detections, b.energy_high_detections);
  ASSERT_EQ(a.energy_low_detections, b.energy_low_detections);
  ASSERT_EQ(a.jam_triggers, b.jam_triggers);
  ASSERT_EQ(a.last_trigger_vita, b.last_trigger_vita);
  ASSERT_EQ(a.vita_ticks, b.vita_ticks);
}

// Program a two-stage (energy-rise then xcorr — the rise leads the
// correlator peak by the 64-tap fill) white-noise jammer so the equivalence
// run exercises the FSM window logic, the jam delay/uptime machinery and
// the TX sample path, not just the detectors.
void program_jammer(DspCore& core, std::uint32_t xcorr_threshold) {
  auto& regs = core.registers();
  program_template(regs, core::wifi_short_preamble_template());
  regs.write(Reg::kXcorrThreshold, xcorr_threshold);
  regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(6.0));
  regs.write(Reg::kEnergyThreshLow, core::energy_threshold_q88_from_db(6.0));
  regs.write(Reg::kEnergyFloor, 1000);
  regs.set_trigger_stages(kEventEnergyHigh, kEventXcorr, 0);
  regs.write(Reg::kTriggerWindow, 4096);
  regs.set_jammer(JamWaveform::kWhiteNoise, true, 2);
  regs.write(Reg::kJamDuration, 100);
  core.apply_registers();
}

TEST(RunBlockEquivalence, MillionSampleStreamBitIdentical) {
  // Noise floor with a short preamble burst every ~10k samples: plenty of
  // xcorr + energy events, jam triggers and TX bursts across >= 1M samples.
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);

  // Calibrate a threshold the bursts comfortably cross.
  DspCore probe;
  program_jammer(probe, 1);
  std::uint32_t peak = 0;
  {
    CrossCorrelator c;
    const auto tpl = core::wifi_short_preamble_template();
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
    for (const auto s : burst) peak = std::max(peak, c.step(s).metric);
  }
  ASSERT_GT(peak, 0u);

  DspCore tick_core;
  DspCore block_core;
  program_jammer(tick_core, peak / 2);
  program_jammer(block_core, peak / 2);

  constexpr std::size_t kTotalSamples = 1'050'000;
  constexpr std::size_t kBurstEvery = 10'000;
  // Odd chunk length so run_block boundaries sweep across burst positions.
  constexpr std::size_t kChunk = 4099;

  dsp::NoiseSource noise(0.002, 77);
  std::vector<SamplePeriodOutput> block_out(kChunk);
  std::size_t produced = 0;
  std::size_t burst_pos = 0;  // next index within an in-progress burst
  std::size_t since_burst = 0;
  std::uint64_t sample_index = 0;

  dsp::iqvec chunk;
  chunk.reserve(kChunk);
  while (produced < kTotalSamples) {
    chunk.clear();
    const std::size_t len = std::min(kChunk, kTotalSamples - produced);
    for (std::size_t k = 0; k < len; ++k) {
      if (burst_pos < burst.size()) {
        chunk.push_back(burst[burst_pos++]);
      } else if (++since_burst >= kBurstEvery) {
        since_burst = 0;
        burst_pos = 0;
        chunk.push_back(dsp::to_iq16(noise.sample()));
      } else {
        chunk.push_back(dsp::to_iq16(noise.sample()));
      }
    }
    block_core.run_block(chunk, std::span(block_out).first(len));
    for (std::size_t k = 0; k < len; ++k) {
      expect_records_equal(block_out[k], tick_period(tick_core, chunk[k]),
                           sample_index);
      ++sample_index;
      if (::testing::Test::HasFatalFailure()) return;  // don't flood on break
    }
    // Trigger edges, detections and VITA time agree at every block boundary.
    expect_feedback_equal(block_core.feedback(), tick_core.feedback());
    if (::testing::Test::HasFatalFailure()) return;
    produced += len;
  }

  // The run must actually have jammed, or the equivalence proved nothing.
  EXPECT_GT(block_core.feedback().jam_triggers, 0u);
  EXPECT_GT(block_core.feedback().xcorr_detections, 0u);
  EXPECT_GT(block_core.feedback().energy_high_detections, 0u);
}

struct JamHeavyTotals {
  std::uint64_t periods = 0;  // sample periods of the > 3-sample uptimes
  std::uint64_t on_air = 0;   // ... and how many of them were on the air
  std::uint64_t jam_triggers = 0;
};

// One jam-heavy case: short-preamble bursts every 100-2500 samples on a
// noise floor, a 1-stage (xcorr) or 2-stage (energy rise, then xcorr)
// trigger, the given waveform, a random delay (0-3) and an uptime of
// class 0-4: 1, 2 or 3 samples, up to 3000, or past stream_fabric's
// 8192-sample chunk. run_block() takes random splits; the reference clocks
// every sample through tick().
void run_jam_heavy_case(std::uint64_t seed, JamWaveform waveform,
                        int uptime_class, int stages, bool traced,
                        std::uint32_t xcorr_threshold, const dsp::iqvec& burst,
                        JamHeavyTotals& totals) {
  dsp::Xoshiro256 rng(seed);
  const auto delay = static_cast<std::uint32_t>(rng.uniform_int(4));
  const std::uint32_t uptime =
      uptime_class < 3 ? static_cast<std::uint32_t>(uptime_class + 1)
      : uptime_class == 3
          ? static_cast<std::uint32_t>(1 + rng.uniform_int(3000))
          : static_cast<std::uint32_t>(8193 + rng.uniform_int(8000));
  SCOPED_TRACE(::testing::Message()
               << "waveform " << static_cast<int>(waveform) << " delay "
               << delay << " uptime " << uptime << " stages " << stages
               << (traced ? " traced" : " plain"));
  std::vector<dsp::IQ16> host_wave(1 + rng.uniform_int(100));
  for (dsp::IQ16& v : host_wave)
    v = dsp::IQ16{
        static_cast<std::int16_t>(static_cast<int>(rng.uniform_int(4001)) - 2000),
        static_cast<std::int16_t>(static_cast<int>(rng.uniform_int(4001)) - 2000)};

  DspCore tick_core;
  DspCore block_core;
  for (DspCore* core : {&tick_core, &block_core}) {
    auto& regs = core->registers();
    program_template(regs, core::wifi_short_preamble_template());
    regs.write(Reg::kXcorrThreshold, xcorr_threshold);
    regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(6.0));
    regs.write(Reg::kEnergyThreshLow, core::energy_threshold_q88_from_db(6.0));
    regs.write(Reg::kEnergyFloor, 1000);
    if (stages == 1)
      regs.set_trigger_stages(kEventXcorr, 0, 0);
    else
      regs.set_trigger_stages(kEventEnergyHigh, kEventXcorr, 0);
    regs.write(Reg::kTriggerWindow, 4096);
    regs.set_jammer(waveform, true, static_cast<std::uint16_t>(delay));
    regs.write(Reg::kJamDuration, uptime);
    core->apply_registers();
    core->jammer().set_host_waveform(host_wave);
  }

  obs::RingConfig cfg;
  cfg.strobe_sample_period = static_cast<std::uint32_t>(1 + rng.uniform_int(16));
  obs::EventRing tick_ring(cfg);
  obs::EventRing block_ring(cfg);
  test::RecordingSink tick_sink;
  test::RecordingSink block_sink;
  if (traced) {
    tick_ring.set_consumer(&tick_sink, /*inline_drain=*/true);
    block_ring.set_consumer(&block_sink, /*inline_drain=*/true);
    tick_core.set_ring(&tick_ring);
    block_core.set_ring(&block_ring);
  }

  // Air: noise floor with a preamble burst every 100-2500 samples, long
  // enough that a > 8192-sample burst straddles run_block splits of every
  // size and stream_fabric's chunking.
  dsp::NoiseSource noise(0.002, dsp::derive_seed(seed, 1));
  dsp::iqvec air;
  const std::size_t total = uptime > 8192 ? 3 * std::size_t{uptime} : 24'000;
  while (air.size() < total) {
    const std::size_t gap = 100 + rng.uniform_int(2400);
    for (std::size_t k = 0; k < gap; ++k)
      air.push_back(dsp::to_iq16(noise.sample()));
    air.insert(air.end(), burst.begin(), burst.end());
  }

  std::vector<SamplePeriodOutput> block_out;
  std::size_t pos = 0;
  while (pos < air.size()) {
    // Now and then 1-3 raw clocks and a skipped gap: fast_forward() realigns
    // the core's strobe divider but not a busy jammer's, so the bursts in
    // flight issue their samples on idle clocks from then on.
    if (rng.uniform_int(8) == 0) {
      const std::uint64_t raw = 1 + rng.uniform_int(3);
      const std::uint64_t gap = 1 + rng.uniform_int(50);
      for (DspCore* core : {&tick_core, &block_core}) {
        for (std::uint64_t c = 0; c < raw; ++c) (void)core->tick(std::nullopt);
        core->fast_forward(gap);
      }
    }
    const std::size_t want = rng.uniform_int(4) == 0
                                 ? 1 + rng.uniform_int(8)
                                 : 1 + rng.uniform_int(12'000);
    const std::size_t len = std::min(want, air.size() - pos);
    const auto chunk = std::span(air).subspan(pos, len);
    block_out.resize(len);
    block_core.run_block(chunk, block_out);
    for (std::size_t k = 0; k < len; ++k) {
      expect_records_equal(block_out[k], tick_period(tick_core, chunk[k]),
                           pos + k);
      if (::testing::Test::HasFatalFailure()) return;
      if (uptime > 3) totals.on_air += block_out[k].rf_active ? 1 : 0;
    }
    // The tick path drains at the same block boundaries run_block does.
    if (traced) tick_ring.drain_if_inline();
    expect_feedback_equal(block_core.feedback(), tick_core.feedback());
    if (::testing::Test::HasFatalFailure()) return;
    pos += len;
  }
  ASSERT_EQ(block_core.jammer().jam_count(), tick_core.jammer().jam_count());
  if (uptime > 3) totals.periods += air.size();
  totals.jam_triggers += block_core.feedback().jam_triggers;
  if (traced) {
    ASSERT_EQ(block_ring.dropped(), 0u);
    ASSERT_EQ(tick_ring.dropped(), 0u);
    ASSERT_FALSE(block_sink.seen.empty());
    test::expect_same_records(block_sink.seen, tick_sink.seen);
  }
}

TEST(RunBlockEquivalence, JamHeavyAirBitIdentical) {
  // Air on which the jammer is mid-burst in most sample periods, so
  // run_block() takes its one-step-per-period path most of the time, and
  // leaves it on every burst edge and whenever the 2-stage FSM engages.
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);
  std::uint32_t peak = 0;
  {
    CrossCorrelator c;
    const auto tpl = core::wifi_short_preamble_template();
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
    for (const auto s : burst) peak = std::max(peak, c.step(s).metric);
  }
  ASSERT_GT(peak, 0u);

  constexpr std::uint64_t kSeed = 0x5EED'0019'B10Cu;
  JamHeavyTotals totals;
  std::uint64_t index = 0;
  for (const JamWaveform waveform :
       {JamWaveform::kWhiteNoise, JamWaveform::kReplay,
        JamWaveform::kHostStream}) {
    for (int u = 0; u < 5; ++u) {  // uptime class
      for (const int stages : {1, 2}) {
        for (const bool traced : {false, true}) {
          run_jam_heavy_case(dsp::derive_seed(kSeed, index++), waveform, u,
                             stages, traced, peak / 2, burst, totals);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The comparison proves nothing unless the jammer fired often and, with
  // the longer uptimes, was on the air in most periods.
  EXPECT_GT(totals.jam_triggers, 500u);
  EXPECT_GT(totals.on_air * 2, totals.periods);
}

// Raw 32-bit words in the control registers 17-23 (energy thresholds and
// floor, trigger config and window, jammer control and duration), as a
// host could write them over the settings bus: every field decoded from
// them must drive run_block() and the tick() cadence alike, including
// words rewritten and applied between blocks, mid-burst or mid-sequence.
// Half the words are shifted right by a random count so short uptimes,
// small delays and low thresholds come up as often as the huge values a
// full-width word almost always holds.
TEST(RunBlockEquivalence, RawControlRegisterWordsMatchTickCadence) {
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);
  const auto tpl = core::wifi_short_preamble_template();
  std::uint32_t peak = 0;
  {
    CrossCorrelator c;
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
    for (const auto s : burst) peak = std::max(peak, c.step(s).metric);
  }
  ASSERT_GT(peak, 0u);

  constexpr std::uint64_t kSeed = 0x5EED'0021'4E65u;
  constexpr Reg kControlRegs[] = {
      Reg::kEnergyThreshHigh, Reg::kEnergyThreshLow, Reg::kEnergyFloor,
      Reg::kTriggerConfig,    Reg::kTriggerWindow,   Reg::kJammerControl,
      Reg::kJamDuration};
  const auto random_word = [](dsp::Xoshiro256& rng) {
    const std::uint64_t w = rng.next() & 0xFFFF'FFFFu;
    return static_cast<std::uint32_t>(
        rng.uniform_int(2) == 0 ? w >> rng.uniform_int(33) : w);
  };
  std::uint64_t jam_triggers = 0;
  std::uint64_t jams = 0;
  std::uint64_t energy_events = 0;
  std::uint64_t on_air = 0;
  for (std::uint64_t round = 0; round < 256; ++round) {
    dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, round));
    std::uint32_t words[std::size(kControlRegs)];
    for (std::uint32_t& w : words) w = random_word(rng);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " words " << std::hex << words[0]
                 << ' ' << words[1] << ' ' << words[2] << ' ' << words[3]
                 << ' ' << words[4] << ' ' << words[5] << ' ' << words[6]);
    std::vector<dsp::IQ16> host_wave(1 + rng.uniform_int(64));
    for (dsp::IQ16& v : host_wave)
      v = dsp::IQ16{static_cast<std::int16_t>(rng.next()),
                    static_cast<std::int16_t>(rng.next())};

    DspCore tick_core;
    DspCore block_core;
    for (DspCore* core : {&tick_core, &block_core}) {
      auto& regs = core->registers();
      program_template(regs, tpl);
      regs.write(Reg::kXcorrThreshold, peak / 2);
      for (std::size_t r = 0; r < std::size(kControlRegs); ++r)
        regs.write(kControlRegs[r], words[r]);
      core->apply_registers();
      core->jammer().set_host_waveform(host_wave);
    }

    // Air: a noise floor whose power changes from gap to gap (energy rises
    // and falls), with a preamble burst after each gap.
    dsp::NoiseSource noise(0.002, dsp::derive_seed(kSeed ^ 0xA1u, round));
    dsp::iqvec air;
    while (air.size() < 12'000) {
      const float gain = 0.05f + 4.0f * static_cast<float>(rng.uniform());
      const std::size_t gap = 50 + rng.uniform_int(1500);
      for (std::size_t k = 0; k < gap; ++k)
        air.push_back(dsp::to_iq16(noise.sample() * gain));
      air.insert(air.end(), burst.begin(), burst.end());
    }

    std::vector<SamplePeriodOutput> block_out;
    std::size_t pos = 0;
    while (pos < air.size()) {
      if (rng.uniform_int(8) == 0) {
        const Reg reg = kControlRegs[rng.uniform_int(std::size(kControlRegs))];
        const std::uint32_t word = random_word(rng);
        SCOPED_TRACE(::testing::Message()
                     << "rewrote register " << static_cast<int>(reg)
                     << " with " << std::hex << word << " at sample "
                     << std::dec << pos);
        for (DspCore* core : {&tick_core, &block_core}) {
          core->registers().write(reg, word);
          core->apply_registers();
        }
      }
      const std::size_t len =
          std::min<std::size_t>(1 + rng.uniform_int(3000), air.size() - pos);
      const auto chunk = std::span(air).subspan(pos, len);
      block_out.resize(len);
      block_core.run_block(chunk, block_out);
      for (std::size_t k = 0; k < len; ++k) {
        expect_records_equal(block_out[k], tick_period(tick_core, chunk[k]),
                             pos + k);
        if (::testing::Test::HasFatalFailure()) return;
        on_air += block_out[k].rf_active ? 1 : 0;
      }
      expect_feedback_equal(block_core.feedback(), tick_core.feedback());
      if (::testing::Test::HasFatalFailure()) return;
      pos += len;
    }
    ASSERT_EQ(block_core.jammer().jam_count(), tick_core.jammer().jam_count());
    jam_triggers += block_core.feedback().jam_triggers;
    jams += block_core.jammer().jam_count();
    energy_events += block_core.feedback().energy_high_detections +
                     block_core.feedback().energy_low_detections;
  }
  // The words must have armed the energy detector, the trigger and the
  // jammer often enough, or the comparison covered only an idle fabric.
  // (These seeds give 2876 triggers, 53 bursts, 4576 energy events and
  // 176023 periods on the air.)
  EXPECT_GT(jam_triggers, 1000u);
  EXPECT_GT(jams, 20u);
  EXPECT_GT(energy_events, 1000u);
  EXPECT_GT(on_air, 10'000u);
}

TEST(RunBlockEquivalence, MisalignedStrobePhaseFallsBackToTickCadence) {
  DspCore tick_core;
  DspCore block_core;
  program_jammer(tick_core, 1u << 10);
  program_jammer(block_core, 1u << 10);

  // Knock both cores off strobe alignment by one raw fabric clock.
  (void)tick_core.tick(dsp::IQ16{100, -100});
  (void)block_core.tick(dsp::IQ16{100, -100});

  const dsp::iqvec stream = noise_stream(2000, 0.01, 99);
  std::vector<SamplePeriodOutput> block_out(stream.size());
  block_core.run_block(stream, block_out);

  for (std::size_t k = 0; k < stream.size(); ++k) {
    expect_records_equal(block_out[k], tick_period(tick_core, stream[k]), k);
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_feedback_equal(block_core.feedback(), tick_core.feedback());
}

TEST(RunBlockEquivalence, RunBlockWritesOneRecordPerSample) {
  DspCore core;
  program_jammer(core, 1u << 10);
  const dsp::iqvec stream = noise_stream(256, 0.01, 5);
  std::vector<SamplePeriodOutput> records(stream.size());
  core.run_block(stream, records);
  EXPECT_EQ(core.feedback().vita_ticks, stream.size() * kClocksPerSample);
  // A short output span truncates the input: one record, one sample period.
  core.run_block(stream, std::span(records).first(3));
  EXPECT_EQ(core.feedback().vita_ticks,
            (stream.size() + 3) * kClocksPerSample);
}

// ---------------------------------------------------------------------------
// Stretch boundaries. run_block() clocks a sample one by one only at a
// detector edge, with the FSM engaged, or with the jammer in delay, init or
// its last sample; between those it runs quiet and mid-burst stretches in
// bulk, inside kMetricBlock-sample sub-blocks. These pins put edges and
// burst ends on the boundaries of both and compare with the tick cadence.

// The short-preamble template as full-scale sign rails: a window holding
// exactly these 64 samples reaches the correlator's max_metric, and no
// other window of the air below does.
dsp::iqvec template_rails() {
  const auto tpl = core::wifi_short_preamble_template();
  const auto rail = [](int coef) {
    return static_cast<std::int16_t>(coef < 0 ? -8000 : 8000);
  };
  dsp::iqvec rails(kCorrelatorLength);
  for (std::size_t k = 0; k < kCorrelatorLength; ++k)
    rails[k] = dsp::IQ16{rail(tpl.coef_i[k]), rail(tpl.coef_q[k])};
  return rails;
}

// A 1-stage correlator trigger that fires only on a full template match,
// and an energy detector that never fires (`energy` false) or fires on
// 6 dB steps; then the given jammer.
void program_pin_core(DspCore& core, JamWaveform waveform,
                      std::uint16_t delay, std::uint32_t uptime,
                      bool energy) {
  auto& regs = core.registers();
  program_template(regs, core::wifi_short_preamble_template());
  core.apply_registers();
  regs.write(Reg::kXcorrThreshold, core.correlator().max_metric() - 1);
  const std::uint32_t ratio =
      energy ? core::energy_threshold_q88_from_db(6.0) : 0xFFFFFFFFu;
  regs.write(Reg::kEnergyThreshHigh, ratio);
  regs.write(Reg::kEnergyThreshLow, ratio);
  regs.write(Reg::kEnergyFloor, 1000);
  regs.set_trigger_stages(kEventXcorr, 0, 0);
  regs.set_jammer(waveform, true, delay);
  regs.write(Reg::kJamDuration, uptime);
  core.apply_registers();
}

// Low noise with the template's last sample at each of `edges`: the
// correlator edge lands exactly there.
dsp::iqvec air_with_edges(std::size_t total,
                          std::initializer_list<std::size_t> edges,
                          std::uint64_t seed) {
  dsp::iqvec air = noise_stream(total, 0.002, seed);
  const dsp::iqvec rails = template_rails();
  for (const std::size_t e : edges)
    std::copy(rails.begin(), rails.end(),
              air.begin() + static_cast<std::ptrdiff_t>(e + 1 - rails.size()));
  return air;
}

// Both cores of a pin, with a ring each when traced.
struct PinCores {
  PinCores(JamWaveform waveform, std::uint16_t delay, std::uint32_t uptime,
           bool energy, std::uint32_t strobe_period)
      : tick_ring(ring_config(strobe_period)),
        block_ring(ring_config(strobe_period)) {
    for (DspCore* core : {&tick_core, &block_core})
      program_pin_core(*core, waveform, delay, uptime, energy);
    tick_ring.set_consumer(&tick_sink, /*inline_drain=*/true);
    block_ring.set_consumer(&block_sink, /*inline_drain=*/true);
  }
  static obs::RingConfig ring_config(std::uint32_t strobe_period) {
    obs::RingConfig cfg;
    cfg.strobe_sample_period = strobe_period;
    return cfg;
  }
  void attach() {
    tick_core.set_ring(&tick_ring);
    block_core.set_ring(&block_ring);
  }

  // Feed air[from, from + len) as one run_block() call and tick by tick,
  // comparing every record and the feedback after the call. Returns the
  // samples of the call on which the tick path counted a new correlator
  // detection.
  std::vector<std::size_t> feed(const dsp::iqvec& air, std::size_t from,
                                std::size_t len) {
    std::vector<std::size_t> detections;
    const auto chunk = std::span(air).subspan(from, len);
    std::vector<SamplePeriodOutput> out(len);
    block_core.run_block(chunk, out);
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint64_t before = tick_core.feedback().xcorr_detections;
      expect_records_equal(out[k], tick_period(tick_core, chunk[k]),
                           from + k);
      if (::testing::Test::HasFatalFailure()) return detections;
      if (tick_core.feedback().xcorr_detections != before)
        detections.push_back(k);
      on_air += out[k].rf_active ? 1 : 0;
      last_on_air = out[k].rf_active ? from + k : last_on_air;
    }
    if (tick_core.ring() != nullptr) tick_ring.drain_if_inline();
    expect_feedback_equal(block_core.feedback(), tick_core.feedback());
    return detections;
  }

  void expect_same_trace() {
    ASSERT_EQ(block_ring.dropped(), 0u);
    ASSERT_EQ(tick_ring.dropped(), 0u);
    ASSERT_EQ(block_ring.sampled_out(), tick_ring.sampled_out());
    test::expect_same_records(block_sink.seen, tick_sink.seen);
  }

  DspCore tick_core;
  DspCore block_core;
  obs::EventRing tick_ring;
  obs::EventRing block_ring;
  test::RecordingSink tick_sink;
  test::RecordingSink block_sink;
  std::size_t on_air = 0;
  std::size_t last_on_air = 0;
};

constexpr std::uint32_t kPinStrobePeriods[] = {1, 16, 1000};

TEST(RunBlockEquivalence, EdgesOnSubBlockBoundariesMatchTickCadence) {
  // One 700-sample run_block() call after a 1000-sample lead-in, with the
  // correlator edge at its sample 0, 255, 256 or 699 (its last). The
  // 300-sample burst it triggers runs on across sub-block and call ends.
  constexpr std::size_t kLead = 1000;
  constexpr std::size_t kCall = 700;
  for (const std::size_t at : {std::size_t{0}, std::size_t{255},
                               std::size_t{256}, kCall - 1}) {
    const dsp::iqvec air = air_with_edges(3000, {kLead + at}, 0xED6E + at);
    for (const bool energy : {false, true}) {
      for (const std::uint32_t period : {0u, 1u, 16u, 1000u}) {
        SCOPED_TRACE(::testing::Message()
                     << "edge at " << at << (energy ? " energy" : "")
                     << (period == 0 ? " plain" : " traced, period ")
                     << period);
        PinCores pin(JamWaveform::kWhiteNoise, 0, 300, energy,
                     period == 0 ? 1 : period);
        if (period != 0) pin.attach();
        (void)pin.feed(air, 0, kLead);
        const std::vector<std::size_t> det = pin.feed(air, kLead, kCall);
        (void)pin.feed(air, kLead + kCall, air.size() - kLead - kCall);
        if (::testing::Test::HasFatalFailure()) return;
        // The air put the one edge where it was meant to be.
        ASSERT_EQ(det, std::vector<std::size_t>{at});
        EXPECT_EQ(pin.block_core.feedback().jam_triggers, 1u);
        EXPECT_EQ(pin.on_air, 300u);
        if (period != 0) pin.expect_same_trace();
      }
    }
  }
}

TEST(RunBlockEquivalence, BurstEndingOnSubBlockBoundaryMatchesTickCadence) {
  // A trigger at sample E puts TX samples on periods E+2 .. E+1+uptime.
  // With E = 100 the burst's last sample lands on sample 254, 255 (the
  // last of the first sub-block), 256 (the first of the next) or 257.
  constexpr std::size_t kEdge = 100;
  const dsp::iqvec air = air_with_edges(1024, {kEdge}, 0xB0DE);
  for (const std::uint32_t uptime : {153u, 154u, 155u, 156u}) {
    for (const std::uint32_t period : {0u, 1u, 16u, 1000u}) {
      SCOPED_TRACE(::testing::Message()
                   << "uptime " << uptime
                   << (period == 0 ? " plain" : " traced, period ") << period);
      PinCores pin(JamWaveform::kWhiteNoise, 0, uptime, false,
                   period == 0 ? 1 : period);
      if (period != 0) pin.attach();
      (void)pin.feed(air, 0, air.size());
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(pin.last_on_air, kEdge + 1 + uptime);
      EXPECT_EQ(pin.on_air, uptime);
      if (period != 0) pin.expect_same_trace();
    }
  }
}

TEST(RunBlockEquivalence, JamStretchLengthsAndEndsMatchTickCadence) {
  // A trigger at sample E puts TX samples on periods E+2 .. E+1+uptime, and
  // the jam stretch runs from E+2 up to the burst's last sample, which is
  // clocked. With E = 100:
  // - uptimes 2-6 make stretches of 1-5 samples, the tail path of the WGN
  //   kernel's four-sample groups;
  // - uptime 30 ends the burst inside edge-free air, so only the burst
  //   ends the stretch;
  // - uptimes 155 and 156 end the stretch on sample 255 (the last of the
  //   first sub-block) and on 256 (a one-sample stretch in the next).
  // Each air is fed as one call and in calls of 1-7 samples, which cut
  // stretches short at every offset.
  constexpr std::size_t kEdge = 100;
  const dsp::iqvec air = air_with_edges(700, {kEdge}, 0x57E7);
  dsp::Xoshiro256 rng(dsp::derive_seed(0x5EED'0029'57E7u, 0));
  for (const std::uint32_t uptime : {2u, 3u, 4u, 5u, 6u, 30u, 155u, 156u}) {
    for (const bool small_calls : {false, true}) {
      for (const std::uint32_t period : {0u, 1u, 16u, 1000u}) {
        SCOPED_TRACE(::testing::Message()
                     << "uptime " << uptime
                     << (small_calls ? " small calls" : " one call")
                     << (period == 0 ? " plain" : " traced, period ")
                     << period);
        PinCores pin(JamWaveform::kWhiteNoise, 0, uptime, false,
                     period == 0 ? 1 : period);
        if (period != 0) pin.attach();
        for (std::size_t pos = 0; pos < air.size();) {
          const std::size_t len =
              small_calls ? std::min<std::size_t>(1 + rng.uniform_int(7),
                                                  air.size() - pos)
                          : air.size();
          (void)pin.feed(air, pos, len);
          if (::testing::Test::HasFatalFailure()) return;
          pos += len;
        }
        EXPECT_EQ(pin.block_core.feedback().jam_triggers, 1u);
        EXPECT_EQ(pin.last_on_air, kEdge + 1 + uptime);
        EXPECT_EQ(pin.on_air, uptime);
        if (period != 0) pin.expect_same_trace();
      }
    }
  }
}

TEST(RunBlockEquivalence, ReplayAfterLongQuietStretchMatchesTickCadence) {
  // More than 512 quiet samples (several quiet stretches, some wrapping the
  // ring) are recorded in bulk before the trigger, and a second trigger
  // follows quiet air recorded around a burst; a 300-sample jam delay
  // then runs clock by clock. Playback starts at the ring's write position
  // at the trigger and recording goes on, so the burst replays samples
  // recorded a delay earlier, through the position the stretches left.
  const dsp::iqvec air = air_with_edges(5000, {1500, 2900}, 0x5E7A);
  for (const std::uint32_t period : {0u, 1u, 16u, 1000u}) {
    SCOPED_TRACE(::testing::Message()
                 << (period == 0 ? "plain" : "traced, period ") << period);
    PinCores pin(JamWaveform::kReplay, 300, 700, true,
                 period == 0 ? 1 : period);
    if (period != 0) pin.attach();
    for (std::size_t pos = 0; pos < air.size(); pos += 1300)
      (void)pin.feed(air, pos, std::min<std::size_t>(1300, air.size() - pos));
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(pin.block_core.feedback().jam_triggers, 2u);
    EXPECT_EQ(pin.on_air, 1400u);
    if (period != 0) pin.expect_same_trace();
  }
}

TEST(RunBlockEquivalence, RingAttachedMidStretchMatchesTickCadence) {
  // The rings attach between two run_block() calls, once in quiet air and
  // once mid-burst: the traces must open identically, the second with a
  // jam_start at the first traced clock.
  const dsp::iqvec air = air_with_edges(3000, {400}, 0xA77A);
  for (const std::size_t attach_at : {std::size_t{300}, std::size_t{600}}) {
    for (const std::uint32_t period : kPinStrobePeriods) {
      SCOPED_TRACE(::testing::Message() << "attach at " << attach_at
                                        << ", period " << period);
      PinCores pin(JamWaveform::kWhiteNoise, 0, 1000, true, period);
      (void)pin.feed(air, 0, attach_at);
      pin.attach();
      (void)pin.feed(air, attach_at, air.size() - attach_at);
      if (::testing::Test::HasFatalFailure()) return;
      pin.expect_same_trace();
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_FALSE(pin.block_sink.seen.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// The ring's record stream pinned to recorded values. Both paths publish
// through one routine, so the block-vs-tick comparisons above cannot see an
// error common to both; these digests can.

// FNV-1a over every field a drained record carries.
struct TraceDigest {
  std::uint64_t h = 0xcbf29ce484222325u;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3u;
    }
  }
  void add(const test::RingRecord& r) {
    add(r.strobe ? 1u : 0u);
    add(r.vita_ticks);
    if (!r.strobe) {
      add(static_cast<std::uint64_t>(r.kind));
      add(r.value);
      return;
    }
    const obs::FabricSignals& s = r.signals;
    add(static_cast<std::uint16_t>(s.rx.i));
    add(static_cast<std::uint16_t>(s.rx.q));
    add(s.xcorr_metric);
    add(s.energy_sum);
    add(s.fsm_stage);
    add((s.xcorr_trigger ? 1u : 0u) | (s.energy_high ? 2u : 0u) |
        (s.energy_low ? 4u : 0u) | (s.jam_trigger ? 8u : 0u) |
        (s.rf_active ? 16u : 0u));
    add(static_cast<std::uint16_t>(s.tx.i));
    add(static_cast<std::uint16_t>(s.tx.q));
  }
};

struct TraceRun {
  std::uint64_t digest = 0;
  std::size_t strobes = 0;
  std::size_t stage_events = 0;
  std::size_t energy_falls = 0;
  std::size_t jam_starts = 0;
};

// One seeded traced run: preamble bursts on a noise floor through the
// 1- or 2-stage trigger and the given waveform, fed to the block path in
// random splits or to the tick path clock by clock.
TraceRun traced_run(JamWaveform waveform, int stages,
                    std::uint32_t strobe_sample_period, bool block_path,
                    std::uint32_t xcorr_threshold, const dsp::iqvec& burst) {
  constexpr std::uint64_t kSeed = 0x5EED'0023'D16Eu;
  dsp::Xoshiro256 air_rng(dsp::derive_seed(kSeed, 1));
  dsp::Xoshiro256 split_rng(dsp::derive_seed(kSeed, 2));

  DspCore core;
  auto& regs = core.registers();
  program_template(regs, core::wifi_short_preamble_template());
  regs.write(Reg::kXcorrThreshold, xcorr_threshold);
  regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(6.0));
  regs.write(Reg::kEnergyThreshLow, core::energy_threshold_q88_from_db(6.0));
  regs.write(Reg::kEnergyFloor, 1000);
  if (stages == 1)
    regs.set_trigger_stages(kEventXcorr, 0, 0);
  else
    regs.set_trigger_stages(kEventEnergyHigh, kEventXcorr, 0);
  regs.write(Reg::kTriggerWindow, 4096);
  regs.set_jammer(waveform, true, 2);
  regs.write(Reg::kJamDuration, 37);
  core.apply_registers();
  std::vector<dsp::IQ16> host_wave(23);
  for (std::size_t k = 0; k < host_wave.size(); ++k)
    host_wave[k] = dsp::IQ16{static_cast<std::int16_t>(100 * k),
                             static_cast<std::int16_t>(-50 * k)};
  core.jammer().set_host_waveform(host_wave);

  obs::RingConfig cfg;
  cfg.strobe_sample_period = strobe_sample_period;
  obs::EventRing ring(cfg);
  test::RecordingSink sink;
  ring.set_consumer(&sink, /*inline_drain=*/true);
  core.set_ring(&ring);

  dsp::NoiseSource noise(0.002, dsp::derive_seed(kSeed, 3));
  dsp::iqvec air;
  while (air.size() < 12'000) {
    const std::size_t gap = 100 + air_rng.uniform_int(900);
    for (std::size_t k = 0; k < gap; ++k)
      air.push_back(dsp::to_iq16(noise.sample()));
    air.insert(air.end(), burst.begin(), burst.end());
  }

  std::vector<SamplePeriodOutput> out;
  std::size_t pos = 0;
  while (pos < air.size()) {
    const std::size_t len =
        std::min<std::size_t>(1 + split_rng.uniform_int(3000), air.size() - pos);
    const auto chunk = std::span(air).subspan(pos, len);
    if (block_path) {
      out.resize(len);
      core.run_block(chunk, out);
    } else {
      for (const dsp::IQ16 sample : chunk) (void)tick_period(core, sample);
      ring.drain_if_inline();
    }
    pos += len;
  }
  EXPECT_EQ(ring.dropped(), 0u);

  TraceRun run;
  TraceDigest digest;
  for (const test::RingRecord& r : sink.seen) {
    digest.add(r);
    run.strobes += r.strobe ? 1 : 0;
    if (r.strobe) continue;
    run.stage_events += r.kind == obs::EventKind::kFsmStage ? 1 : 0;
    run.energy_falls += r.kind == obs::EventKind::kEnergyFall ? 1 : 0;
    run.jam_starts += r.kind == obs::EventKind::kJamStart ? 1 : 0;
  }
  run.digest = digest.h;
  return run;
}

TEST(RunBlockEquivalence, TraceDigestsMatchRecordedValues) {
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);
  std::uint32_t peak = 0;
  {
    CrossCorrelator c;
    const auto tpl = core::wifi_short_preamble_template();
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
    for (const auto s : burst) peak = std::max(peak, c.step(s).metric);
  }
  ASSERT_GT(peak, 0u);

  struct Case {
    JamWaveform waveform;
    int stages;
    std::uint32_t period;
    std::uint64_t digest;
  };
  // Recorded when tick() and run_block() still had an emitter each.
  constexpr Case kCases[] = {
      {JamWaveform::kWhiteNoise, 1, 1, 0xbbc1a1ab3d4d6c0au},
      {JamWaveform::kWhiteNoise, 1, 16, 0xb056cc5c561e109bu},
      {JamWaveform::kWhiteNoise, 2, 1, 0x0af4be65960f147bu},
      {JamWaveform::kWhiteNoise, 2, 16, 0x8329057a87d7eb1au},
      {JamWaveform::kReplay, 1, 1, 0x329bcb19f9bf935au},
      {JamWaveform::kReplay, 1, 16, 0x2946a2c318e2cb44u},
      {JamWaveform::kReplay, 2, 1, 0x02aa06212b630d7eu},
      {JamWaveform::kReplay, 2, 16, 0x184f0acbc851e6b7u},
      {JamWaveform::kHostStream, 1, 1, 0x758e5ca2de40907au},
      {JamWaveform::kHostStream, 1, 16, 0x007b64b9826f5677u},
      {JamWaveform::kHostStream, 2, 1, 0xc3c02a9d43556546u},
      {JamWaveform::kHostStream, 2, 16, 0x70ecfa3c65912a13u},
  };
  for (const Case& c : kCases) {
    for (const bool block_path : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "waveform " << static_cast<int>(c.waveform)
                   << " stages " << c.stages << " period " << c.period
                   << (block_path ? " block" : " tick"));
      const TraceRun run = traced_run(c.waveform, c.stages, c.period,
                                      block_path, peak / 2, burst);
      // Every field the publisher writes must be in the stream.
      EXPECT_GT(run.strobes, 0u);
      EXPECT_GT(run.energy_falls, 0u);
      EXPECT_GT(run.jam_starts, 0u);
      if (c.stages == 2) {
        EXPECT_GT(run.stage_events, 0u);
      }
      EXPECT_EQ(run.digest, c.digest);
    }
  }
}

// A ring attached to a core that ran untraced must see only the jam edges
// of its own span: no jam_end for a burst that began while detached (here,
// one another ring saw start), and a jam_start at the first traced clock
// for a burst already on the air. Energy-rise trigger with a 100-sample
// (4 us) white-noise burst, as core::energy_reactive_preset(4e-6) programs.
TEST(RunBlockEquivalence, ReattachedRingSeesOnlyItsOwnJamEdges) {
  dsp::NoiseSource floor_noise(0.002, 31);
  dsp::NoiseSource loud_noise(0.2, 32);
  for (const bool block_path : {true, false}) {
    SCOPED_TRACE(block_path ? "block path" : "tick path");
    DspCore core;
    auto& regs = core.registers();
    regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(10.0));
    regs.write(Reg::kEnergyFloor, 1000);
    regs.set_trigger_stages(kEventEnergyHigh, 0, 0);
    regs.set_jammer(JamWaveform::kWhiteNoise, true, 0);
    regs.write(Reg::kJamDuration, 100);
    core.apply_registers();

    std::vector<SamplePeriodOutput> out(1);
    const auto feed = [&](dsp::NoiseSource& src) {
      const dsp::IQ16 sample = dsp::to_iq16(src.sample());
      if (block_path)
        core.run_block(std::span(&sample, 1), out);
      else
        (void)tick_period(core, sample);
    };
    // Floor, then loud air until the jammer's energy is on it.
    const auto start_burst = [&] {
      for (int k = 0; k < 600; ++k) feed(floor_noise);
      for (int k = 0; k < 400 && !core.jammer().rf_active(); ++k)
        feed(loud_noise);
      for (int k = 0; k < 2; ++k) feed(loud_noise);
      ASSERT_TRUE(core.jammer().rf_active());
    };
    const auto drained = [](obs::EventRing& ring) {
      test::RecordingSink sink;
      (void)ring.drain_into(sink);
      std::vector<test::RingRecord> jam_edges;
      for (const test::RingRecord& r : sink.seen)
        if (!r.strobe && (r.kind == obs::EventKind::kJamStart ||
                          r.kind == obs::EventKind::kJamEnd))
          jam_edges.push_back(r);
      return jam_edges;
    };

    // Ring A sees a burst start; the burst ends while no ring is attached.
    obs::EventRing ring_a;
    core.set_ring(&ring_a);
    start_burst();
    if (::testing::Test::HasFatalFailure()) return;
    core.set_ring(nullptr);
    const auto edges_a = drained(ring_a);
    ASSERT_EQ(edges_a.size(), 1u);
    EXPECT_EQ(edges_a[0].kind, obs::EventKind::kJamStart);
    for (int k = 0; k < 300; ++k) feed(floor_noise);
    ASSERT_FALSE(core.jammer().rf_active());

    // Ring B, attached after that burst, owes it nothing.
    obs::EventRing ring_b;
    core.set_ring(&ring_b);
    for (int k = 0; k < 300; ++k) feed(floor_noise);
    EXPECT_TRUE(drained(ring_b).empty());

    // A burst starts untraced; ring C, attached mid-burst, opens it.
    core.set_ring(nullptr);
    start_burst();
    if (::testing::Test::HasFatalFailure()) return;
    obs::EventRing ring_c;
    core.set_ring(&ring_c);
    const std::uint64_t attach_vita = core.feedback().vita_ticks;
    for (int k = 0; k < 300; ++k) feed(floor_noise);
    const auto edges_c = drained(ring_c);
    ASSERT_EQ(edges_c.size(), 2u);
    EXPECT_EQ(edges_c[0].kind, obs::EventKind::kJamStart);
    EXPECT_EQ(edges_c[0].vita_ticks, attach_vita);
    EXPECT_EQ(edges_c[1].kind, obs::EventKind::kJamEnd);
  }
}

}  // namespace
}  // namespace rjf::fpga
