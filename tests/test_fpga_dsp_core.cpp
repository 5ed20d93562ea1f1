// Cycle-level tests of the composed custom DSP core — including the
// latency arithmetic the paper reports in §3.1 (Fig. 5 timelines).
#include "fpga/dsp_core.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/fabric_units.h"
#include "dsp/rng.h"

#include "dsp/noise.h"

namespace rjf::fpga {
namespace {

// Pseudo-random QPSK code: negligible partial autocorrelation, so the
// metric only peaks when the whole code has entered the window.
dsp::cvec test_code() {
  dsp::cvec code(kCorrelatorLength);
  dsp::Xoshiro256 rng(0xC0DE);
  for (auto& s : code) {
    const float i = rng.uniform() < 0.5 ? -0.7f : 0.7f;
    const float q = rng.uniform() < 0.5 ? -0.7f : 0.7f;
    s = dsp::cfloat{i, q};
  }
  return code;
}

// Threshold set at 3/4 of the clean-signal peak for the test code.
std::uint32_t adaptive_threshold() {
  const auto tpl = core::make_template(test_code());
  CrossCorrelator corr;
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : test_code())
    peak = std::max(peak, corr.step(dsp::to_iq16(s * 0.5f)).metric);
  return peak * 3 / 4;
}

// Program a core for xcorr-triggered jamming on the test code.
void program_xcorr_jammer(DspCore& core, std::uint32_t threshold,
                          std::uint32_t uptime = 16,
                          std::uint16_t delay = 0) {
  auto& regs = core.registers();
  program_template(regs, core::make_template(test_code()));
  regs.write(Reg::kXcorrThreshold, threshold);
  regs.set_trigger_stages(kEventXcorr, 0, 0);
  regs.write(Reg::kTriggerWindow, 0);
  regs.set_jammer(JamWaveform::kWhiteNoise, true, delay);
  regs.write(Reg::kJamDuration, uptime);
  core.apply_registers();
}

dsp::iqvec code_at_fabric(float scale = 0.5f) {
  dsp::iqvec out;
  for (const auto s : test_code()) out.push_back(dsp::to_iq16(s * scale));
  return out;
}

TEST(DspCore, SampleStrobeEveryFourTicks) {
  DspCore core;
  int strobes = 0;
  for (int k = 0; k < 40; ++k) {
    const auto out = core.tick(k % 4 == 0 ? std::optional<dsp::IQ16>(dsp::IQ16{})
                                          : std::nullopt);
    if (out.rx_strobe) ++strobes;
  }
  EXPECT_EQ(strobes, 10);
}

TEST(DspCore, VitaTimeAdvancesMonotonically) {
  DspCore core;
  std::uint64_t prev = 0;
  for (int k = 0; k < 100; ++k) {
    const auto out = core.tick(std::nullopt);
    EXPECT_EQ(out.vita_ticks, prev);
    prev = out.vita_ticks + 1;
  }
}

TEST(DspCore, XcorrDetectionAtExactly64Samples) {
  // Paper: "it takes exactly 64 samples from the start of transmission to
  // trigger a cross-correlation detection ... T_xcorr_det = 2.56 us".
  DspCore core;
  program_xcorr_jammer(core, adaptive_threshold());
  const auto samples = code_at_fabric();
  std::size_t detect_sample = 0;
  std::size_t n = 0;
  for (const auto s : samples) {
    ++n;
    const auto trace = core.tick(s);
    if (trace.xcorr_trigger && detect_sample == 0) detect_sample = n;
    for (int c = 1; c < 4; ++c) (void)core.tick(std::nullopt);
  }
  EXPECT_EQ(detect_sample, kCorrelatorLength);
  // 64 samples at 25 MSPS = 2.56 us = 256 fabric clocks.
  const double t_xcorr = static_cast<double>(detect_sample) / kBasebandRateHz;
  EXPECT_DOUBLE_EQ(t_xcorr, 2.56e-6);
}

TEST(DspCore, JamRfWithin80nsOfTrigger) {
  // Paper: "our platform can detect and jam over-the-air packets within
  // 80ns of signal detection" — 8 fabric clocks.
  DspCore core;
  program_xcorr_jammer(core, adaptive_threshold());
  std::uint64_t trigger_tick = 0;
  std::uint64_t rf_tick = 0;
  auto samples = code_at_fabric();
  samples.resize(samples.size() + 8, dsp::IQ16{});  // room for the TX init
  for (const auto s : samples) {
    for (int c = 0; c < 4; ++c) {
      const auto out = core.tick(c == 0 ? std::optional<dsp::IQ16>(s)
                                        : std::nullopt);
      if (out.jam_trigger && trigger_tick == 0) trigger_tick = out.vita_ticks;
      if (out.tx.rf_active && rf_tick == 0) rf_tick = out.vita_ticks;
    }
    if (rf_tick) break;
  }
  ASSERT_GT(trigger_tick, 0u);
  ASSERT_GT(rf_tick, 0u);
  const double t_init = static_cast<double>(rf_tick - trigger_tick) * 10e-9;
  EXPECT_LE(t_init, 80e-9);
  EXPECT_EQ(rf_tick - trigger_tick, kTxInitCycles);
}

TEST(DspCore, EnergyDetectionUnder128Clocks) {
  // Paper: "An energy high detection takes at most 32 baseband samples, or
  // 128 clock cycles, to trigger ... T_en_det < 1.28 us".
  DspCore core;
  auto& regs = core.registers();
  regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(10.0));
  regs.write(Reg::kEnergyThreshLow, ~0u);
  regs.write(Reg::kEnergyFloor, 1);
  regs.set_trigger_stages(kEventEnergyHigh, 0, 0);
  regs.set_jammer(JamWaveform::kWhiteNoise, true, 0);
  regs.write(Reg::kJamDuration, 8);
  core.apply_registers();

  // Warm the pipeline on the quiet floor, then hit it with a strong signal.
  for (int k = 0; k < 400; ++k) {
    (void)core.tick(dsp::IQ16{30, 30});
    for (int c = 1; c < 4; ++c) (void)core.tick(std::nullopt);
  }
  std::size_t samples_to_detect = 0;
  bool detected = false;
  for (int k = 0; k < 200 && !detected; ++k) {
    ++samples_to_detect;
    const auto out = core.tick(dsp::IQ16{12000, 12000});
    detected = out.energy_high;
    for (int c = 1; c < 4; ++c) (void)core.tick(std::nullopt);
  }
  ASSERT_TRUE(detected);
  EXPECT_LE(samples_to_detect, kEnergyWindow);  // <= 32 samples = 128 clocks
}

TEST(DspCore, FeedbackCountersAccumulate) {
  DspCore core;
  program_xcorr_jammer(core, adaptive_threshold());
  auto run_code = [&core] {
    for (const auto s : code_at_fabric()) {
      (void)core.tick(s);
      for (int c = 1; c < 4; ++c) (void)core.tick(std::nullopt);
    }
    // Separate runs with silence so the correlator history clears.
    for (int k = 0; k < 128; ++k) {
      (void)core.tick(dsp::IQ16{});
      for (int c = 1; c < 4; ++c) (void)core.tick(std::nullopt);
    }
  };
  run_code();
  run_code();
  run_code();
  EXPECT_EQ(core.feedback().xcorr_detections, 3u);
  EXPECT_EQ(core.feedback().jam_triggers, 3u);
  EXPECT_GT(core.feedback().last_trigger_vita, 0u);
}

TEST(DspCore, SurgicalDelayMovesJamBurst) {
  // Paper: "Jamming can also be initialized after a custom delay to target
  // specific portions of the packet."
  for (const std::uint16_t delay : {std::uint16_t{0}, std::uint16_t{25}}) {
    DspCore core;
    program_xcorr_jammer(core, adaptive_threshold(), 8, delay);
    std::uint64_t trigger_tick = 0, rf_tick = 0;
    dsp::iqvec stream = code_at_fabric();
    stream.resize(stream.size() + 200, dsp::IQ16{});
    for (const auto s : stream) {
      for (int c = 0; c < 4; ++c) {
        const auto out = core.tick(c == 0 ? std::optional<dsp::IQ16>(s)
                                          : std::nullopt);
        if (out.jam_trigger && !trigger_tick) trigger_tick = out.vita_ticks;
        if (out.tx.rf_active && !rf_tick) rf_tick = out.vita_ticks;
      }
    }
    ASSERT_GT(rf_tick, 0u) << "delay " << delay;
    EXPECT_EQ(rf_tick - trigger_tick,
              kTxInitCycles + delay * kClocksPerSample);
  }
}

TEST(DspCore, ProcessBlockMatchesTickByTick) {
  DspCore a, b;
  program_xcorr_jammer(a, adaptive_threshold());
  program_xcorr_jammer(b, adaptive_threshold());
  dsp::iqvec samples = code_at_fabric();
  samples.resize(samples.size() + 40, dsp::IQ16{});  // room for the burst

  std::vector<SamplePeriodOutput> periods(samples.size());
  a.run_block(samples, periods);
  bool jammed = false;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    // The same sample period clocked tick by tick, folded the way
    // run_block() folds it.
    SamplePeriodOutput want;
    for (int c = 0; c < 4; ++c) {
      const auto out =
          b.tick(c == 0 ? std::optional<dsp::IQ16>(samples[k]) : std::nullopt);
      want.rf_active = want.rf_active || out.tx.rf_active;
      if (out.tx.sample_strobe) {
        want.tx_strobe = true;
        want.tx = out.tx.sample;
      }
    }
    ASSERT_EQ(periods[k].rf_active, want.rf_active) << k;
    ASSERT_EQ(periods[k].tx_strobe, want.tx_strobe) << k;
    ASSERT_EQ(periods[k].tx, want.tx) << k;
    jammed = jammed || want.rf_active;
  }
  EXPECT_TRUE(jammed);
  EXPECT_EQ(a.feedback().xcorr_detections, b.feedback().xcorr_detections);
  EXPECT_EQ(a.feedback().jam_triggers, b.feedback().jam_triggers);
  EXPECT_EQ(a.feedback().last_trigger_vita, b.feedback().last_trigger_vita);
  EXPECT_EQ(a.feedback().vita_ticks, b.feedback().vita_ticks);
}

TEST(DspCore, FastForwardAdvancesVitaExactly) {
  DspCore core;
  core.fast_forward(1000);
  EXPECT_EQ(core.feedback().vita_ticks, 1000u * kClocksPerSample);
}

TEST(DspCore, ResetClearsEverythingButRegisters) {
  DspCore core;
  program_xcorr_jammer(core, adaptive_threshold());
  for (const auto s : code_at_fabric()) {
    (void)core.tick(s);
    for (int c = 1; c < 4; ++c) (void)core.tick(std::nullopt);
  }
  EXPECT_GT(core.feedback().jam_triggers, 0u);
  core.reset();
  EXPECT_EQ(core.feedback().jam_triggers, 0u);
  EXPECT_EQ(core.feedback().vita_ticks, 0u);
  // Registers survive a datapath reset.
  EXPECT_NE(core.registers().read(Reg::kXcorrThreshold), 0u);
}

}  // namespace
}  // namespace rjf::fpga
