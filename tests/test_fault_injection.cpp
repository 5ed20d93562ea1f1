// Fault-injection subsystem tests: plan determinism, the zero-fault
// inertness contract, overflow-gap VITA accounting, settings-bus
// drop/retry recovery, and thread/shard independence of faulted sweeps.
#include "fault/fault_experiment.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/calibration.h"
#include "core/templates.h"
#include "core/fabric_units.h"
#include "dsp/noise.h"
#include "dsp/rng.h"
#include "obs/telemetry.h"
#include "phy80211/transmitter.h"
#include "radio/fault_hooks.h"
#include "radio/usrp_n210.h"

namespace rjf::fault {
namespace {

dsp::cvec random_code(std::uint64_t seed) {
  dsp::cvec code(fpga::kCorrelatorLength);
  dsp::Xoshiro256 rng(seed);
  for (auto& s : code)
    s = dsp::cfloat{rng.uniform() < 0.5 ? -0.5f : 0.5f,
                    rng.uniform() < 0.5 ? -0.5f : 0.5f};
  return code;
}

void program_for_code(radio::UsrpN210& radio, const dsp::cvec& code,
                      std::uint32_t uptime) {
  const auto tpl = core::make_template(code);
  fpga::RegisterFile staged;
  fpga::program_template(staged, tpl);
  for (std::size_t r = 0; r < 16; ++r)
    radio.write_register_now(static_cast<fpga::Reg>(r),
                             staged.read(static_cast<fpga::Reg>(r)));
  fpga::CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : code)
    peak = std::max(peak, probe.step(dsp::to_iq16(s)).metric);
  radio.write_register_now(fpga::Reg::kXcorrThreshold, peak / 2);
  staged.set_trigger_stages(fpga::kEventXcorr, 0, 0);
  radio.write_register_now(fpga::Reg::kTriggerConfig,
                           staged.read(fpga::Reg::kTriggerConfig));
  radio.write_register_now(fpga::Reg::kTriggerWindow, 0);
  staged.set_jammer(fpga::JamWaveform::kWhiteNoise, true, 0);
  radio.write_register_now(fpga::Reg::kJammerControl,
                           staged.read(fpga::Reg::kJammerControl));
  radio.write_register_now(fpga::Reg::kJamDuration, uptime);
}

FaultPlanConfig busy_config(std::uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.horizon_samples = 1 << 16;
  cfg.clip_rate = 1e-3;
  cfg.dc_rate = 1e-3;
  cfg.drop_rate = 1e-3;
  cfg.overflow_rate = 5e-4;
  cfg.gain_glitch_rate = 5e-4;
  cfg.tune_glitch_rate = 5e-4;
  return cfg;
}

TEST(FaultPlan, GenerationIsPure) {
  const FaultPlanConfig cfg = busy_config(0x11);
  const FaultPlan a = FaultPlan::generate(cfg);
  const FaultPlan b = FaultPlan::generate(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t k = 0; k < a.events().size(); ++k) {
    EXPECT_EQ(a.events()[k].at_sample, b.events()[k].at_sample);
    EXPECT_EQ(a.events()[k].length, b.events()[k].length);
    EXPECT_EQ(a.events()[k].kind, b.events()[k].kind);
    EXPECT_EQ(a.events()[k].magnitude, b.events()[k].magnitude);
  }
}

TEST(FaultPlan, EventsSortedAndWithinHorizon) {
  const FaultPlan plan = FaultPlan::generate(busy_config(0x22));
  ASSERT_FALSE(plan.empty());
  const auto& events = plan.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    if (k > 0) {
      EXPECT_GE(events[k].at_sample, events[k - 1].at_sample);
    }
    EXPECT_LE(events[k].at_sample + events[k].length,
              plan.config().horizon_samples);
    EXPECT_GE(events[k].length, 1u);
    EXPECT_LE(events[k].length, plan.max_run());
  }
}

TEST(FaultPlan, KindStreamsAreIndependent) {
  // Zeroing one kind's rate must not perturb another kind's schedule: each
  // kind draws from its own derive_seed(seed, kind) substream.
  FaultPlanConfig with_all = busy_config(0x33);
  FaultPlanConfig clip_only = with_all;
  clip_only.dc_rate = clip_only.drop_rate = clip_only.overflow_rate = 0.0;
  clip_only.gain_glitch_rate = clip_only.tune_glitch_rate = 0.0;

  const FaultPlan a = FaultPlan::generate(with_all);
  const FaultPlan b = FaultPlan::generate(clip_only);
  std::vector<std::uint64_t> clips_a;
  std::vector<std::uint64_t> clips_b;
  for (const FaultEvent& ev : a.events())
    if (ev.kind == FaultKind::kAdcClip) clips_a.push_back(ev.at_sample);
  for (const FaultEvent& ev : b.events())
    if (ev.kind == FaultKind::kAdcClip) clips_b.push_back(ev.at_sample);
  ASSERT_FALSE(clips_a.empty());
  EXPECT_EQ(clips_a, clips_b);
}

TEST(FaultPlan, ScaleZeroIsEmpty) {
  const FaultPlan plan = FaultPlan::generate(busy_config(0x44).scaled(0.0));
  EXPECT_TRUE(plan.empty());
  for (std::size_t k = 0; k < kNumFaultKinds; ++k)
    EXPECT_EQ(plan.count(static_cast<FaultKind>(k)), 0u);
}

// Regression: a NaN rate (a NaN --fault-scales entry times any base rate)
// passed the `rate <= 0.0` guard and reached geometric_gap's float ->
// integer cast, which is undefined behaviour. A rate that is not > 0
// schedules nothing; the other kinds keep their schedules.
TEST(FaultPlan, NonFiniteRateSchedulesNothing) {
  const FaultPlanConfig nan_all =
      busy_config(0x55).scaled(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(FaultPlan::generate(nan_all).empty());

  FaultPlanConfig one_nan = busy_config(0x55);
  one_nan.clip_rate = std::numeric_limits<double>::quiet_NaN();
  FaultPlanConfig no_clip = busy_config(0x55);
  no_clip.clip_rate = 0.0;
  const FaultPlan a = FaultPlan::generate(one_nan);
  const FaultPlan b = FaultPlan::generate(no_clip);
  EXPECT_EQ(a.count(FaultKind::kAdcClip), 0u);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t k = 0; k < a.events().size(); ++k) {
    EXPECT_EQ(a.events()[k].at_sample, b.events()[k].at_sample);
    EXPECT_EQ(a.events()[k].kind, b.events()[k].kind);
  }
}

// The inertness contract: an attached injector whose plan is empty must be
// indistinguishable from no injector — same StreamResult (tx waveform,
// bursts, counts) and byte-identical telemetry trace.
TEST(FaultInjector, ZeroFaultPlanIsInert) {
  const auto code = random_code(0xAB);
  dsp::cvec rx = dsp::make_wgn(2048, 1e-4, 99);
  for (std::size_t k = 0; k < code.size(); ++k) rx[700 + k] += code[k];

  radio::UsrpN210 baseline;
  program_for_code(baseline, code, 32);
  obs::Telemetry tel_base;
  baseline.attach_ring(&tel_base.ring());

  radio::UsrpN210 hooked;
  program_for_code(hooked, code, 32);
  obs::Telemetry tel_hooked;
  hooked.attach_ring(&tel_hooked.ring());
  FaultPlanConfig cfg;
  cfg.horizon_samples = rx.size();  // all rates zero -> empty plan
  FaultInjector injector(FaultPlan::generate(cfg));
  hooked.attach_fault_hooks(&injector, &injector);

  const auto a = baseline.stream(rx);
  const auto b = hooked.stream(rx);

  EXPECT_EQ(a.jam_triggers, b.jam_triggers);
  EXPECT_EQ(a.xcorr_detections, b.xcorr_detections);
  EXPECT_EQ(a.energy_high_detections, b.energy_high_detections);
  EXPECT_EQ(a.energy_low_detections, b.energy_low_detections);
  EXPECT_EQ(a.last_trigger_vita, b.last_trigger_vita);
  EXPECT_EQ(b.overflow_gaps, 0u);
  EXPECT_EQ(b.samples_lost, 0u);
  EXPECT_EQ(a.adc_clipped, b.adc_clipped);
  ASSERT_EQ(a.bursts.size(), b.bursts.size());
  for (std::size_t k = 0; k < a.bursts.size(); ++k) {
    EXPECT_EQ(a.bursts[k].start_sample, b.bursts[k].start_sample);
    EXPECT_EQ(a.bursts[k].length, b.bursts[k].length);
  }
  ASSERT_EQ(a.tx.size(), b.tx.size());
  for (std::size_t k = 0; k < a.tx.size(); ++k) EXPECT_EQ(a.tx[k], b.tx[k]);

  const auto ev_a = tel_base.trace().events();
  const auto ev_b = tel_hooked.trace().events();
  ASSERT_EQ(ev_a.size(), ev_b.size());
  for (std::size_t k = 0; k < ev_a.size(); ++k) {
    EXPECT_EQ(ev_a[k].kind, ev_b[k].kind);
    EXPECT_EQ(ev_a[k].vita_ticks, ev_b[k].vita_ticks);
    EXPECT_EQ(ev_a[k].value, ev_b[k].value);
  }
  EXPECT_EQ(injector.injected_total(), 0u);
}

// Fixed-gap hook for exact-placement tests of the stream loop.
struct FixedGapHook final : radio::RxFaultHook {
  std::vector<radio::OverflowGap> gaps;
  void mutate_rx(std::span<dsp::cfloat>, std::uint64_t) override {}
  void overflow_gaps(std::uint64_t start, std::uint64_t length,
                     std::vector<radio::OverflowGap>& out) const override {
    for (const auto& g : gaps)
      if (g.start_sample < start + length &&
          g.start_sample + g.length > start)
        out.push_back(g);
  }
};

TEST(UsrpN210Fault, OverflowGapKeepsVitaExact) {
  radio::UsrpN210 radio;
  const auto code = random_code(0xEE);
  program_for_code(radio, code, 16);

  FixedGapHook hook;
  hook.gaps = {{200, 100}, {400, 50}};
  radio.attach_fault_hooks(&hook, nullptr);

  // Code placed after the gaps: the detector must still see it, and VITA
  // time must advance exactly rx.size() * 4 ticks despite the skips.
  dsp::cvec rx(1024, dsp::cfloat{});
  for (std::size_t k = 0; k < code.size(); ++k) rx[600 + k] = code[k];
  const std::uint64_t t0 = radio.now_ticks();
  const auto result = radio.stream(rx);
  EXPECT_EQ(radio.now_ticks() - t0, rx.size() * fpga::kClocksPerSample);
  EXPECT_EQ(result.overflow_gaps, 2u);
  EXPECT_EQ(result.samples_lost, 150u);
  EXPECT_EQ(result.jam_triggers, 1u);
}

TEST(UsrpN210Fault, GapStraddlingStreamCallsIsClipped) {
  radio::UsrpN210 radio;
  program_for_code(radio, random_code(0x21), 16);
  FixedGapHook hook;
  hook.gaps = {{96, 64}};  // covers samples 96..159 of the absolute stream
  radio.attach_fault_hooks(&hook, nullptr);

  const auto first = radio.stream(dsp::cvec(128, dsp::cfloat{}));
  EXPECT_EQ(first.overflow_gaps, 1u);
  EXPECT_EQ(first.samples_lost, 32u);  // 96..127
  const auto second = radio.stream(dsp::cvec(128, dsp::cfloat{}));
  EXPECT_EQ(second.overflow_gaps, 1u);
  EXPECT_EQ(second.samples_lost, 32u);  // 128..159
}

TEST(FaultInjector, ClipFaultSaturatesAdc) {
  radio::UsrpN210 radio;
  program_for_code(radio, random_code(0x55), 16);

  FaultPlanConfig cfg;
  cfg.seed = 0x66;
  cfg.horizon_samples = 4096;
  cfg.clip_rate = 2e-3;
  FaultInjector injector(FaultPlan::generate(cfg));
  ASSERT_GT(injector.plan().count(FaultKind::kAdcClip), 0u);
  radio.attach_fault_hooks(&injector, nullptr);

  // 0.5-amplitude air: clean it never clips; the fault's fixed drive
  // (fault_shape(kAdcClip).magnitude) saturates it.
  const auto result = radio.stream(dsp::cvec(4096, dsp::cfloat{0.5f, 0.0f}));
  EXPECT_TRUE(result.adc_clipped);
  EXPECT_EQ(injector.injected(FaultKind::kAdcClip),
            injector.plan().count(FaultKind::kAdcClip));
}

// Bus hook that drops the first `drops` writes it sees, then behaves.
struct DropFirstHook final : radio::BusFaultHook {
  unsigned drops = 0;
  unsigned seen = 0;
  WriteFault on_write(fpga::Reg, std::uint64_t) override {
    WriteFault f;
    if (seen++ < drops) f.dropped = true;
    return f;
  }
};

TEST(SettingsBusFault, DroppedWriteRetriesUntilApplied) {
  radio::SettingsBus bus(40);
  fpga::RegisterFile regs;
  DropFirstHook hook;
  hook.drops = 2;
  bus.set_fault_hook(&hook);

  bus.write(fpga::Reg::kXcorrThreshold, 777, 0);
  // First attempt completes (and is discovered dropped) at 40; retry at 80
  // is also dropped; the third attempt lands at 120.
  EXPECT_EQ(bus.service(regs, 39), 0u);
  EXPECT_EQ(bus.service(regs, 200), 1u);
  EXPECT_EQ(regs.read(fpga::Reg::kXcorrThreshold), 777u);
  EXPECT_EQ(bus.writes_dropped(), 2u);
  EXPECT_EQ(bus.writes_retried(), 2u);
  EXPECT_EQ(bus.writes_abandoned(), 0u);
  EXPECT_TRUE(bus.idle());
}

struct AlwaysDropHook final : radio::BusFaultHook {
  WriteFault on_write(fpga::Reg, std::uint64_t) override {
    WriteFault f;
    f.dropped = true;
    return f;
  }
};

TEST(SettingsBusFault, RetryBudgetBoundsAndAbandons) {
  radio::SettingsBus bus(40);
  fpga::RegisterFile regs;
  AlwaysDropHook hook;
  bus.set_fault_hook(&hook);
  bus.set_retry_limit(3);

  bus.write(fpga::Reg::kJamDuration, 1234, 0);
  EXPECT_EQ(bus.service(regs, 1'000'000), 0u);  // never applies
  EXPECT_TRUE(bus.idle());                      // ...but terminates
  EXPECT_EQ(regs.read(fpga::Reg::kJamDuration), 0u);
  EXPECT_EQ(bus.writes_dropped(), 4u);  // initial + 3 retries
  EXPECT_EQ(bus.writes_retried(), 3u);
  EXPECT_EQ(bus.writes_abandoned(), 1u);
}

struct StallHook final : radio::BusFaultHook {
  std::uint32_t extra = 0;
  WriteFault on_write(fpga::Reg, std::uint64_t) override {
    WriteFault f;
    f.extra_latency_cycles = extra;
    return f;
  }
};

TEST(SettingsBusFault, StallExtendsCompletionTime) {
  radio::SettingsBus bus(40);
  StallHook hook;
  hook.extra = 60;
  bus.set_fault_hook(&hook);
  bus.write(fpga::Reg::kEnergyFloor, 5, 100);
  EXPECT_EQ(bus.next_completion(), 200u);  // 100 + 40 + 60
}

TEST(ReactiveJammerFault, RecoveryCountersMatchInjectedFaults) {
  core::JammerConfig config;
  config.detection = core::DetectionMode::kEnergyRise;
  core::ReactiveJammer jammer(config);
  obs::Telemetry telemetry;
  jammer.attach_trace(&telemetry);

  FaultPlanConfig cfg;
  cfg.seed = 0x77;
  cfg.horizon_samples = 8192;
  cfg.overflow_rate = 1e-3;
  FaultInjector injector(FaultPlan::generate(cfg));
  const std::uint64_t scheduled =
      injector.plan().count(FaultKind::kOverflowRun);
  ASSERT_GT(scheduled, 0u);
  jammer.attach_fault_hooks(&injector, &injector);

  const auto result = jammer.observe(dsp::make_wgn(8192, 1e-4, 3));
  // Every scheduled gap lies inside the streamed horizon, so schedule,
  // injector count, stream result and metrics must all agree.
  EXPECT_EQ(result.overflow_gaps, scheduled);
  EXPECT_EQ(injector.injected(FaultKind::kOverflowRun), scheduled);
  auto& metrics = telemetry.metrics();
  EXPECT_EQ(metrics.counter_value("fault.overflow_gaps"), scheduled);
  EXPECT_EQ(metrics.counter_value("fault.samples_lost"),
            result.samples_lost);
  EXPECT_EQ(metrics.counter_value("events.overflow_gap"), scheduled);
  EXPECT_EQ(metrics.counter_value("events.detector_flush"), scheduled);
  EXPECT_EQ(metrics.counter_value("fault.detector_resets"), 1u);
  EXPECT_EQ(metrics.counter_value("fault.streams_degraded"), 1u);
}

// --- Faulted sweep determinism ------------------------------------------

struct SweepFixture {
  core::JammerConfig config;
  dsp::cvec frame;
  std::vector<double> snrs{6.0, 12.0};
  std::vector<double> scales{0.0, 2.0};
  FaultPlanConfig fault_base;

  SweepFixture() {
    const auto tpl = core::wifi_long_preamble_template();
    const core::XcorrNoiseModel model(tpl);
    config.detection = core::DetectionMode::kCrossCorrelator;
    config.xcorr_template = tpl;
    config.xcorr_threshold = model.threshold_for_rate(0.52);
    std::vector<std::uint8_t> psdu(80, 0xA5);
    phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
    frame = tx.transmit(psdu);
    fault_base.seed = 0xFA57;
    fault_base.clip_rate = 2e-4;
    fault_base.drop_rate = 2e-4;
    fault_base.overflow_rate = 1e-4;
  }

  /// The clean one-rate grid; run() adds the fault axis.
  core::CampaignSpec clean_spec(unsigned threads,
                                std::size_t shard_trials) const {
    core::CampaignSpec spec;
    spec.jammer = config;
    spec.grid.snrs_db = snrs;
    spec.grid.trials_per_point = 12;
    spec.shard_trials = shard_trials;
    spec.threads = threads;
    spec.seed = 0xF457;
    return spec;
  }

  core::CampaignReport run(unsigned threads, std::size_t shard_trials) const {
    core::CampaignSpec spec = clean_spec(threads, shard_trials);
    spec.grid.fault_scales = scales;
    spec.make_trial_hook = campaign_fault_hook_factory(fault_base);
    return core::run_campaign_frames(spec, {&frame, 1});
  }
};

void expect_same_grid(const core::CampaignReport& a,
                      const core::CampaignReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    EXPECT_EQ(a.points[p].result.frames_detected,
              b.points[p].result.frames_detected);
    EXPECT_EQ(a.points[p].result.total_detections,
              b.points[p].result.total_detections);
    EXPECT_EQ(a.points[p].faults_injected, b.points[p].faults_injected);
    EXPECT_EQ(a.points[p].overflow_gaps, b.points[p].overflow_gaps);
    EXPECT_EQ(a.points[p].samples_lost, b.points[p].samples_lost);
    EXPECT_EQ(a.points[p].trigger_latency_count,
              b.points[p].trigger_latency_count);
  }
}

TEST(FaultSweep, ThreadCountIndependent) {
  const SweepFixture fx;
  const auto r1 = fx.run(1, 5);
  const auto r2 = fx.run(2, 5);
  const auto r4 = fx.run(4, 5);
  expect_same_grid(r1, r2);
  expect_same_grid(r1, r4);
  // The faulted rows actually injected something.
  std::uint64_t injected = 0;
  for (const auto& p : r1.points) injected += p.faults_injected;
  EXPECT_GT(injected, 0u);
}

TEST(FaultSweep, ShardSizeIndependent) {
  const SweepFixture fx;
  const auto a = fx.run(2, 5);
  const auto b = fx.run(2, 3);
  const auto c = fx.run(1, 12);
  expect_same_grid(a, b);
  expect_same_grid(a, c);
}

TEST(FaultSweep, ZeroFaultRowMatchesCleanSweep) {
  const SweepFixture fx;
  const auto faulted = fx.run(2, 5);

  const auto clean =
      core::run_campaign_frames(fx.clean_spec(2, 5), {&fx.frame, 1});

  // Scale-major grid: the scale-0 row is the first snrs.size() points.
  for (std::size_t k = 0; k < fx.snrs.size(); ++k) {
    const auto& zero_row = faulted.points[k];
    EXPECT_EQ(zero_row.fault_scale, 0.0);
    EXPECT_EQ(zero_row.faults_injected, 0u);
    EXPECT_EQ(zero_row.overflow_gaps, 0u);
    EXPECT_EQ(zero_row.result.frames_detected,
              clean.points[k].result.frames_detected);
    EXPECT_EQ(zero_row.result.total_detections,
              clean.points[k].result.total_detections);
  }
}

}  // namespace
}  // namespace rjf::fault
