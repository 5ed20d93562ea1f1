// DDC/DUC chain, settings bus, and SBX front-end tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/db.h"
#include "radio/ddc_duc.h"
#include "radio/frontend.h"
#include "radio/settings_bus.h"

namespace rjf::radio {
namespace {

dsp::cvec tone(double freq_hz, double rate_hz, std::size_t n) {
  dsp::cvec x(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double p = 2.0 * std::numbers::pi * freq_hz * k / rate_hz;
    x[k] = dsp::cfloat{static_cast<float>(std::cos(p)),
                       static_cast<float>(std::sin(p))};
  }
  return x;
}

TEST(DdcChain, DecimatesByFour) {
  DdcChain ddc(4, 0.0, 100e6);
  const auto out = ddc.process(dsp::cvec(4000, dsp::cfloat{1.0f, 0.0f}));
  EXPECT_EQ(out.size(), 1000u);
}

TEST(DdcChain, MixesOffsetToBaseband) {
  // A tone at +5 MHz with a 5 MHz CORDIC offset lands at DC after the DDC.
  DdcChain ddc(4, 5e6, 100e6);
  const auto out = ddc.process(tone(5e6, 100e6, 8000));
  // At DC the post-transient samples barely rotate.
  for (std::size_t k = out.size() / 2; k < out.size() / 2 + 50; ++k) {
    const auto rot = out[k + 1] * std::conj(out[k]);
    EXPECT_NEAR(std::arg(rot), 0.0, 0.01);
  }
}

TEST(DucChain, InterpolatesByFour) {
  DucChain duc(4, 0.0, 100e6);
  const auto out = duc.process(dsp::cvec(500, dsp::cfloat{1.0f, 0.0f}));
  EXPECT_EQ(out.size(), 2000u);
  EXPECT_EQ(DucChain::fill_latency_cycles(), 7u);
}

TEST(DdcDuc, RoundTripPreservesTone) {
  DucChain duc(4, 0.0, 100e6);
  DdcChain ddc(4, 0.0, 100e6);
  const auto in = tone(1e6, 25e6, 2000);
  const auto out = ddc.process(duc.process(in));
  ASSERT_EQ(out.size(), in.size());
  const std::span<const dsp::cfloat> mid(out.data() + 500, 1000);
  EXPECT_NEAR(dsp::mean_power(mid), 1.0, 0.1);
}

TEST(SettingsBus, WriteAppliesAfterLatency) {
  SettingsBus bus(40);
  fpga::RegisterFile regs;
  bus.write(fpga::Reg::kXcorrThreshold, 999, 100);
  EXPECT_EQ(bus.service(regs, 100), 0u);
  EXPECT_EQ(bus.service(regs, 139), 0u);
  EXPECT_EQ(bus.service(regs, 140), 1u);
  EXPECT_EQ(regs.read(fpga::Reg::kXcorrThreshold), 999u);
  EXPECT_TRUE(bus.idle());
}

TEST(SettingsBus, BurstSerialises) {
  // Paper §4.3: switching personalities costs the bus latency per write
  // ("hundreds of ns").
  SettingsBus bus(40);
  fpga::RegisterFile regs;
  bus.write(fpga::Reg::kXcorrThreshold, 1, 0);
  bus.write(fpga::Reg::kJamDuration, 2, 0);
  bus.write(fpga::Reg::kEnergyFloor, 3, 0);
  EXPECT_EQ(bus.last_completion(), 120u);  // 3 writes x 40 cycles
  EXPECT_EQ(bus.service(regs, 40), 1u);
  EXPECT_EQ(bus.service(regs, 80), 1u);
  EXPECT_EQ(bus.service(regs, 200), 1u);
}

TEST(SettingsBus, EmptyBusHasNoCompletionTimes) {
  // Regression: an idle bus used to answer 0 from last_completion() and
  // UINT64_MAX from next_completion() — two different "nothing pending"
  // sentinels, one of which (0) is a valid fabric time. Both now return
  // nullopt, and both flip to real times together once a write is queued.
  SettingsBus bus(40);
  EXPECT_FALSE(bus.last_completion().has_value());
  EXPECT_FALSE(bus.next_completion().has_value());

  fpga::RegisterFile regs;
  bus.write(fpga::Reg::kXcorrThreshold, 1, 100);
  EXPECT_EQ(bus.next_completion(), 140u);
  EXPECT_EQ(bus.last_completion(), 140u);

  // Draining the queue returns both to nullopt, not to stale times.
  (void)bus.service(regs, 1000);
  EXPECT_TRUE(bus.idle());
  EXPECT_FALSE(bus.last_completion().has_value());
  EXPECT_FALSE(bus.next_completion().has_value());
}

TEST(SettingsBus, OrderPreserved) {
  SettingsBus bus(10);
  fpga::RegisterFile regs;
  bus.write(fpga::Reg::kJamDuration, 1, 0);
  bus.write(fpga::Reg::kJamDuration, 2, 0);
  (void)bus.service(regs, 1000);
  EXPECT_EQ(regs.read(fpga::Reg::kJamDuration), 2u);
}

TEST(SbxFrontend, TuneRangeEnforced) {
  SbxFrontend fe;
  EXPECT_NO_THROW(fe.tune(2.484e9));  // WiFi channel 14
  EXPECT_NO_THROW(fe.tune(2.608e9));  // the paper's WiMAX carrier
  EXPECT_NO_THROW(fe.tune(400e6));
  EXPECT_THROW(fe.tune(100e6), std::out_of_range);
  EXPECT_THROW(fe.tune(5.8e9), std::out_of_range);
}

TEST(SbxFrontend, GainClampsToHardwareRange) {
  SbxFrontend fe;
  fe.set_tx_gain(100.0);
  EXPECT_DOUBLE_EQ(fe.tx_gain_db(), 31.5);
  fe.set_rx_gain(-5.0);
  EXPECT_DOUBLE_EQ(fe.rx_gain_db(), 0.0);
}

TEST(SbxFrontend, GainAppliedToWaveform) {
  SbxFrontend fe;
  fe.set_tx_gain(20.0);  // x10 amplitude
  EXPECT_NEAR(0.01f * fe.tx_amplitude(), 0.1f, 1e-5f);
}

}  // namespace
}  // namespace rjf::radio
