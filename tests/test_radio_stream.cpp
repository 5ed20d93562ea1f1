// The radio boundary in one pass: UsrpN210::stream() quantises rx * gain
// straight into a buffer it reuses across calls, through the block ADC
// quantiser of the host's SIMD tier (dsp/simd/synth.h), and stream_fabric()
// applies the TX gain as it scans each chunk for bursts.
//
// Two differentials hold it to the two-pass path it replaced. Every host
// tier's quantiser must give the scalar tier's codes and clip flag and
// Adc::sample()'s, on hostile rails (signed zeros, subnormals, ±FLT_MAX,
// ±inf, NaN, exact half codes) at every length 0..300 and at 2^16 + 3,
// under 0 dB, 31.5 dB and random RX gains. And stream(rx) must equal a
// twin radio fed stream_fabric(Adc().convert(frontend().apply_rx(rx)))
// (with the fault hook's mutate_rx() in between when one is attached) in
// every TX bit, burst, counter and clip flag, over calls whose lengths
// shrink and grow so the reused buffers hold stale samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/fabric_units.h"
#include "dsp/noise.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/synth.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fpga/cross_correlator.h"
#include "radio/adc_dac.h"
#include "radio/frontend.h"
#include "radio/usrp_n210.h"
#include "tests/simd_tiers.h"

namespace rjf::radio {
namespace {

using dsp::simd::Isa;

constexpr std::uint64_t kSeed = 0xADC0'5EEDULL;

float rx_amplitude(double db) {
  SbxFrontend frontend;
  frontend.set_rx_gain(db);
  return frontend.rx_amplitude();
}

// Rails around full scale at `gain` (so some blocks clip and most do not),
// one in 13 replaced by a value from the hostile list.
dsp::cvec hostile_air(std::size_t n, unsigned bits, float gain,
                      dsp::Xoshiro256& rng) {
  const float levels = std::ldexp(1.0f, static_cast<int>(bits) - 1);
  const float inf = std::numeric_limits<float>::infinity();
  const float max = std::numeric_limits<float>::max();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float below_normal =
      std::nextafter(std::numeric_limits<float>::min(), 0.0f);
  const float specials[] = {0.0f,  -0.0f, tiny, -tiny, below_normal,
                            -below_normal, max, -max, inf, -inf,
                            std::numeric_limits<float>::quiet_NaN()};
  const auto rail = [&]() {
    if (rng.uniform_int(13) == 0) {
      if (rng.uniform_int(2) == 0)
        return specials[rng.uniform_int(std::size(specials))];
      // An exact half code at 0 dB, and near one at any other gain.
      const auto code = static_cast<float>(rng.uniform_int(
                            2 * static_cast<std::uint64_t>(levels) + 4)) -
                        levels - 2.0f;
      return (code + 0.5f) / levels / gain;
    }
    return static_cast<float>(2.1 * rng.uniform() - 1.05) / gain;
  };
  dsp::cvec air(n);
  for (dsp::cfloat& s : air) s = dsp::cfloat{rail(), rail()};
  return air;
}

// A vector tier the host runs must have a quantiser of its own: one that
// fell through to the scalar tier would pass the differential below by
// comparing the scalar tier with itself.
TEST(RadioStream, VectorTiersRunTheirOwnQuantiser) {
  for (const Isa tier : test::host_tiers()) {
    if (tier == Isa::kScalar) continue;
    EXPECT_NE(dsp::simd::quantise_iq16_kernel(tier),
              dsp::simd::quantise_iq16_kernel(Isa::kScalar))
        << dsp::simd::isa_name(tier);
  }
  if (dsp::simd::active_isa() == Isa::kAvx512) {
    EXPECT_NE(dsp::simd::quantise_iq16_kernel(Isa::kAvx512),
              dsp::simd::quantise_iq16_kernel(Isa::kAvx2));
  }
}

TEST(RadioStream, EveryTierQuantisesLikeScalarAndSample) {
  std::vector<std::size_t> lengths(301);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back((std::size_t{1} << 16) + 3);

  const std::vector<Isa> host = test::host_tiers();
  dsp::Xoshiro256 gains_rng(dsp::derive_seed(kSeed, 0));
  for (const unsigned bits : {14u, 16u, 2u}) {
    const float gains[] = {rx_amplitude(0.0), rx_amplitude(31.5),
                           rx_amplitude(31.5 * gains_rng.uniform())};
    for (std::size_t g = 0; g < std::size(gains); ++g) {
      const float gain = gains[g];
      dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 1 + bits * 8 + g));
      // One buffer, read at a random offset per length so blocks start at
      // every alignment.
      const dsp::cvec air = hostile_air(lengths.back() + 64, bits, gain, rng);
      const Adc sample_adc(bits);
      const Adc scalar(bits, Isa::kScalar);
      std::vector<Adc> tiers;
      for (const Isa tier : host) tiers.emplace_back(bits, tier);

      dsp::iqvec want(air.size());
      dsp::iqvec got(air.size());
      bool clipped_some = false;
      bool clean_some = false;
      for (const std::size_t n : lengths) {
        const auto in =
            std::span(air).subspan(rng.uniform_int(air.size() - n + 1), n);
        const auto want_codes = std::span(want).first(n);
        scalar.convert(in, gain, want_codes);

        bool any_clip = false;
        for (std::size_t k = 0; k < n; ++k) {
          sample_adc.clear_clip();
          const dsp::IQ16 one = sample_adc.sample(in[k] * gain);
          ASSERT_EQ(want_codes[k], one)
              << "scalar tier, bits " << bits << " gain " << gain << " n "
              << n << " sample " << k << " x " << in[k].real() << ", "
              << in[k].imag();
          any_clip = any_clip || sample_adc.clipped();
        }
        ASSERT_EQ(scalar.clipped(), any_clip)
            << "scalar tier, bits " << bits << " gain " << gain << " n " << n;
        (any_clip ? clipped_some : clean_some) = true;

        for (std::size_t t = 0; t < tiers.size(); ++t) {
          const char* name = dsp::simd::isa_name(host[t]);
          const auto got_codes = std::span(got).first(n);
          tiers[t].convert(in, gain, got_codes);
          ASSERT_EQ(tiers[t].clipped(), any_clip)
              << name << ", bits " << bits << " gain " << gain << " n " << n;
          for (std::size_t k = 0; k < n; ++k)
            ASSERT_EQ(got_codes[k], want_codes[k])
                << name << ", bits " << bits << " gain " << gain << " n " << n
                << " sample " << k;
        }
      }
      // Both clip-flag outcomes came up, so a flag stuck either way fails.
      EXPECT_TRUE(clipped_some) << "bits " << bits << " gain " << gain;
      EXPECT_TRUE(clean_some) << "bits " << bits << " gain " << gain;
    }
  }
}

TEST(RadioStream, ConvertRefusesAnOutputOfAnotherSize) {
  const Adc adc;
  const dsp::cvec in(33, dsp::cfloat{0.25f, -0.25f});
  dsp::iqvec out(in.size() + 1, dsp::IQ16{7, 7});
  EXPECT_THROW(adc.convert(in, 1.0f, out), std::invalid_argument);
  EXPECT_THROW(adc.convert(in, 1.0f, std::span(out).first(in.size() - 1)),
               std::invalid_argument);
  for (const dsp::IQ16 s : out) EXPECT_EQ(s, (dsp::IQ16{7, 7}));
}

// ---------------------------------------------------------------------------
// stream() against the two-pass path on a twin radio.

dsp::cvec random_code(std::uint64_t seed) {
  dsp::cvec code(fpga::kCorrelatorLength);
  dsp::Xoshiro256 rng(seed);
  for (auto& s : code)
    s = dsp::cfloat{rng.uniform() < 0.5 ? -0.5f : 0.5f,
                    rng.uniform() < 0.5 ? -0.5f : 0.5f};
  return code;
}

// Correlator on `code`, jamming white noise for 48 samples on each
// detection, 6 dB of RX gain (the 0.5 code rails land at full scale and
// clip) and 7.5 dB of TX gain.
void program(UsrpN210& radio, const dsp::cvec& code) {
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
  radio.write_register_now(fpga::Reg::kJamDuration, 48);
  radio.frontend().set_rx_gain(6.0);
  radio.frontend().set_tx_gain(7.5);
}

// Low noise with `code` every ~2000 samples, scaled by `scale`.
dsp::cvec air_with_codes(std::size_t n, const dsp::cvec& code, float scale,
                         std::uint64_t seed) {
  dsp::NoiseSource noise(1e-4, seed);
  dsp::cvec air = noise.block(n);
  for (std::size_t at = 300; at + code.size() <= n; at += 1999)
    for (std::size_t k = 0; k < code.size(); ++k)
      air[at + k] += code[k] * scale;
  return air;
}

void expect_same(const UsrpN210::StreamResult& got,
                 const UsrpN210::StreamResult& want, std::size_t call) {
  ASSERT_EQ(got.tx.size(), want.tx.size()) << "call " << call;
  EXPECT_EQ(std::memcmp(got.tx.data(), want.tx.data(),
                        got.tx.size() * sizeof(dsp::cfloat)),
            0)
      << "call " << call;
  ASSERT_EQ(got.bursts.size(), want.bursts.size()) << "call " << call;
  for (std::size_t b = 0; b < got.bursts.size(); ++b) {
    EXPECT_EQ(got.bursts[b].start_sample, want.bursts[b].start_sample)
        << "call " << call << " burst " << b;
    EXPECT_EQ(got.bursts[b].length, want.bursts[b].length)
        << "call " << call << " burst " << b;
  }
  EXPECT_EQ(got.jam_triggers, want.jam_triggers) << "call " << call;
  EXPECT_EQ(got.xcorr_detections, want.xcorr_detections) << "call " << call;
  EXPECT_EQ(got.energy_high_detections, want.energy_high_detections)
      << "call " << call;
  EXPECT_EQ(got.energy_low_detections, want.energy_low_detections)
      << "call " << call;
  EXPECT_EQ(got.last_trigger_vita, want.last_trigger_vita) << "call " << call;
  EXPECT_EQ(got.overflow_gaps, want.overflow_gaps) << "call " << call;
  EXPECT_EQ(got.samples_lost, want.samples_lost) << "call " << call;
  EXPECT_EQ(got.adc_clipped, want.adc_clipped) << "call " << call;
}

// Streams calls of 65536, 7 and 30000 samples (full-scale codes first,
// then quieter ones, so the clip flag must fall again) through `radio` and
// the two-pass path through `twin`, with a settings-bus write in flight
// across the last call. With no `plan` they run unhooked; with one, each
// radio gets its own injector over it.
void run_against_twin(const fault::FaultPlan* plan) {
  const dsp::cvec code = random_code(0xC0DE);
  UsrpN210 radio;
  UsrpN210 twin;
  program(radio, code);
  program(twin, code);
  std::optional<fault::FaultInjector> radio_faults;
  std::optional<fault::FaultInjector> twin_faults;
  if (plan != nullptr) {
    radio_faults.emplace(*plan);
    twin_faults.emplace(*plan);
    radio.attach_fault_hooks(&*radio_faults, &*radio_faults);
    twin.attach_fault_hooks(&*twin_faults, &*twin_faults);
  }

  const std::size_t lengths[] = {65536, 7, 30000};
  const float scales[] = {1.0f, 0.5f, 0.6f};
  bool jammed = false;
  bool clipped = false;
  bool clean = false;
  for (std::size_t call = 0; call < std::size(lengths); ++call) {
    const dsp::cvec rx = air_with_codes(lengths[call], code, scales[call],
                                        dsp::derive_seed(kSeed, 100 + call));
    if (call == 2) {
      radio.write_register(fpga::Reg::kJamDuration, 96);
      twin.write_register(fpga::Reg::kJamDuration, 96);
    }
    const UsrpN210::StreamResult got = radio.stream(rx);

    dsp::cvec gained = twin.frontend().apply_rx(rx);
    if (twin_faults) twin_faults->mutate_rx(gained, twin.rx_cursor());
    const Adc adc;
    UsrpN210::StreamResult want = twin.stream_fabric(adc.convert(gained));
    want.adc_clipped = adc.clipped();

    expect_same(got, want, call);
    jammed = jammed || !got.bursts.empty();
    (got.adc_clipped ? clipped : clean) = true;
  }
  EXPECT_EQ(radio.now_ticks(), twin.now_ticks());
  // The air exercised what the fold and the reused buffers change.
  EXPECT_TRUE(jammed);
  EXPECT_TRUE(clipped);
  EXPECT_TRUE(clean);
}

TEST(RadioStream, StreamMatchesTwoPassTwin) { run_against_twin(nullptr); }

TEST(RadioStream, StreamWithFaultHookMatchesTwoPassTwin) {
  fault::FaultPlanConfig cfg;
  cfg.seed = dsp::derive_seed(kSeed, 200);
  cfg.horizon_samples = 65536 + 7 + 30000;
  cfg.clip_rate = 2e-4;
  cfg.dc_rate = 2e-4;
  cfg.drop_rate = 1e-4;
  cfg.overflow_rate = 5e-5;
  cfg.gain_glitch_rate = 2e-4;
  cfg.tune_glitch_rate = 2e-4;
  cfg.bus_stall_rate = 0.5;
  const fault::FaultPlan plan = fault::FaultPlan::generate(cfg);
  ASSERT_GT(plan.count(fault::FaultKind::kAdcClip), 0u);
  ASSERT_GT(plan.count(fault::FaultKind::kOverflowRun), 0u);
  run_against_twin(&plan);
}

}  // namespace
}  // namespace rjf::radio
