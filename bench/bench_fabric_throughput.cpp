// Simulation-performance microbenchmarks (google-benchmark): how fast the
// cycle-accurate fabric and radio layers run on the host. These bound how
// much paper-scale experimentation (10000-frame characterisations,
// 60-second iperf runs) costs in wall-clock time. PHY pipeline numbers
// (FFT, WiFi TX/RX, Viterbi) live in bench_phy / BENCH_phy.json —
// each bench binary owns its own metrics, no duplicates.
//
// Besides the console table, the run emits a machine-readable summary to
// BENCH_fabric.json (override the path with RJF_BENCH_JSON): samples/s per
// stage (the median over --benchmark_repetitions, with its coefficient of
// variation when there is more than one) plus the bit-parallel and
// block-processing speedup ratios over the scalar / per-tick reference
// paths, the batched correlator's and energy detector's speedups over
// step(), the ADC quantiser's over its scalar tier, the bulk WGN jam
// stretch's over its per-sample loop, and the SIMD tier that produced
// them, so the perf trajectory is trackable across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fabric_units.h"
#include "core/jammer_config.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/simd/dispatch.h"
#include "fpga/dsp_core.h"
#include "obs/telemetry.h"
#include "radio/usrp_n210.h"

using namespace rjf;

namespace {

void program_detection_core(fpga::DspCore& core) {
  fpga::program_template(core.registers(), core::wifi_short_preamble_template());
  core.registers().write(fpga::Reg::kXcorrThreshold, 1u << 20);
  core.registers().set_trigger_stages(fpga::kEventXcorr, 0, 0);
  core.apply_registers();
}

void BM_DspCoreTick(benchmark::State& state) {
  fpga::DspCore core;
  program_detection_core(core);
  dsp::NoiseSource noise(0.01, 1);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core.tick(samples[k % samples.size()]));
    for (int c = 1; c < 4; ++c) benchmark::DoNotOptimize(core.tick(std::nullopt));
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["baseband_samples_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DspCoreTick);

void BM_DspCoreRunBlock(benchmark::State& state) {
  fpga::DspCore core;
  program_detection_core(core);
  dsp::NoiseSource noise(0.01, 1);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::vector<fpga::SamplePeriodOutput> out(samples.size());
  for (auto _ : state) {
    core.run_block(samples, out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
  state.counters["baseband_samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * samples.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DspCoreRunBlock);

// The preset personality (xcorr trigger, white noise, JammerConfig's
// 2500-sample default uptime) on air where the jammer is mid-burst in most
// sample periods, as in the detection campaigns: the template's own sign
// pattern recurs every 1024 samples on a noise floor, so each burst is
// re-triggered by the first match after it ends and ~80% of periods are on
// the air (the on_air_frac counter). Each pass starts from a reset core,
// so every pass sees the same bursts. BM_DspCoreRunBlock is the idle-air
// case.
void BM_DspCoreRunBlockJamming(benchmark::State& state) {
  fpga::DspCore core;
  const auto tpl = core::wifi_short_preamble_template();
  auto& regs = core.registers();
  fpga::program_template(regs, tpl);
  regs.set_trigger_stages(fpga::kEventXcorr, 0, 0);
  regs.set_jammer(fpga::JamWaveform::kWhiteNoise, true, 0);
  regs.write(fpga::Reg::kJamDuration, core::JammerConfig{}.jam_uptime_samples);
  core.apply_registers();
  regs.write(fpga::Reg::kXcorrThreshold, core.correlator().max_metric() / 2);
  core.apply_registers();

  dsp::NoiseSource noise(0.01, 1);
  dsp::iqvec samples = dsp::to_iq16(noise.block(16384));
  const auto rail = [](int coef) {
    return static_cast<std::int16_t>(coef < 0 ? -8000 : 8000);
  };
  for (std::size_t at = 0; at < samples.size(); at += 1024)
    for (std::size_t k = 0; k < fpga::kCorrelatorLength; ++k)
      samples[at + k] = dsp::IQ16{rail(tpl.coef_i[k]), rail(tpl.coef_q[k])};

  std::vector<fpga::SamplePeriodOutput> out(samples.size());
  for (auto _ : state) {
    core.reset();
    core.run_block(samples, out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
  // The share of on-air periods in a pass.
  std::size_t on_air = 0;
  for (const fpga::SamplePeriodOutput& p : out) on_air += p.rf_active ? 1 : 0;
  state.counters["on_air_frac"] =
      static_cast<double>(on_air) / static_cast<double>(out.size());
}
BENCHMARK(BM_DspCoreRunBlockJamming);

// A WGN jam stretch as run_block runs it, 256 samples (one sub-block) per
// call: JammerController::jam_periods(), which records the rx in one block
// and fills the records through the sliced LFSR jump, and the per-sample
// record_rx() + jam_period() loop it replaced (the reference of
// jam_wgn_speedup).
template <typename Stretch>
void jam_stretches(benchmark::State& state, Stretch stretch) {
  fpga::JammerController jammer;
  jammer.configure(fpga::JamWaveform::kWhiteNoise, true, 0, 0xFFFFFFFFu);
  dsp::NoiseSource noise(0.01, 8);
  const dsp::iqvec rx = dsp::to_iq16(noise.block(fpga::kMetricBlock));
  std::vector<fpga::SamplePeriodOutput> out(rx.size());
  for (auto _ : state) {
    if (jammer.mid_burst_periods() < rx.size()) {
      jammer.reset();
      (void)jammer.clock(true);
      while (!jammer.mid_burst()) (void)jammer.clock(false);
    }
    stretch(jammer, rx, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rx.size()));
}

void BM_JamPeriods(benchmark::State& state) {
  jam_stretches(state, [](fpga::JammerController& jammer,
                          const dsp::iqvec& rx,
                          std::vector<fpga::SamplePeriodOutput>& out) {
    jammer.jam_periods(rx, out);
  });
}
BENCHMARK(BM_JamPeriods);

void BM_JamPeriodReference(benchmark::State& state) {
  jam_stretches(state, [](fpga::JammerController& jammer,
                          const dsp::iqvec& rx,
                          std::vector<fpga::SamplePeriodOutput>& out) {
    for (std::size_t n = 0; n < rx.size(); ++n) {
      jammer.record_rx(rx[n]);
      out[n] = fpga::SamplePeriodOutput{jammer.jam_period(), true, true};
    }
  });
}
BENCHMARK(BM_JamPeriodReference);

// Same block pass with the full telemetry bundle attached: the core keeps
// its straight-line block loop and appends event-ring records behind the
// rare-event branches plus 1-in-N sampled strobe snapshots, drained into
// the recorder/metrics/probe at block boundaries. The ratio against
// BM_DspCoreRunBlock is the price of turning tracing ON — the CI gate
// holds it at `trace_attached_slowdown` <= 1.5 — while the no-ring path
// itself must stay fast (the gate also watches BM_DspCoreRunBlock).
void BM_DspCoreRunBlockTraced(benchmark::State& state) {
  fpga::DspCore core;
  program_detection_core(core);
  obs::Telemetry telemetry;
  core.set_ring(&telemetry.ring());
  dsp::NoiseSource noise(0.01, 1);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::vector<fpga::SamplePeriodOutput> out(samples.size());
  for (auto _ : state) {
    core.run_block(samples, out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
  state.counters["baseband_samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * samples.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DspCoreRunBlockTraced);

// Both correlator benches sweep a whole buffer per iteration so the
// measured per-item cost is the kernel, not the bench loop bookkeeping.
void BM_CrossCorrelatorStep(benchmark::State& state) {
  fpga::CrossCorrelator corr;
  const auto tpl = core::wifi_long_preamble_template();
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  dsp::NoiseSource noise(0.01, 2);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const dsp::IQ16 s : samples) acc += corr.step(s).metric;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_CrossCorrelatorStep);

// The same buffer through the block entry point run_block uses: the
// batched kernel of this host's SIMD tier, or the step() loop where the
// tier has none (xcorr_block_speedup then reads ~1).
void BM_CrossCorrelatorBlock(benchmark::State& state) {
  fpga::CrossCorrelator corr;
  const auto tpl = core::wifi_long_preamble_template();
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  dsp::NoiseSource noise(0.01, 2);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::vector<std::uint32_t> metric(fpga::kMetricBlock);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t m = 0; m < samples.size(); m += metric.size()) {
      corr.metrics(std::span(samples).subspan(m, metric.size()), metric);
      for (const std::uint32_t v : metric) acc += v;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_CrossCorrelatorBlock);

// The energy detector per sample and through the block entry point
// run_block uses (the batched kernel of this host's SIMD tier, or the
// step() loop where the tier has none: energy_block_speedup then reads
// ~1). A 6 dB threshold pair on air whose level steps every 1000 samples.
dsp::iqvec stepped_air(std::size_t n) {
  dsp::NoiseSource noise(0.01, 3);
  dsp::iqvec air = dsp::to_iq16(noise.block(n));
  for (std::size_t k = 0; k < n; ++k)
    if ((k / 1000) % 2 == 1) air[k] = {static_cast<std::int16_t>(air[k].i * 4),
                                       static_cast<std::int16_t>(air[k].q * 4)};
  return air;
}

void program_energy(fpga::EnergyDifferentiator& det) {
  const std::uint32_t ratio = core::energy_threshold_q88_from_db(6.0);
  det.set_thresholds(ratio, ratio, 1000);
}

void BM_EnergyStep(benchmark::State& state) {
  fpga::EnergyDifferentiator det;
  program_energy(det);
  const dsp::iqvec samples = stepped_air(4096);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const dsp::IQ16 s : samples) {
      const auto out = det.step(s);
      acc += out.energy_sum + (out.trigger_high ? 1 : 0) +
             (out.trigger_low ? 2 : 0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_EnergyStep);

void BM_EnergyBlock(benchmark::State& state) {
  fpga::EnergyDifferentiator det;
  program_energy(det);
  const dsp::iqvec samples = stepped_air(4096);
  fpga::EnergyBlock out;
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t m = 0; m < samples.size(); m += fpga::kMetricBlock) {
      det.block(std::span(samples).subspan(m, fpga::kMetricBlock), out);
      for (std::size_t k = 0; k < fpga::kMetricBlock; ++k)
        acc += out.energy_sum(k);
      for (std::size_t w = 0; w < out.high.size(); ++w)
        acc += out.high[w] ^ out.low[w];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_EnergyBlock);

void BM_CrossCorrelatorStepReference(benchmark::State& state) {
  fpga::CrossCorrelator corr;
  const auto tpl = core::wifi_long_preamble_template();
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  dsp::NoiseSource noise(0.01, 2);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const dsp::IQ16 s : samples) acc += corr.step_reference(s).metric;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_CrossCorrelatorStepReference);

void BM_UsrpStream(benchmark::State& state) {
  radio::UsrpN210 radio;
  fpga::program_template(radio.core().registers(),
                         core::wifi_short_preamble_template());
  radio.write_register_now(fpga::Reg::kXcorrThreshold, 1u << 20);
  dsp::NoiseSource noise(0.001, 6);
  const dsp::cvec rx = noise.block(65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(radio.stream(rx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rx.size()));
}
BENCHMARK(BM_UsrpStream);

// The receive gain and ADC as stream() runs them: one pass over a 1 ms
// block at 25 MSPS into a reused buffer, through the quantiser of this
// host's SIMD tier, and through the scalar tier (the same loop built for
// the baseline target) as the reference of adc_convert_speedup.
void adc_convert(benchmark::State& state, dsp::simd::Isa isa) {
  const radio::Adc adc(14, isa);
  radio::SbxFrontend frontend;
  frontend.set_rx_gain(10.0);
  dsp::NoiseSource noise(0.01, 7);
  const dsp::cvec rx = noise.block(25000);
  dsp::iqvec iq(rx.size());
  for (auto _ : state) {
    adc.convert(rx, frontend.rx_amplitude(), iq);
    benchmark::DoNotOptimize(iq.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rx.size()));
}

void BM_AdcConvert(benchmark::State& state) {
  adc_convert(state, dsp::simd::active_isa());
}
BENCHMARK(BM_AdcConvert);

void BM_AdcConvertReference(benchmark::State& state) {
  adc_convert(state, dsp::simd::Isa::kScalar);
}
BENCHMARK(BM_AdcConvertReference);

void BM_Resample20to25(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 4);
  const dsp::cvec in = noise.block(4960);  // one 54 Mb/s frame's worth
  const dsp::Resampler rs(20e6, 25e6);
  for (auto _ : state) benchmark::DoNotOptimize(rs.resample(in));
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_Resample20to25);

// The wifi_dsss plan-build case: one 310-byte 1 Mb/s 802.11b frame's worth
// (192 us PLCP + 2480 us PSDU at 11 Mchip/s), rendered to the fabric rate.
void BM_Resample11to25(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 5);
  const dsp::cvec in = noise.block(29392);
  const dsp::Resampler rs(11e6, 25e6);
  for (auto _ : state) benchmark::DoNotOptimize(rs.resample(in));
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_Resample11to25);

// Console reporter that also collects each benchmark's item rate so main()
// can emit the BENCH_fabric.json summary. With --benchmark_repetitions=N it
// keeps every repetition's rate; the summary then reports their median and
// spread.
class RateCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end())
        rates_[run.benchmark_name()].push_back(static_cast<double>(it->second));
    }
  }

  /// Median rate over the repetitions, 0 when the benchmark did not run.
  [[nodiscard]] double rate(const std::string& name) const {
    const auto it = rates_.find(name);
    return it == rates_.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& rates()
      const {
    return rates_;
  }

  static double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  }

  /// Coefficient of variation (sample standard deviation over mean).
  static double cv(const std::vector<double>& v) {
    if (v.size() < 2) return 0.0;
    double mean = 0.0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double ss = 0.0;
    for (const double x : v) ss += (x - mean) * (x - mean);
    return std::sqrt(ss / static_cast<double>(v.size() - 1)) / mean;
  }

 private:
  std::map<std::string, std::vector<double>> rates_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  RateCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  rjf::bench::JsonWriter json;
  json.set("bench", std::string("fabric_throughput"));
  std::size_t repetitions = 0;
  for (const auto& [name, rates] : collector.rates()) {
    json.set(name + "_items_per_s", RateCollector::median(rates));
    if (rates.size() > 1)
      json.set(name + "_items_per_s_cv", RateCollector::cv(rates));
    repetitions = std::max(repetitions, rates.size());
  }
  json.set("repetitions", std::uint64_t{repetitions});

  json.set("simd_isa",
           std::string(dsp::simd::isa_name(dsp::simd::active_isa())));
  const double ref = collector.rate("BM_CrossCorrelatorStepReference");
  const double fast = collector.rate("BM_CrossCorrelatorStep");
  if (ref > 0.0 && fast > 0.0)
    json.set("xcorr_bitparallel_speedup", fast / ref);
  const double batched = collector.rate("BM_CrossCorrelatorBlock");
  if (fast > 0.0 && batched > 0.0)
    json.set("xcorr_block_speedup", batched / fast);
  const double energy_step = collector.rate("BM_EnergyStep");
  const double energy_block = collector.rate("BM_EnergyBlock");
  if (energy_step > 0.0 && energy_block > 0.0)
    json.set("energy_block_speedup", energy_block / energy_step);
  const double adc_ref = collector.rate("BM_AdcConvertReference");
  const double adc_fast = collector.rate("BM_AdcConvert");
  if (adc_ref > 0.0 && adc_fast > 0.0)
    json.set("adc_convert_speedup", adc_fast / adc_ref);
  const double jam_ref = collector.rate("BM_JamPeriodReference");
  const double jam_bulk = collector.rate("BM_JamPeriods");
  if (jam_ref > 0.0 && jam_bulk > 0.0)
    json.set("jam_wgn_speedup", jam_bulk / jam_ref);
  const double tick = collector.rate("BM_DspCoreTick");
  const double block = collector.rate("BM_DspCoreRunBlock");
  if (tick > 0.0 && block > 0.0)
    json.set("dsp_core_block_speedup", block / tick);
  const double traced = collector.rate("BM_DspCoreRunBlockTraced");
  if (traced > 0.0 && block > 0.0)
    json.set("trace_attached_slowdown", block / traced);

  bench::write_json(json, "BENCH_fabric.json");
  return 0;
}
