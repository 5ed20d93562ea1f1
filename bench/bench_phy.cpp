// PHY hot-path microbenchmarks (google-benchmark): the SIMD DSP layer's
// headline numbers.  BM_WifiReceive54 and BM_Fft1024 are the two gated
// rates — CI compares a fresh run against the committed BENCH_phy.json
// floors; BM_WifiReceive6 times the same frame at 6 Mb/s — and the Viterbi, noise and CFO mix pairs report the
// kernel-vs-reference speedup the dispatcher is buying on this host.
//
// Emits BENCH_phy.json (override with RJF_BENCH_JSON) with items/s per
// benchmark, the SIMD/scalar speedup ratios, and which ISA the dispatcher
// selected, so scalar-only CI runs are distinguishable in the artifacts.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <numbers>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dsp/fft.h"
#include "dsp/noise.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/synth.h"
#include "phy80211/convolutional.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"

using namespace rjf;

namespace {

// Same 1534-byte frame as bench_fabric_throughput's BM_WifiReceive54, so
// the two files' numbers stay directly comparable.
void wifi_receive(benchmark::State& state, phy80211::Rate rate) {
  const std::vector<std::uint8_t> psdu(1534, 0x42);
  phy80211::Transmitter tx({rate, 0x5D});
  dsp::cvec wave = tx.transmit(psdu);
  dsp::NoiseSource noise(1e-4, 3);
  noise.add_to(wave);
  phy80211::Receiver rx;
  for (auto _ : state) benchmark::DoNotOptimize(rx.receive(wave));
  state.SetItemsProcessed(state.iterations());
}

void BM_WifiReceive54(benchmark::State& state) {
  wifi_receive(state, phy80211::Rate::kMbps54);
}
BENCHMARK(BM_WifiReceive54);

// The longest decode of that frame (513 symbols, 12k Viterbi steps), at
// the rate ARF falls back to under jamming.
void BM_WifiReceive6(benchmark::State& state) {
  wifi_receive(state, phy80211::Rate::kMbps6);
}
BENCHMARK(BM_WifiReceive6);

void BM_WifiTransmit54(benchmark::State& state) {
  const std::vector<std::uint8_t> psdu(1534, 0x42);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  for (auto _ : state) benchmark::DoNotOptimize(tx.transmit(psdu));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WifiTransmit54);

void BM_Fft64(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 5);
  dsp::cvec buf = noise.block(64);
  for (auto _ : state) {
    dsp::fft(buf);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fft64);

void BM_Fft1024(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 5);
  dsp::cvec buf = noise.block(1024);
  for (auto _ : state) {
    dsp::fft(buf);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fft1024);

// One 54 Mb/s frame's worth of mother-rate symbols (rate 3/4 depunctured:
// every third pair carries an erasure), decoded hard and soft.  Items are
// decoded information bits.
phy80211::Bits viterbi_bench_input() {
  dsp::Xoshiro256 rng(17);
  phy80211::Bits info(12288);
  for (auto& b : info) b = rng.uniform() < 0.5 ? 0 : 1;
  for (int k = 0; k < 6; ++k) info.push_back(0);
  const phy80211::Bits punctured =
      phy80211::encode_at_rate(info, phy80211::CodeRate::kThreeQuarters);
  return phy80211::depuncture(punctured, phy80211::CodeRate::kThreeQuarters,
                              info.size() * 2);
}

std::vector<float> viterbi_soft_bench_input() {
  const phy80211::Bits mother = viterbi_bench_input();
  std::vector<float> llrs(mother.size());
  for (std::size_t k = 0; k < mother.size(); ++k)
    llrs[k] = mother[k] == 2 ? 0.0f : (mother[k] ? 3.0f : -3.0f);
  return llrs;
}

void BM_ViterbiHard(benchmark::State& state) {
  const phy80211::Bits mother = viterbi_bench_input();
  for (auto _ : state)
    benchmark::DoNotOptimize(phy80211::viterbi_decode(mother));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mother.size() / 2));
}
BENCHMARK(BM_ViterbiHard);

void BM_ViterbiHardReference(benchmark::State& state) {
  const phy80211::Bits mother = viterbi_bench_input();
  for (auto _ : state)
    benchmark::DoNotOptimize(phy80211::viterbi_decode_reference(mother));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mother.size() / 2));
}
BENCHMARK(BM_ViterbiHardReference);

void BM_ViterbiSoft(benchmark::State& state) {
  const std::vector<float> llrs = viterbi_soft_bench_input();
  for (auto _ : state)
    benchmark::DoNotOptimize(phy80211::viterbi_decode_soft(llrs));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(llrs.size() / 2));
}
BENCHMARK(BM_ViterbiSoft);

void BM_ViterbiSoftReference(benchmark::State& state) {
  const std::vector<float> llrs = viterbi_soft_bench_input();
  for (auto _ : state)
    benchmark::DoNotOptimize(phy80211::viterbi_decode_soft_reference(llrs));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(llrs.size() / 2));
}
BENCHMARK(BM_ViterbiSoftReference);

// Capture synthesis, one 1 Mb/s DSSS capture's worth of samples: the
// noise block kernel of the active tier against the scalar tier's, and the
// CFO mix against its std::complex reference loop. Items are samples.
constexpr std::size_t kCaptureSamples = 65536;

void noise_fill(benchmark::State& state, dsp::simd::Isa isa) {
  dsp::NoiseSource noise(0.01, 11, isa);
  dsp::cvec buf(kCaptureSamples);
  for (auto _ : state) {
    noise.fill(buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}

void BM_NoiseFill(benchmark::State& state) {
  noise_fill(state, dsp::simd::active_isa());
}
BENCHMARK(BM_NoiseFill);

void BM_NoiseFillReference(benchmark::State& state) {
  noise_fill(state, dsp::simd::Isa::kScalar);
}
BENCHMARK(BM_NoiseFillReference);

template <bool kReference>
void cfo_mix(benchmark::State& state) {
  const dsp::cvec frame = dsp::make_wgn(kCaptureSamples, 1.0, 12);
  dsp::cvec capture = dsp::make_wgn(kCaptureSamples, 0.01, 13);
  const double w = 2.0 * std::numbers::pi * 2345.0 / 25e6;
  for (auto _ : state) {
    if constexpr (kReference)
      dsp::simd::cfo_mix_reference(capture, frame, w);
    else
      dsp::simd::cfo_mix(capture, frame, w);
    benchmark::DoNotOptimize(capture.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}

void BM_CfoMix(benchmark::State& state) { cfo_mix<false>(state); }
BENCHMARK(BM_CfoMix);

void BM_CfoMixReference(benchmark::State& state) { cfo_mix<true>(state); }
BENCHMARK(BM_CfoMixReference);

class RateCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end())
        rates_[run.benchmark_name()] = static_cast<double>(it->second);
    }
  }

  [[nodiscard]] double rate(const std::string& name) const {
    const auto it = rates_.find(name);
    return it == rates_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& rates() const {
    return rates_;
  }

 private:
  std::map<std::string, double> rates_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  std::printf("simd dispatch: %s (compiled up to %s)\n",
              dsp::simd::isa_name(dsp::simd::active_isa()),
              dsp::simd::isa_name(dsp::simd::compiled_isa()));

  RateCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  rjf::bench::JsonWriter json;
  json.set("bench", std::string("phy_hot_path"));
  json.set("simd_isa", std::string(dsp::simd::isa_name(dsp::simd::active_isa())));
  for (const auto& [name, rate] : collector.rates())
    json.set(name + "_items_per_s", rate);

  const auto ratio = [&](const char* fast, const char* ref) {
    const double f = collector.rate(fast);
    const double r = collector.rate(ref);
    return (f > 0.0 && r > 0.0) ? f / r : 0.0;
  };
  if (const double s = ratio("BM_ViterbiHard", "BM_ViterbiHardReference"))
    json.set("viterbi_hard_speedup", s);
  if (const double s = ratio("BM_ViterbiSoft", "BM_ViterbiSoftReference"))
    json.set("viterbi_soft_speedup", s);
  if (const double s = ratio("BM_NoiseFill", "BM_NoiseFillReference"))
    json.set("noise_fill_speedup", s);
  if (const double s = ratio("BM_CfoMix", "BM_CfoMixReference"))
    json.set("cfo_mix_speedup", s);

  bench::write_json(json, "BENCH_phy.json");
  return 0;
}
