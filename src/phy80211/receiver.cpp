#include "phy80211/receiver.h"

#include <array>
#include <cmath>

#include "dsp/fft.h"
#include "dsp/lap_clock.h"
#include "phy80211/constellation.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/preamble.h"
#include "phy80211/scrambler.h"

namespace rjf::phy80211 {
namespace {

constexpr std::size_t kNominalLtsStart = 192;  // short(160) + GI2(32)
constexpr std::size_t kNominalDataStart = 320;

// Correlation magnitude of `x[offset..offset+64)` against the LTS.
double lts_metric(std::span<const dsp::cfloat> x, std::size_t offset,
                  const dsp::cvec& lts) {
  dsp::cfloat acc{};
  for (std::size_t k = 0; k < kLongSymbolLen; ++k)
    acc += x[offset + k] * std::conj(lts[k]);
  return std::abs(acc);
}

}  // namespace

const std::uint16_t* mother_scatter(Rate rate) {
  static const auto kTables = [] {
    std::array<std::vector<std::uint16_t>, 8> tables;
    for (const Rate r : all_rates()) {
      const auto& p = rate_params(r);
      // The keep index: punctured bit i lands in the i-th mother slot that
      // depuncture() fills rather than erases.
      const Bits marks =
          depuncture(Bits(p.n_cbps, 1), p.code_rate, 2 * p.n_dbps);
      std::vector<std::uint16_t> keep;
      for (std::size_t k = 0; k < marks.size(); ++k)
        if (marks[k] == 1) keep.push_back(static_cast<std::uint16_t>(k));
      const std::uint16_t* scatter = deinterleave_scatter(p.n_cbps, p.n_bpsc);
      auto& table = tables[static_cast<std::size_t>(r)];
      table.resize(p.n_cbps);
      for (std::size_t j = 0; j < p.n_cbps; ++j) table[j] = keep[scatter[j]];
    }
    return tables;
  }();
  return kTables[static_cast<std::size_t>(rate)].data();
}

RxResult Receiver::receive(std::span<const dsp::cfloat> capture,
                           RxStageNs* stages) const {
  RxResult result;
  dsp::LapClock clock(stages != nullptr);
  RxStageNs unused;
  RxStageNs& ns = stages != nullptr ? *stages : unused;
  if (capture.size() < kNominalDataStart + kSymbolLen + sync_search_)
    return result;

  // -- Fine timing: search for the first LTS copy around its nominal spot.
  static const dsp::cvec kLtsTime = long_training_symbol();
  const auto start_lo =
      static_cast<long>(kNominalLtsStart) - static_cast<long>(sync_search_);
  long best_offset = static_cast<long>(kNominalLtsStart);
  double best_metric = -1.0;
  for (long o = start_lo;
       o <= static_cast<long>(kNominalLtsStart + sync_search_); ++o) {
    if (o < 0) continue;
    const double m = lts_metric(capture, static_cast<std::size_t>(o), kLtsTime);
    if (m > best_metric) {
      best_metric = m;
      best_offset = o;
    }
  }
  // Require the correlation to clearly beat the average signal level.
  double capture_power = 0.0;
  for (std::size_t k = 0; k < kNominalDataStart; ++k)
    capture_power += std::norm(capture[k]);
  capture_power /= static_cast<double>(kNominalDataStart);
  if (capture_power <= 0.0 ||
      best_metric < 0.3 * kLongSymbolLen * std::sqrt(capture_power))
    return result;
  result.synchronized = true;

  const auto lts0 = static_cast<std::size_t>(best_offset);
  const std::size_t data_start = lts0 + 2 * kLongSymbolLen;
  const float gain = static_cast<float>(kFftSize / std::sqrt(52.0));

  // -- Channel estimate: average the two LTS copies, compare against L_k.
  dsp::cvec lts_avg(kFftSize);
  for (std::size_t k = 0; k < kFftSize; ++k)
    lts_avg[k] =
        (capture[lts0 + k] + capture[lts0 + kLongSymbolLen + k]) * 0.5f / gain;
  dsp::fft(lts_avg);
  const dsp::cvec lts_ref = lts_frequency_domain();
  dsp::cvec channel(kFftSize, dsp::cfloat{1.0f, 0.0f});
  for (std::size_t bin = 0; bin < kFftSize; ++bin)
    if (std::norm(lts_ref[bin]) > 0.5f) channel[bin] = lts_avg[bin] / lts_ref[bin];

  // One equaliser for the whole frame: SIGNAL and every DATA symbol go
  // through the same channel estimate, so the zero-forcing reciprocals
  // are computed once instead of per symbol.
  const SymbolDemodulator demod(channel);
  std::array<dsp::cfloat, kNumDataCarriers> data48;
  clock.lap(ns.sync);

  // -- SIGNAL symbol.
  if (capture.size() < data_start + kSymbolLen) return result;
  demod.run(capture.subspan(data_start, kSymbolLen), 0, data48.data());
  const Bits sig_bits_raw = demap_symbols(data48, Modulation::kBpsk);
  const Bits sig_deinter = deinterleave(sig_bits_raw, 48, 1);
  const Bits sig_decoded = decode_at_rate(sig_deinter, CodeRate::kHalf, 24);
  const auto signal = decode_signal(sig_decoded);
  if (!signal) return result;
  result.signal_valid = true;
  result.signal = signal;

  // -- DATA symbols.
  const auto& p = rate_params(signal->rate);
  const std::size_t n_sym = num_data_symbols(signal->rate, signal->length);
  const std::size_t needed = data_start + kSymbolLen * (1 + n_sym);
  if (capture.size() < needed) {
    result.signal_valid = false;  // truncated capture
    return result;
  }

  // Demap each symbol straight into its slots of one whole-frame
  // mother-code buffer. The interleaver works symbol by symbol and every
  // symbol's coded bits fill exactly its own 2*N_DBPS mother slots (the
  // static_assert in rates.cpp), so writing each demapped bit through
  // mother_scatter equals demap -> deinterleave -> depuncture; the slots
  // the puncturer dropped keep their prefilled erasure (2, or LLR 0).
  const std::size_t n_mother = 2 * n_sym * p.n_dbps;
  const std::size_t mother_per_sym = 2 * p.n_dbps;
  const std::uint16_t* scatter = mother_scatter(signal->rate);
  Bits scrambled;
  if (soft_) {
    std::vector<float> mother(n_mother, 0.0f);
    for (std::size_t s = 0; s < n_sym; ++s) {
      const std::size_t at = data_start + kSymbolLen * (1 + s);
      demod.run(capture.subspan(at, kSymbolLen), s + 1, data48.data());
      demap_soft_scatter(data48, p.modulation, 1.0f, scatter,
                         mother.data() + s * mother_per_sym);
    }
    clock.lap(ns.demod);
    scrambled = viterbi_decode_soft(mother);
  } else {
    Bits mother(n_mother, 2);
    for (std::size_t s = 0; s < n_sym; ++s) {
      const std::size_t at = data_start + kSymbolLen * (1 + s);
      demod.run(capture.subspan(at, kSymbolLen), s + 1, data48.data());
      demap_symbols_scatter(data48, p.modulation, scatter,
                            mother.data() + s * mother_per_sym);
    }
    clock.lap(ns.demod);
    scrambled = viterbi_decode(mother);
  }
  clock.lap(ns.decode);

  // -- Descramble: the 7 scrambler-init SERVICE bits were transmitted as
  // zeros, so the received values are the scrambler sequence itself. Step
  // the recovered state over the other 9 SERVICE bits; the PSDU then starts
  // on an octet boundary and descrambles a byte per table lookup.
  const std::size_t psdu_bits = static_cast<std::size_t>(signal->length) * 8;
  if (scrambled.size() < 16 + psdu_bits) return result;
  Scrambler descrambler(recover_scrambler_state(
      std::span<const std::uint8_t>(scrambled.data(), 7)));
  for (std::size_t k = 7; k < 16; ++k) (void)descrambler.next_bit();
  result.psdu = descrambler.process_packed(
      std::span<const std::uint8_t>(scrambled.data() + 16, psdu_bits));
  clock.lap(ns.descramble);
  return result;
}

}  // namespace rjf::phy80211
