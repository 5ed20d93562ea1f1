// The byte-wide DATA bit path of the 802.11a/g receiver against the
// bit-serial references it replaced (DESIGN.md section 12, "Whole-symbol
// demod"): demap -> deinterleave -> depuncture for the mother-slot demap,
// Scrambler::process + bytes_from_bits for the byte descrambler, and a
// test-side receiver built from those references for Receiver::receive.
#include "phy80211/receiver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "dsp/fft.h"
#include "dsp/noise.h"
#include "dsp/rng.h"
#include "phy80211/constellation.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/preamble.h"
#include "phy80211/scrambler.h"
#include "phy80211/signal_field.h"
#include "phy80211/transmitter.h"

namespace rjf::phy80211 {
namespace {

constexpr std::uint64_t kSeed = 0x5C2A'B17E'0026'0001ULL;

// Random equalised symbols with the demappers' hard cases mixed in: signed
// zeros, values far past the outer levels, infinities and NaN.
dsp::cvec hostile_symbols(dsp::Xoshiro256& rng, std::size_t n) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, 1e30f, -1e30f, kInf, -kInf, kNan};
  const auto part = [&](float gaussian) {
    if (rng.uniform() < 0.25)
      return specials[rng.uniform_int(std::size(specials))];
    return gaussian;
  };
  dsp::cvec symbols(n);
  for (auto& s : symbols) {
    const dsp::cfloat g = rng.complex_gaussian();
    s = {part(g.real()), part(g.imag())};
  }
  return symbols;
}

// Equal, NaN payloads included.
void expect_same_bits(const std::vector<float>& a, const std::vector<float>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t k = 0; k < a.size(); ++k)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[k]),
              std::bit_cast<std::uint32_t>(b[k]))
        << what << " at " << k;
}

TEST(RxBitPath, EverySymbolFillsExactlyItsMotherSlots) {
  for (const Rate rate : all_rates()) {
    const auto& p = rate_params(rate);
    SCOPED_TRACE(p.mbps);
    // One symbol's coded bits all land in its own 2*N_DBPS mother slots.
    const std::size_t slots = 2 * p.n_dbps;
    const Bits mother = depuncture(Bits(p.n_cbps, 1), p.code_rate, slots);
    ASSERT_EQ(std::count(mother.begin(), mother.end(), 1), p.n_cbps);

    // mother_scatter maps them one-to-one onto the slots depuncture() fills.
    const std::uint16_t* table = mother_scatter(rate);
    std::vector<bool> hit(slots, false);
    for (std::size_t j = 0; j < p.n_cbps; ++j) {
      ASSERT_LT(table[j], slots);
      EXPECT_FALSE(hit[table[j]]) << "slot " << table[j] << " written twice";
      hit[table[j]] = true;
    }
    for (std::size_t k = 0; k < slots; ++k) EXPECT_EQ(hit[k], mother[k] == 1);
  }
}

// Demapping a whole frame through mother_scatter, symbol by symbol into a
// buffer prefilled with erasures, equals the three reference passes.
TEST(RxBitPath, MotherSlotDemapMatchesDemapDeinterleaveDepuncture) {
  for (const Rate rate : all_rates()) {
    const auto& p = rate_params(rate);
    SCOPED_TRACE(p.mbps);
    for (std::uint64_t round = 0; round < 4; ++round) {
      dsp::Xoshiro256 rng(
          dsp::derive_seed(kSeed, 100 * static_cast<unsigned>(rate) + round));
      const std::size_t n_sym = 1 + rng.uniform_int(6);
      const std::size_t slots = 2 * p.n_dbps;
      const std::size_t n_mother = n_sym * slots;
      std::vector<dsp::cvec> symbols;
      for (std::size_t s = 0; s < n_sym; ++s)
        symbols.push_back(hostile_symbols(rng, kNumDataCarriers));

      Bits raw(n_sym * p.n_cbps);
      std::vector<float> raw_soft(n_sym * p.n_cbps);
      Bits hard(n_mother, 2);
      std::vector<float> soft(n_mother, 0.0f);
      for (std::size_t s = 0; s < n_sym; ++s) {
        demap_symbols_into(symbols[s], p.modulation, raw.data() + s * p.n_cbps);
        demap_soft_into(symbols[s], p.modulation, 1.0f,
                        raw_soft.data() + s * p.n_cbps);
        demap_symbols_scatter(symbols[s], p.modulation, mother_scatter(rate),
                              hard.data() + s * slots);
        demap_soft_scatter(symbols[s], p.modulation, 1.0f, mother_scatter(rate),
                           soft.data() + s * slots);
      }
      EXPECT_EQ(hard,
                depuncture(deinterleave(raw, p.n_cbps, p.n_bpsc), p.code_rate,
                           n_mother));
      expect_same_bits(
          soft,
          depuncture_soft(deinterleave_soft(raw_soft, p.n_cbps, p.n_bpsc),
                          p.code_rate, n_mother),
          "soft");
    }
  }
}

// Every state, random lengths: one table lookup per octet equals 8 serial
// LFSR steps and the LSB-first packer, and leaves the same state behind.
TEST(RxBitPath, ByteDescramblerMatchesSerialScramblerAndPacker) {
  for (unsigned state = 0; state < 128; ++state) {
    dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 1000 + state));
    const std::size_t n_bytes =
        state < 2 ? state : static_cast<std::size_t>(rng.uniform_int(4096));
    Bits bits(8 * n_bytes);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1u);

    Scrambler serial(static_cast<std::uint8_t>(state));
    Scrambler bytewise(static_cast<std::uint8_t>(state));
    const auto want = bytes_from_bits(serial.process(bits));
    EXPECT_EQ(bytewise.process_packed(bits), want) << "state " << state;
    EXPECT_EQ(bytewise.state(), serial.state()) << "state " << state;
  }
}

// ---- End to end ------------------------------------------------------------

// The receiver as it was before the byte-wide bit path: the same front end
// (timing, channel estimate, equaliser, SIGNAL), then per-symbol demap ->
// deinterleave -> depuncture -> Viterbi -> per-bit descramble -> pack.
RxResult reference_receive(std::span<const dsp::cfloat> capture, bool soft) {
  constexpr std::size_t kSearch = 8;
  constexpr std::size_t kLtsStart = 192;
  constexpr std::size_t kDataStart = 320;
  RxResult result;
  if (capture.size() < kDataStart + kSymbolLen + kSearch) return result;

  const dsp::cvec lts = long_training_symbol();
  const auto metric = [&](std::size_t at) {
    dsp::cfloat acc{};
    for (std::size_t k = 0; k < kLongSymbolLen; ++k)
      acc += capture[at + k] * std::conj(lts[k]);
    return static_cast<double>(std::abs(acc));
  };
  std::size_t lts0 = kLtsStart;
  double best = -1.0;
  for (std::size_t at = kLtsStart - kSearch; at <= kLtsStart + kSearch; ++at) {
    const double m = metric(at);
    if (m > best) {
      best = m;
      lts0 = at;
    }
  }
  double power = 0.0;
  for (std::size_t k = 0; k < kDataStart; ++k) power += std::norm(capture[k]);
  power /= static_cast<double>(kDataStart);
  if (power <= 0.0 || best < 0.3 * kLongSymbolLen * std::sqrt(power))
    return result;
  result.synchronized = true;

  const std::size_t data_start = lts0 + 2 * kLongSymbolLen;
  const float gain = static_cast<float>(kFftSize / std::sqrt(52.0));
  dsp::cvec lts_avg(kFftSize);
  for (std::size_t k = 0; k < kFftSize; ++k)
    lts_avg[k] =
        (capture[lts0 + k] + capture[lts0 + kLongSymbolLen + k]) * 0.5f / gain;
  dsp::fft(lts_avg);
  const dsp::cvec lts_ref = lts_frequency_domain();
  dsp::cvec channel(kFftSize, dsp::cfloat{1.0f, 0.0f});
  for (std::size_t bin = 0; bin < kFftSize; ++bin)
    if (std::norm(lts_ref[bin]) > 0.5f)
      channel[bin] = lts_avg[bin] / lts_ref[bin];
  const SymbolDemodulator demod(channel);
  dsp::cvec data48(kNumDataCarriers);

  if (capture.size() < data_start + kSymbolLen) return result;
  demod.run(capture.subspan(data_start, kSymbolLen), 0, data48.data());
  const auto signal = decode_signal(decode_at_rate(
      deinterleave(demap_symbols(data48, Modulation::kBpsk), 48, 1),
      CodeRate::kHalf, 24));
  if (!signal) return result;
  result.signal_valid = true;
  result.signal = signal;

  const auto& p = rate_params(signal->rate);
  const std::size_t n_sym = num_data_symbols(signal->rate, signal->length);
  if (capture.size() < data_start + kSymbolLen * (1 + n_sym)) {
    result.signal_valid = false;
    return result;
  }
  const std::size_t n_data_bits = n_sym * p.n_dbps;
  Bits scrambled;
  if (soft) {
    std::vector<float> raw(n_sym * p.n_cbps);
    for (std::size_t s = 0; s < n_sym; ++s) {
      demod.run(capture.subspan(data_start + kSymbolLen * (1 + s), kSymbolLen),
                s + 1, data48.data());
      demap_soft_into(data48, p.modulation, 1.0f, raw.data() + s * p.n_cbps);
    }
    scrambled = decode_at_rate_soft(deinterleave_soft(raw, p.n_cbps, p.n_bpsc),
                                    p.code_rate, n_data_bits);
  } else {
    Bits raw(n_sym * p.n_cbps);
    for (std::size_t s = 0; s < n_sym; ++s) {
      demod.run(capture.subspan(data_start + kSymbolLen * (1 + s), kSymbolLen),
                s + 1, data48.data());
      demap_symbols_into(data48, p.modulation, raw.data() + s * p.n_cbps);
    }
    scrambled = decode_at_rate(deinterleave(raw, p.n_cbps, p.n_bpsc),
                               p.code_rate, n_data_bits);
  }

  Scrambler descrambler(recover_scrambler_state(
      std::span<const std::uint8_t>(scrambled.data(), 7)));
  Bits descrambled(scrambled.size(), 0);
  for (std::size_t k = 7; k < scrambled.size(); ++k)
    descrambled[k] =
        static_cast<std::uint8_t>((scrambled[k] ^ descrambler.next_bit()) & 1u);
  const std::size_t psdu_bits = static_cast<std::size_t>(signal->length) * 8;
  if (descrambled.size() < 16 + psdu_bits) return result;
  result.psdu = bytes_from_bits(
      std::span<const std::uint8_t>(descrambled.data() + 16, psdu_bits));
  return result;
}

void expect_same_result(const RxResult& got, const RxResult& want) {
  EXPECT_EQ(got.synchronized, want.synchronized);
  EXPECT_EQ(got.signal_valid, want.signal_valid);
  ASSERT_EQ(got.signal.has_value(), want.signal.has_value());
  if (want.signal) {
    EXPECT_EQ(got.signal->rate, want.signal->rate);
    EXPECT_EQ(got.signal->length, want.signal->length);
  }
  EXPECT_EQ(got.psdu, want.psdu);
}

// Both decision modes against the reference on one capture; true when the
// hard receiver decoded a PSDU that differs from `sent`.
bool check_capture(std::span<const dsp::cfloat> capture,
                   const std::vector<std::uint8_t>& sent) {
  const RxResult hard = Receiver().receive(capture);
  expect_same_result(hard, reference_receive(capture, false));
  expect_same_result(Receiver(8, true).receive(capture),
                     reference_receive(capture, true));
  return hard.signal_valid && !hard.psdu.empty() && hard.psdu != sent;
}

// Random PSDUs at every rate, from a clean channel down to SNRs where
// frames fail, so wrong bits reach the descrambler and the packer.
TEST(RxBitPath, ReceiveMatchesReferenceFromCleanToFailingSnr) {
  const double snr_db[] = {60.0, 25.0, 15.0, 9.0, 5.0, 2.0, -1.0};
  std::size_t corrupted = 0;
  for (const Rate rate : all_rates()) {
    SCOPED_TRACE(rate_params(rate).mbps);
    dsp::Xoshiro256 rng(
        dsp::derive_seed(kSeed, 2000 + static_cast<unsigned>(rate)));
    std::vector<std::uint8_t> psdu(1 + rng.uniform_int(600));
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.next());
    const auto seed = static_cast<std::uint8_t>(1 + rng.uniform_int(127));
    const dsp::cvec clean = Transmitter({rate, seed}).transmit(psdu);
    for (const double snr : snr_db) {
      SCOPED_TRACE(snr);
      dsp::cvec capture = clean;
      dsp::NoiseSource(std::pow(10.0, -snr / 10.0), rng.next())
          .add_to(capture);
      if (check_capture(capture, psdu)) ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 0u) << "no corrupted PSDU reached the descrambler";
}

// Captures cut anywhere: before sync, inside SIGNAL, inside DATA, one
// sample short of the last symbol.
TEST(RxBitPath, ReceiveMatchesReferenceOnTruncatedCaptures) {
  for (const Rate rate : all_rates()) {
    SCOPED_TRACE(rate_params(rate).mbps);
    dsp::Xoshiro256 rng(
        dsp::derive_seed(kSeed, 3000 + static_cast<unsigned>(rate)));
    std::vector<std::uint8_t> psdu(1 + rng.uniform_int(300));
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.next());
    dsp::cvec full = Transmitter({rate, 0x5D}).transmit(psdu);
    dsp::NoiseSource(1e-3, rng.next()).add_to(full);
    std::vector<std::size_t> cuts = {0, 330, 400, full.size() - 1, full.size()};
    for (int k = 0; k < 6; ++k)
      cuts.push_back(static_cast<std::size_t>(rng.uniform_int(full.size())));
    for (const std::size_t cut : cuts) {
      SCOPED_TRACE(cut);
      check_capture(std::span<const dsp::cfloat>(full.data(), cut), psdu);
    }
  }
}

// A SIGNAL symbol carrying every 4-bit RATE code (the eight valid ones
// and the eight invalid ones) with short, random and the largest LENGTH,
// followed by random DATA symbols: enough of them, or too few.
TEST(RxBitPath, ReceiveMatchesReferenceForEverySignalCode) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 4000));
  const dsp::cvec preamble = plcp_preamble();
  for (unsigned code = 0; code < 16; ++code) {
    for (const unsigned length :
         {1u, 1u + static_cast<unsigned>(rng.uniform_int(4095)), 4095u}) {
      SCOPED_TRACE(testing::Message() << "rate code " << code << " length "
                                      << length);
      Bits bits;
      for (int b = 3; b >= 0; --b)
        bits.push_back(static_cast<std::uint8_t>((code >> b) & 1u));
      bits.push_back(0);
      append_uint(bits, length, 12);
      std::uint8_t parity = 0;
      for (const std::uint8_t bit : bits) parity ^= bit;
      bits.push_back(parity);
      bits.resize(24, 0);
      const dsp::cvec signal = modulate_symbol(
          map_bits(interleave(encode_at_rate(bits, CodeRate::kHalf), 48, 1),
                   Modulation::kBpsk),
          0);

      const auto rate = rate_from_signal_bits(static_cast<std::uint8_t>(code));
      const std::size_t n_sym =
          rate ? num_data_symbols(*rate, length) : 1 + rng.uniform_int(8);
      for (const std::size_t have : {n_sym, n_sym - 1}) {
        dsp::cvec capture = preamble;
        capture.insert(capture.end(), signal.begin(), signal.end());
        for (std::size_t s = 0; s < have * kSymbolLen; ++s)
          capture.push_back(rng.complex_gaussian());
        check_capture(capture, {});
      }
    }
  }
}

}  // namespace
}  // namespace rjf::phy80211
