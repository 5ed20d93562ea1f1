#include "phy80211/rates.h"

#include <algorithm>
#include <array>

#include "phy80211/ofdm.h"

namespace rjf::phy80211 {
namespace {

constexpr std::array<RateParams, 8> kTable = {{
    {Rate::kMbps6, 6.0, Modulation::kBpsk, CodeRate::kHalf, 1, 48, 24, 0b1101},
    {Rate::kMbps9, 9.0, Modulation::kBpsk, CodeRate::kThreeQuarters, 1, 48, 36,
     0b1111},
    {Rate::kMbps12, 12.0, Modulation::kQpsk, CodeRate::kHalf, 2, 96, 48, 0b0101},
    {Rate::kMbps18, 18.0, Modulation::kQpsk, CodeRate::kThreeQuarters, 2, 96, 72,
     0b0111},
    {Rate::kMbps24, 24.0, Modulation::kQam16, CodeRate::kHalf, 4, 192, 96,
     0b1001},
    {Rate::kMbps36, 36.0, Modulation::kQam16, CodeRate::kThreeQuarters, 4, 192,
     144, 0b1011},
    {Rate::kMbps48, 48.0, Modulation::kQam64, CodeRate::kTwoThirds, 6, 288, 192,
     0b0001},
    {Rate::kMbps54, 54.0, Modulation::kQam64, CodeRate::kThreeQuarters, 6, 288,
     216, 0b0011},
}};

// The puncturer keeps `den` of every 2*`num` mother bits, so one symbol's
// N_CBPS coded bits depuncture into exactly its own 2*N_DBPS mother slots
// when `num` divides N_DBPS. The receiver demaps each symbol straight into
// those slots (mother_scatter() in receiver.h), which rests on this.
constexpr bool symbol_fills_its_mother_slots(const RateParams& p) {
  const RateFraction f = rate_fraction(p.code_rate);
  return p.n_dbps % f.num == 0 && p.n_dbps / f.num * f.den == p.n_cbps;
}
static_assert(std::all_of(kTable.begin(), kTable.end(),
                          symbol_fills_its_mother_slots));

constexpr std::array<Rate, 8> kAll = {
    Rate::kMbps6,  Rate::kMbps9,  Rate::kMbps12, Rate::kMbps18,
    Rate::kMbps24, Rate::kMbps36, Rate::kMbps48, Rate::kMbps54};

}  // namespace

const RateParams& rate_params(Rate rate) noexcept {
  return kTable[static_cast<std::size_t>(rate)];
}

std::optional<Rate> rate_from_signal_bits(std::uint8_t bits) noexcept {
  for (const auto& p : kTable)
    if (p.signal_rate_bits == bits) return p.rate;
  return std::nullopt;
}

std::span<const Rate> all_rates() noexcept { return kAll; }

std::size_t num_data_symbols(Rate rate, std::size_t psdu_bytes) noexcept {
  const auto& p = rate_params(rate);
  const std::size_t n_bits = 16 + 8 * psdu_bytes + 6;
  return (n_bits + p.n_dbps - 1) / p.n_dbps;
}

double frame_duration_s(Rate rate, std::size_t psdu_bytes) noexcept {
  const std::size_t preamble_and_signal = 320 + kSymbolLen;
  const std::size_t data =
      num_data_symbols(rate, psdu_bytes) * kSymbolLen;
  return static_cast<double>(preamble_and_signal + data) / kSampleRateHz;
}

}  // namespace rjf::phy80211
