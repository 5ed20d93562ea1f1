#include "phy80211/scrambler.h"

#include <array>
#include <bit>
#include <cstring>

namespace rjf::phy80211 {
namespace {

// Eight one-bit-per-byte values as an octet, the first in the LSB, like
// bytes_from_bits(). The multiply carries byte k's low bit to bit 56 + k;
// no two of its partial products share a bit, so nothing carries.
std::uint8_t pack8(const std::uint8_t* bits) {
  if constexpr (std::endian::native != std::endian::little) {
    std::uint8_t byte = 0;
    for (unsigned k = 0; k < 8; ++k)
      byte |= static_cast<std::uint8_t>((bits[k] & 1u) << k);
    return byte;
  }
  std::uint64_t word = 0;
  std::memcpy(&word, bits, sizeof word);
  return static_cast<std::uint8_t>(
      ((word & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56);
}

// Eight scrambler steps from one state: the sequence bits packed LSB-first
// (bit k is the k-th next_bit()) and the state after them.
struct ScramblerByte {
  std::uint8_t bits;
  std::uint8_t next;
};

const std::array<ScramblerByte, 128>& byte_table() {
  static const std::array<ScramblerByte, 128> kTable = [] {
    std::array<ScramblerByte, 128> table{};
    for (unsigned s = 0; s < table.size(); ++s) {
      Scrambler lfsr(static_cast<std::uint8_t>(s));
      std::uint8_t bits = 0;
      for (unsigned k = 0; k < 8; ++k)
        bits |= static_cast<std::uint8_t>(lfsr.next_bit() << k);
      table[s] = {bits, lfsr.state()};
    }
    return table;
  }();
  return kTable;
}

}  // namespace

std::uint8_t Scrambler::next_bit() noexcept {
  // Feedback = x^7 xor x^4 (bits 6 and 3 of the state register).
  const std::uint8_t fb =
      static_cast<std::uint8_t>(((state_ >> 6) ^ (state_ >> 3)) & 1u);
  state_ = static_cast<std::uint8_t>(((state_ << 1) | fb) & 0x7F);
  return fb;
}

Bits Scrambler::process(std::span<const std::uint8_t> bits) {
  Bits out(bits.size());
  for (std::size_t k = 0; k < bits.size(); ++k)
    out[k] = static_cast<std::uint8_t>((bits[k] ^ next_bit()) & 1u);
  return out;
}

std::vector<std::uint8_t> Scrambler::process_packed(
    std::span<const std::uint8_t> bits) {
  const auto& table = byte_table();
  std::vector<std::uint8_t> out(bits.size() / 8);
  for (std::size_t b = 0; b < out.size(); ++b) {
    const ScramblerByte step = table[state_];
    out[b] = static_cast<std::uint8_t>(pack8(bits.data() + 8 * b) ^ step.bits);
    state_ = step.next;
  }
  return out;
}

std::uint8_t recover_scrambler_state(std::span<const std::uint8_t> first7) {
  // The descrambler state after shifting in 7 sequence bits equals those
  // bits in order: bit k lands at register position 6-k.
  std::uint8_t state = 0;
  for (std::size_t k = 0; k < 7 && k < first7.size(); ++k)
    state = static_cast<std::uint8_t>((state << 1) | (first7[k] & 1u));
  return state;
}

Bits pilot_polarity_sequence() {
  Scrambler s(0x7F);
  Bits seq(127);
  for (auto& bit : seq) bit = s.next_bit();
  return seq;
}

}  // namespace rjf::phy80211
