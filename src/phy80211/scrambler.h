// 802.11 frame-synchronous scrambler, generator S(x) = x^7 + x^4 + 1.
#pragma once

#include <cstdint>

#include "phy80211/bits.h"

namespace rjf::phy80211 {

class Scrambler {
 public:
  /// `state` is the 7-bit initial state; must be nonzero for scrambling
  /// (an all-zero state produces the all-zero sequence).
  explicit Scrambler(std::uint8_t state = 0x5D) noexcept : state_(state & 0x7F) {}

  /// Next scrambler sequence bit.
  [[nodiscard]] std::uint8_t next_bit() noexcept;

  /// XOR the sequence onto a bit vector (scramble == descramble).
  [[nodiscard]] Bits process(std::span<const std::uint8_t> bits);

  /// process() and bytes_from_bits() in one pass, an octet per lookup in a
  /// 128-entry table of 8 LFSR steps: `bits.size()` must be a multiple of 8.
  [[nodiscard]] std::vector<std::uint8_t> process_packed(
      std::span<const std::uint8_t> bits);

  [[nodiscard]] std::uint8_t state() const noexcept { return state_; }

 private:
  std::uint8_t state_;
};

/// Recover the transmitter's initial scrambler state from the first 7
/// scrambled bits of a known-zero field (the SERVICE field's scrambler-init
/// bits are transmitted as zeros, so the received bits ARE the sequence).
[[nodiscard]] std::uint8_t recover_scrambler_state(std::span<const std::uint8_t> first7);

/// The 127-bit scrambler sequence for the all-ones state — this is also the
/// 802.11 pilot polarity sequence p_0 .. p_126.
[[nodiscard]] Bits pilot_polarity_sequence();

}  // namespace rjf::phy80211
