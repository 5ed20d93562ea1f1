// 802.11a/g PPDU receiver.
//
// Decodes a baseband capture back to the PSDU: fine timing from the long
// training symbols, per-bin channel estimate from the two LTS copies,
// SIGNAL decode, then the DATA pipeline in reverse. Each DATA symbol is
// demapped straight into its depunctured mother-code slots (deinterleave
// and depuncture fused into one scatter table), the Viterbi decodes that
// buffer, and the PSDU is descrambled and packed an octet at a time. The
// MAC layer checks the FCS; this layer reports PHY-level failures (sync,
// SIGNAL parity/rate) directly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/types.h"
#include "phy80211/rates.h"
#include "phy80211/signal_field.h"

namespace rjf::phy80211 {

struct RxResult {
  bool synchronized = false;       // LTS found
  bool signal_valid = false;       // SIGNAL parity + rate decode OK
  std::optional<SignalField> signal;
  std::vector<std::uint8_t> psdu;  // decoded bytes (possibly corrupted)
};

/// Host nanoseconds a receiver spent per stage, summed over calls.
struct RxStageNs {
  std::uint64_t sync = 0;        // LTS timing search + channel estimate
  std::uint64_t demod = 0;       // SIGNAL decode, DATA FFT + demap
  std::uint64_t decode = 0;      // DATA Viterbi
  std::uint64_t descramble = 0;  // descramble + pack the PSDU
};

class Receiver {
 public:
  /// `sync_search` is the +/- window (in samples) around the nominal frame
  /// start that the LTS timing search covers. `soft_decisions` switches
  /// the DATA pipeline from hard slicing to max-log LLRs with a soft
  /// Viterbi — ~2 dB of coding gain, at some decode cost.
  explicit Receiver(std::size_t sync_search = 8,
                    bool soft_decisions = false) noexcept
      : sync_search_(sync_search), soft_(soft_decisions) {}

  /// Decode a capture whose frame nominally starts at `capture[0]`. With
  /// `stages` set, the host time of each stage is added to it; without,
  /// no clock is read.
  [[nodiscard]] RxResult receive(std::span<const dsp::cfloat> capture,
                                 RxStageNs* stages = nullptr) const;

 private:
  std::size_t sync_search_;
  bool soft_;
};

/// Mother-slot scatter table of `rate`: entry j is the depunctured position,
/// within one DATA symbol's 2*N_DBPS mother-code slots, of that symbol's
/// j-th demapped coded bit. It composes the deinterleave scatter with the
/// puncture keep index, `mother_scatter[j] = keep_index[scatter[j]]`, so
/// demapping through it equals demap -> deinterleave -> depuncture.
[[nodiscard]] const std::uint16_t* mother_scatter(Rate rate);

}  // namespace rjf::phy80211
