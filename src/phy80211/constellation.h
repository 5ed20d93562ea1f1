// Gray-coded constellation mapping for 802.11a/g: BPSK, QPSK, 16-QAM,
// 64-QAM, with the standard K_mod normalisation so every constellation has
// unit mean power.
#pragma once

#include "dsp/types.h"
#include "phy80211/bits.h"

namespace rjf::phy80211 {

enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

/// Coded bits per subcarrier for the modulation.
[[nodiscard]] unsigned bits_per_symbol(Modulation mod) noexcept;

/// Map bits (length divisible by bits_per_symbol) to unit-power symbols.
[[nodiscard]] dsp::cvec map_bits(std::span<const std::uint8_t> bits, Modulation mod);

/// Hard-decision demap back to bits.
[[nodiscard]] Bits demap_symbols(std::span<const dsp::cfloat> symbols, Modulation mod);

/// Allocation-free hard demap into a caller buffer of
/// `symbols.size() * bits_per_symbol(mod)` bytes.  Whole-frame receive
/// paths demap every symbol into one preallocated buffer and run a single
/// deinterleave over it instead of concatenating per-symbol vectors.
void demap_symbols_into(std::span<const dsp::cfloat> symbols, Modulation mod,
                        std::uint8_t* out);

/// Soft demap: max-log LLR per coded bit, positive = bit 1 more likely.
/// `noise_var` scales the confidence; any positive value yields correct
/// Viterbi behaviour since only relative magnitudes matter.
[[nodiscard]] std::vector<float> demap_soft(std::span<const dsp::cfloat> symbols,
                                            Modulation mod,
                                            float noise_var = 1.0f);

/// Allocation-free soft demap into a caller buffer of
/// `symbols.size() * bits_per_symbol(mod)` floats.
void demap_soft_into(std::span<const dsp::cfloat> symbols, Modulation mod,
                     float noise_var, float* out);

/// Hard demap with a destination map: produced bit j is written to
/// `out[scatter[j]]` instead of `out[j]`.  With the deinterleaver's
/// scatter table this fuses demap + deinterleave of one symbol block into
/// a single pass; with mother_scatter() (receiver.h) it also depunctures.
/// `scatter` must cover symbols.size()*bits_per_symbol(mod) distinct
/// entries, each a valid index into `out`; slots no entry names are left
/// as they were.
void demap_symbols_scatter(std::span<const dsp::cfloat> symbols, Modulation mod,
                           const std::uint16_t* scatter, std::uint8_t* out);

/// Soft variant of demap_symbols_scatter().
void demap_soft_scatter(std::span<const dsp::cfloat> symbols, Modulation mod,
                        float noise_var, const std::uint16_t* scatter,
                        float* out);

}  // namespace rjf::phy80211
