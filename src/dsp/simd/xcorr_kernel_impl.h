// Template body of the batched correlator metric kernels (dsp/simd/xcorr.h).
// Included by the per-ISA translation units (kernels_avx2.cpp,
// kernels_avx512.cpp), which instantiate it with an anonymous-namespace
// Ops struct, as for the Viterbi and FFT kernels.
//
// Per 64-sample chunk, Ops::signs gathers each rail's sign bits into one
// word (sample s at bit s), which is bit-reversed so the chunk's first
// sample sits at bit 63. The history after the chunk's sample c-1 is then
// the funnel shift (h << c) | (x >> (64 - c)) of the carried history h and
// that word x. Ops::metrics builds kLanes successive histories per rail in
// one register that way (vpsllvq/vpsrlvq give 0 for a count of 64, which
// covers c = 64 and c = 0 alike) and evaluates all of their metrics at once.
//
// Ops contract: kGather, and SignWords signs(const IQ16* rx, size_t live)
// reading only rx[0..live), live <= kGather; kLanes, a Template type
// constructible from XcorrPlanes, and metrics(tpl, h, x, c0, out, live)
// writing out[0..live) for the histories after chunk samples
// c0 .. c0+live-1, live <= kLanes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/simd/xcorr.h"

namespace rjf::dsp::simd {

// rjf: realtime
template <class Ops>
void xcorr_block_t(const XcorrPlanes& planes, SignWords& history,
                   std::span<const IQ16> rx,
                   std::span<std::uint32_t> metric) noexcept {
  constexpr std::size_t kChunk = 64;  // one history word of samples
  // Bit s to bit 63-s. A lambda, not a shared inline function, so each
  // ISA's translation unit keeps its own copy.
  const auto reverse_bits = [](std::uint64_t v) noexcept {
    constexpr std::uint64_t k1 = 0x5555555555555555ULL;
    constexpr std::uint64_t k2 = 0x3333333333333333ULL;
    constexpr std::uint64_t k4 = 0x0F0F0F0F0F0F0F0FULL;
    v = ((v >> 1) & k1) | ((v & k1) << 1);
    v = ((v >> 2) & k2) | ((v & k2) << 2);
    v = ((v >> 4) & k4) | ((v & k4) << 4);
    return __builtin_bswap64(v);
  };
  const typename Ops::Template tpl(planes);
  SignWords h = history;
  for (std::size_t base = 0; base < rx.size(); base += kChunk) {
    const std::size_t len = std::min(kChunk, rx.size() - base);
    SignWords y{0, 0};
    for (std::size_t s = 0; s < len; s += Ops::kGather) {
      const SignWords part =
          Ops::signs(rx.data() + base + s, std::min(Ops::kGather, len - s));
      y.i |= part.i << s;
      y.q |= part.q << s;
    }
    const SignWords x{reverse_bits(y.i), reverse_bits(y.q)};
    for (std::size_t c0 = 0; c0 < len; c0 += Ops::kLanes)
      Ops::metrics(tpl, h, x, c0, metric.data() + base + c0,
                   std::min(Ops::kLanes, len - c0));
    if (len == kChunk) {
      h = x;
    } else {
      h.i = (h.i << len) | (x.i >> (kChunk - len));
      h.q = (h.q << len) | (x.q >> (kChunk - len));
    }
  }
  history = h;
}

}  // namespace rjf::dsp::simd
