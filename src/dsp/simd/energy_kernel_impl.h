// Template body of the batched energy detector kernels (dsp/simd/energy.h).
// Included by energy.cpp (the scalar tier) and the per-ISA translation
// units (kernels_avx2.cpp, kernels_avx512.cpp), which instantiate it with
// an anonymous-namespace Ops struct, as for the correlator kernel.
//
// One pass per kLanes samples, one sample per lane: the powers x[n] =
// I^2 + Q^2, the moving sum's steps x[n] - x[n-32], their running sum (a
// log-step prefix sum in the lanes, plus the sum carried from the pass
// before), and both comparators against the sums 64 samples back. Each
// comparator is (a << 8) > t * b with a, b < 2^37 and t a 32-bit
// threshold, so the product needs 68 bits. With b = bh * 2^32 + bl and the
// exact 64-bit products pl = t * bl and ph = t * bh:
//     (a << 8) > pl + ph * 2^32
//       <=>  pl < (a << 8)  and  ((a << 8) - pl - 1) >> 32 >= ph
// since (a << 8) < 2^45 and ph * 2^32 is a whole multiple of 2^32. The
// sums are modular: a step may wrap and the sum still lands exactly.
//
// Ops contract: kLanes, a power of two up to 64; a State type constructible
// from (EnergyComparators, the running sum before the run); and pass(st,
// rx, live, old, x, ref, y, high, low), for live <= kLanes samples rx[j]:
// x[j] = their powers, y[j] = their moving sums (old[j] the powers 32
// samples back, the sum carried in st), and bit j of high and low their
// comparator outputs against the sums ref[j] 64 samples back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/simd/energy.h"

namespace rjf::dsp::simd {

// rjf: realtime
template <class Ops>
void energy_block_t(const EnergyComparators& cmp, std::span<const IQ16> rx,
                    std::uint64_t* x, std::uint64_t* y, std::size_t armed_from,
                    std::uint64_t* high, std::uint64_t* low) noexcept {
  static_assert(kEnergyMaskBits % Ops::kLanes == 0);
  const std::size_t n = rx.size();
  typename Ops::State st(cmp, y[kEnergyRefTaps - 1]);
  for (std::size_t w = 0; w * kEnergyMaskBits < n; ++w) {
    const std::size_t base = w * kEnergyMaskBits;
    const std::size_t end = std::min(n, base + kEnergyMaskBits);
    std::uint64_t h_word = 0;
    std::uint64_t l_word = 0;
    for (std::size_t k = base; k < end; k += Ops::kLanes) {
      std::uint64_t h = 0;
      std::uint64_t l = 0;
      Ops::pass(st, rx.data() + k, std::min(Ops::kLanes, end - k), x + k,
                x + kEnergyTaps + k, y + k, y + kEnergyRefTaps + k, h, l);
      h_word |= h << (k - base);
      l_word |= l << (k - base);
    }
    // The comparators stay disarmed until the pipeline has filled.
    const std::uint64_t armed =
        armed_from <= base ? ~std::uint64_t{0}
        : armed_from >= end
            ? 0
            : ~std::uint64_t{0} << (armed_from - base);
    high[w] = h_word & armed;
    low[w] = l_word & armed;
  }
}

}  // namespace rjf::dsp::simd
