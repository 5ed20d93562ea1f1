// Lane-parallel K=7 Viterbi add-compare-select kernels.
//
// The kernels run ONLY the forward ACS recursion: they fill one 64-bit
// survivor word per trellis step (bit n = evicted bit chosen for
// next-state n) and the final 64 path metrics.  Traceback stays scalar at
// the call site (phy80211/convolutional.cpp) and is shared with the
// reference decoder, so the decoded bits are produced by identical code
// either way.
//
// Equivalence contract (tested in tests/test_phy80211_viterbi_simd.cpp):
//  - hard kernel: decoded bits are BIT-IDENTICAL to the scalar reference
//    for every input, including erasures and tie-heavy streams.  Ties are
//    broken exactly like the reference (predecessor n>>1 wins, because the
//    scalar loop visits it first and the +32 predecessor must be strictly
//    better to evict it).
//  - soft kernel: the per-step metric updates replicate the reference's
//    float operations (including its >= 1e30f dead-state skip and its
//    never-store-above-1e30f clamp), so metrics and decoded bits match
//    bit-for-bit even for saturating LLR magnitudes and NaNs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/simd/dispatch.h"

namespace rjf::dsp::simd {

/// Hard-decision ACS over coded.size()/2 steps; coded bits are 0/1/2
/// (2 = erasure).  survivors must hold coded.size()/2 words and
/// final_metrics 64 entries.  Returns false when `isa` has no compiled
/// kernel (caller falls back to the scalar reference).
bool viterbi_hard_acs(Isa isa, std::span<const std::uint8_t> coded,
                      std::uint64_t* survivors, std::uint16_t* final_metrics);

/// Soft-decision ACS over llrs.size()/2 steps (LLR > 0 means bit 1).
bool viterbi_soft_acs(Isa isa, std::span<const float> llrs,
                      std::uint64_t* survivors, float* final_metrics);

namespace detail {
bool viterbi_hard_avx2(const std::uint8_t* coded, std::size_t n_steps,
                       std::uint64_t* survivors, std::uint16_t* final_metrics);
bool viterbi_soft_avx2(const float* llrs, std::size_t n_steps,
                       std::uint64_t* survivors, float* final_metrics);
}  // namespace detail

}  // namespace rjf::dsp::simd
