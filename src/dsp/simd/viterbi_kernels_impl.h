// Template bodies for the lane-parallel Viterbi ACS kernels.  Included by
// the per-ISA translation unit (kernels_avx2.cpp), which instantiates the
// templates with an anonymous-namespace Ops struct — anonymous so the TU
// gets a unique type and there is no ODR overlap between code compiled
// with different -m flags.
//
// Ops contract (u8 side): u8v type, kU8Lanes, loadu8/storeu8, set1u8,
// addsu8 (saturating), subsu8, minu8, cmpequ8, movemasku8 (one bit per
// byte lane), dup_low8/dup_high8 (duplicate each byte of the low/high
// half into two adjacent lanes, in order).
// Ops contract (f32 side): f32v type, kF32Lanes, loaduf/storeuf, set1f,
// addf, subf, minf(a,b) -> b when a is NaN (i.e. _mm_min_ps(a, b)),
// cmpltf(a,b) -> all-ones where a<b (ordered), blendf(a,b,mask) -> mask?b:a,
// movemaskf, dupf(v, lo, hi).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "dsp/simd/viterbi_trellis.h"

namespace rjf::dsp::simd {

// Forward ACS with u8 metrics.  See viterbi_trellis.h for why u8 lanes
// with a dead sentinel and a 64-step renormalisation reproduce the
// reference's u32 arithmetic exactly: the live-state metric spread is
// bounded by 12, so saturation never touches a live path, and the renorm
// subtracts the same value from every lane so every comparison (and
// therefore every survivor bit and the final argmin) is unchanged.
template <class Ops>
void viterbi_hard_acs_t(const std::uint8_t* coded, std::size_t n_steps,
                        std::uint64_t* survivors,
                        std::uint16_t* final_metrics) {
  using V = typename Ops::u8v;
  constexpr std::size_t kL = Ops::kU8Lanes;
  constexpr std::size_t kNV = kVitStates / kL;

  // Branch metrics depend only on the received pair (r0, r1), of which
  // there are 9 values (0/1/erasure each) — precompute all of them so the
  // per-step loop is pure loads/adds/mins, keeping the live register
  // count within the register file.  Cost of emitting expected bit e
  // against received r: 1 iff r is not an erasure and differs from e —
  // same predicate as the reference loop.  [0] is the A branch (expected
  // e0/e1), [1] the B branch (complement of both).
  alignas(32) std::uint8_t bm_table[9][2][kVitStates];
  for (unsigned r0 = 0; r0 < 3; ++r0) {
    for (unsigned r1 = 0; r1 < 3; ++r1) {
      for (unsigned n = 0; n < kVitStates; ++n) {
        const unsigned e0 = kVitE0[n];
        const unsigned e1 = kVitE1[n];
        const auto cost = [](unsigned r, unsigned e) -> std::uint8_t {
          return (r != 2 && r != e) ? 1 : 0;
        };
        bm_table[r0 * 3 + r1][0][n] =
            static_cast<std::uint8_t>(cost(r0, e0) + cost(r1, e1));
        bm_table[r0 * 3 + r1][1][n] =
            static_cast<std::uint8_t>(cost(r0, e0 ^ 1u) + cost(r1, e1 ^ 1u));
      }
    }
  }

  V metric[kNV];
  {
    alignas(32) std::uint8_t init[kVitStates];
    for (std::size_t s = 0; s < kVitStates; ++s) init[s] = kVitDead;
    init[0] = 0;
    for (std::size_t v = 0; v < kNV; ++v) metric[v] = Ops::loadu8(init + v * kL);
  }

  V next[kNV];
  for (std::size_t t = 0; t < n_steps; ++t) {
    // Out-of-domain input values (> 2) are folded onto the erasure row:
    // the reference charges them as a uniform +1 on every branch, which
    // shifts all path metrics equally — identical survivors and decoded
    // bits, so the fold is behaviour-preserving where it matters.
    const unsigned r0 = std::min<unsigned>(coded[2 * t], 2u);
    const unsigned r1 = std::min<unsigned>(coded[2 * t + 1], 2u);
    const std::uint8_t* bma = bm_table[r0 * 3 + r1][0];
    const std::uint8_t* bmb = bm_table[r0 * 3 + r1][1];

    std::uint64_t word = 0;
    for (std::size_t v = 0; v < kNV; ++v) {
      // Candidate-A predecessor of lane n is state n>>1 (read from the
      // low half of the old metrics), candidate B is state (n>>1)+32
      // (same position in the high half).
      const V ma = metric[v / 2];
      const V mb = metric[kNV / 2 + v / 2];
      const V pa = (v % 2 == 0) ? Ops::dup_low8(ma) : Ops::dup_high8(ma);
      const V pb = (v % 2 == 0) ? Ops::dup_low8(mb) : Ops::dup_high8(mb);
      const V cand_a = Ops::addsu8(pa, Ops::loadu8(bma + v * kL));
      const V cand_b = Ops::addsu8(pb, Ops::loadu8(bmb + v * kL));
      const V nm = Ops::minu8(cand_a, cand_b);
      // Reference tie-break: candidate A (lower predecessor index) wins
      // unless B is strictly smaller, i.e. survivor bit = !(nm == candA).
      const std::uint64_t keep_a = Ops::movemasku8(Ops::cmpequ8(nm, cand_a));
      const std::uint64_t lane_mask = (kL == 64) ? ~0ull : ((1ull << kL) - 1);
      word |= (~keep_a & lane_mask) << (v * kL);
      next[v] = nm;
    }
    for (std::size_t v = 0; v < kNV; ++v) metric[v] = next[v];
    survivors[t] = word;

    if ((t & (kVitRenormInterval - 1)) == kVitRenormInterval - 1) {
      alignas(32) std::uint8_t buf[kVitStates];
      for (std::size_t v = 0; v < kNV; ++v)
        Ops::storeu8(buf + v * kL, metric[v]);
      std::uint8_t lo = buf[0];
      for (std::size_t s = 1; s < kVitStates; ++s)
        if (buf[s] < lo) lo = buf[s];
      const V sub = Ops::set1u8(lo);
      for (std::size_t v = 0; v < kNV; ++v)
        metric[v] = Ops::subsu8(metric[v], sub);
    }
  }

  for (std::size_t v = 0; v < kNV; ++v) {
    alignas(32) std::uint8_t buf[kL];
    Ops::storeu8(buf, metric[v]);
    for (std::size_t i = 0; i < kL; ++i)
      final_metrics[v * kL + i] = buf[i];
  }
}

// Forward ACS with f32 metrics, replicating the scalar soft reference's
// float semantics operation-for-operation:
//  - the reference skips predecessors with metric >= 1e30f and never
//    stores a candidate unless it beats the 1e30f initialisation, so no
//    stored metric ever exceeds 1e30f.  Clamping each candidate with
//    minf(cand, 1e30f) reproduces both effects (a dead predecessor's
//    candidate collapses back to exactly 1e30f and can never win a
//    strictly-less comparison, and a huge-LLR overshoot from a live
//    predecessor saturates to the same 1e30f the reference would have
//    kept by refusing the update).
//  - minf returns its second operand when the first is NaN, which matches
//    the reference's `cand < stored` being false for NaN candidates.
template <class Ops>
void viterbi_soft_acs_t(const float* llrs, std::size_t n_steps,
                        std::uint64_t* survivors, float* final_metrics) {
  using V = typename Ops::f32v;
  constexpr std::size_t kL = Ops::kF32Lanes;
  constexpr std::size_t kNV = kVitStates / kL;

  V metric[kNV];
  V mask_e0[kNV];
  V mask_e1[kNV];
  {
    alignas(32) float init[kVitStates];
    for (std::size_t s = 0; s < kVitStates; ++s) init[s] = kVitSoftInf;
    init[0] = 0.0f;
    const float* m0 = reinterpret_cast<const float*>(kVitMaskE0F32.data());
    const float* m1 = reinterpret_cast<const float*>(kVitMaskE1F32.data());
    for (std::size_t v = 0; v < kNV; ++v) {
      metric[v] = Ops::loaduf(init + v * kL);
      mask_e0[v] = Ops::loaduf(m0 + v * kL);
      mask_e1[v] = Ops::loaduf(m1 + v * kL);
    }
  }

  const V inf_v = Ops::set1f(kVitSoftInf);
  V pred_a[kNV];
  V pred_b[kNV];
  for (std::size_t t = 0; t < n_steps; ++t) {
    const float l0 = llrs[2 * t];
    const float l1 = llrs[2 * t + 1];
    // Reference branch cost per coded bit: std::max(l, 0) when expecting
    // 0, std::max(-l, 0) when expecting 1.  Computed with std::max in
    // scalar float — identical ops to the reference, including its NaN
    // propagation (std::max(NaN, 0) is NaN, which the clamp below turns
    // into a candidate that can never win, exactly like the reference's
    // failed `cand < stored` comparison).
    const float f00 = std::max(l0, 0.0f);
    const float f01 = std::max(-l0, 0.0f);
    const float f10 = std::max(l1, 0.0f);
    const float f11 = std::max(-l1, 0.0f);
    const V c00 = Ops::set1f(f00);
    const V c01 = Ops::set1f(f01);
    const V c10 = Ops::set1f(f10);
    const V c11 = Ops::set1f(f11);

    for (std::size_t h = 0; h < kNV / 2; ++h) {
      Ops::dupf(metric[h], pred_a[2 * h], pred_a[2 * h + 1]);
      Ops::dupf(metric[kNV / 2 + h], pred_b[2 * h], pred_b[2 * h + 1]);
    }

    std::uint64_t word = 0;
    for (std::size_t v = 0; v < kNV; ++v) {
      const V bm_a = Ops::addf(Ops::blendf(c00, c01, mask_e0[v]),
                               Ops::blendf(c10, c11, mask_e1[v]));
      const V bm_b = Ops::addf(Ops::blendf(c01, c00, mask_e0[v]),
                               Ops::blendf(c11, c10, mask_e1[v]));
      const V cand_a = Ops::minf(Ops::addf(pred_a[v], bm_a), inf_v);
      const V cand_b = Ops::minf(Ops::addf(pred_b[v], bm_b), inf_v);
      // Strictly-less wins for B, exactly like the reference's ordered
      // `cand < stored` after A has been stored.
      const V b_wins = Ops::cmpltf(cand_b, cand_a);
      const unsigned mask = Ops::movemaskf(b_wins);
      word |= static_cast<std::uint64_t>(mask) << (v * kL);
      metric[v] = Ops::minf(cand_a, cand_b);
    }
    survivors[t] = word;
  }

  for (std::size_t v = 0; v < kNV; ++v)
    Ops::storeuf(final_metrics + v * kL, metric[v]);
}

}  // namespace rjf::dsp::simd
