#include "phy80211/convolutional.h"

#include <algorithm>
#include <array>
#include <limits>

#include "dsp/simd/viterbi.h"
#include "dsp/simd/viterbi_trellis.h"

namespace rjf::phy80211 {
namespace {

constexpr unsigned kG0 = 0133;  // 1011011
constexpr unsigned kG1 = 0171;  // 1111001
constexpr unsigned kStates = 64;

constexpr std::uint8_t parity(unsigned x) noexcept {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

// Puncturing patterns over one period of (A, B) output pairs.
// 2/3: period 2 input bits, transmit a0 b0 a1 (drop b1).
// 3/4: period 3 input bits, transmit a0 b0 a1 b2 (drop b1, a2).
struct PuncturePattern {
  std::size_t period;              // mother bits per period (2 * inputs)
  std::array<bool, 6> keep;        // keep mask over a0 b0 a1 b1 a2 b2
};

PuncturePattern pattern_for(CodeRate rate) noexcept {
  switch (rate) {
    case CodeRate::kHalf:
      return {2, {true, true, false, false, false, false}};
    case CodeRate::kTwoThirds:
      return {4, {true, true, true, false, false, false}};
    case CodeRate::kThreeQuarters:
      return {6, {true, true, true, false, false, true}};
  }
  return {2, {true, true, false, false, false, false}};
}

}  // namespace

Bits convolutional_encode(std::span<const std::uint8_t> data) {
  Bits out;
  out.reserve(data.size() * 2);
  unsigned shift = 0;  // bit0 = most recent input
  for (const std::uint8_t bit : data) {
    shift = ((shift << 1) | (bit & 1u)) & 0x7F;
    out.push_back(parity(shift & kG0));
    out.push_back(parity(shift & kG1));
  }
  return out;
}

Bits puncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  const PuncturePattern p = pattern_for(rate);
  Bits out;
  out.reserve(coded.size());
  for (std::size_t k = 0; k < coded.size(); ++k)
    if (p.keep[k % p.period]) out.push_back(coded[k]);
  return out;
}

Bits depuncture(std::span<const std::uint8_t> punctured, CodeRate rate,
                std::size_t n_mother) {
  const PuncturePattern p = pattern_for(rate);
  Bits out(n_mother, 2);  // 2 == erasure
  std::size_t src = 0;
  for (std::size_t k = 0; k < n_mother && src < punctured.size(); ++k)
    if (p.keep[k % p.period]) out[k] = punctured[src++];
  return out;
}

namespace {

// Traceback over the packed survivor words the SIMD ACS kernels emit: bit
// `state` of survivors[t] is the evicted bit stored for that state, i.e.
// the same value the reference keeps in survivor[t][state].
Bits traceback_packed(const std::vector<std::uint64_t>& survivors,
                      unsigned state) {
  const std::size_t n_steps = survivors.size();
  Bits decoded(n_steps, 0);
  for (std::size_t t = n_steps; t-- > 0;) {
    const unsigned evicted =
        static_cast<unsigned>((survivors[t] >> state) & 1u);
    decoded[t] = static_cast<std::uint8_t>(state & 1u);
    state = (state >> 1) | (evicted << 5);
  }
  return decoded;
}

}  // namespace

Bits viterbi_decode(std::span<const std::uint8_t> coded,
                    dsp::simd::Isa isa) {
  const std::size_t n_steps = coded.size() / 2;
  if (isa != dsp::simd::Isa::kScalar) {
    std::vector<std::uint64_t> survivors(n_steps);
    std::array<std::uint16_t, kStates> finals;
    if (dsp::simd::viterbi_hard_acs(isa, coded, survivors.data(),
                                    finals.data())) {
      // Terminate in state 0, like the reference. State 0 is always live
      // (the all-zero path has finite cost), so the reference's
      // best-state fallback is unreachable; keep it anyway for parity.
      unsigned state = 0;
      if (finals[0] >= dsp::simd::kVitDead)
        state = static_cast<unsigned>(
            std::min_element(finals.begin(), finals.end()) - finals.begin());
      return traceback_packed(survivors, state);
    }
  }
  return viterbi_decode_reference(coded);
}

Bits viterbi_decode_reference(std::span<const std::uint8_t> coded) {
  const std::size_t n_steps = coded.size() / 2;
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 4;

  // Precompute expected output pair per (state, input).
  std::array<std::array<std::uint8_t, 2>, kStates * 2> expected{};
  for (unsigned state = 0; state < kStates; ++state) {
    for (unsigned input = 0; input < 2; ++input) {
      const unsigned shift = ((state << 1) | input) & 0x7F;
      expected[state * 2 + input] = {parity(shift & kG0), parity(shift & kG1)};
    }
  }

  std::vector<std::uint32_t> metric(kStates, kInf);
  std::vector<std::uint32_t> next_metric(kStates, kInf);
  metric[0] = 0;  // encoder starts zeroed
  // survivor[t][state] = input bit chosen to reach `state` at step t+1,
  // plus the predecessor's low bits implied by the trellis structure.
  std::vector<std::vector<std::uint8_t>> survivor(
      n_steps, std::vector<std::uint8_t>(kStates, 0));

  for (std::size_t t = 0; t < n_steps; ++t) {
    const std::uint8_t r0 = coded[2 * t];
    const std::uint8_t r1 = coded[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    for (unsigned state = 0; state < kStates; ++state) {
      if (metric[state] >= kInf) continue;
      for (unsigned input = 0; input < 2; ++input) {
        const auto& exp = expected[state * 2 + input];
        std::uint32_t branch = 0;
        if (r0 != 2 && exp[0] != r0) ++branch;
        if (r1 != 2 && exp[1] != r1) ++branch;
        // Next state: shift register gains `input`, drops the oldest bit.
        const unsigned next = ((state << 1) | input) & (kStates - 1);
        const std::uint32_t cand = metric[state] + branch;
        if (cand < next_metric[next]) {
          next_metric[next] = cand;
          survivor[t][next] =
              static_cast<std::uint8_t>((state >> 5) & 1u);  // evicted bit
        }
      }
    }
    metric.swap(next_metric);
  }

  // Terminate in state 0 (tail bits force it); fall back to the best state
  // if the tail was corrupted beyond repair.
  unsigned state = 0;
  if (metric[0] >= kInf)
    state = static_cast<unsigned>(
        std::min_element(metric.begin(), metric.end()) - metric.begin());

  // Traceback: at each step the decoded input is the state's LSB, and the
  // predecessor is recovered by shifting in the stored evicted bit.
  Bits decoded(n_steps, 0);
  for (std::size_t t = n_steps; t-- > 0;) {
    decoded[t] = static_cast<std::uint8_t>(state & 1u);
    state = (state >> 1) | (static_cast<unsigned>(survivor[t][state]) << 5);
  }
  return decoded;
}

std::vector<float> depuncture_soft(std::span<const float> llrs, CodeRate rate,
                                   std::size_t n_mother) {
  const PuncturePattern p = pattern_for(rate);
  std::vector<float> out(n_mother, 0.0f);
  std::size_t src = 0;
  for (std::size_t k = 0; k < n_mother && src < llrs.size(); ++k)
    if (p.keep[k % p.period]) out[k] = llrs[src++];
  return out;
}

Bits viterbi_decode_soft(std::span<const float> llrs, dsp::simd::Isa isa) {
  const std::size_t n_steps = llrs.size() / 2;
  if (isa != dsp::simd::Isa::kScalar) {
    std::vector<std::uint64_t> survivors(n_steps);
    std::array<float, kStates> finals;
    if (dsp::simd::viterbi_soft_acs(isa, llrs, survivors.data(),
                                    finals.data())) {
      unsigned state = 0;
      if (finals[0] >= dsp::simd::kVitSoftInf)
        state = static_cast<unsigned>(
            std::min_element(finals.begin(), finals.end()) - finals.begin());
      return traceback_packed(survivors, state);
    }
  }
  return viterbi_decode_soft_reference(llrs);
}

Bits viterbi_decode_soft_reference(std::span<const float> llrs) {
  const std::size_t n_steps = llrs.size() / 2;
  constexpr float kInf = 1e30f;

  std::array<std::array<std::uint8_t, 2>, kStates * 2> expected{};
  for (unsigned state = 0; state < kStates; ++state) {
    for (unsigned input = 0; input < 2; ++input) {
      const unsigned shift = ((state << 1) | input) & 0x7F;
      expected[state * 2 + input] = {parity(shift & kG0), parity(shift & kG1)};
    }
  }

  std::vector<float> metric(kStates, kInf);
  std::vector<float> next_metric(kStates, kInf);
  metric[0] = 0.0f;
  std::vector<std::vector<std::uint8_t>> survivor(
      n_steps, std::vector<std::uint8_t>(kStates, 0));

  for (std::size_t t = 0; t < n_steps; ++t) {
    const float l0 = llrs[2 * t];
    const float l1 = llrs[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    for (unsigned state = 0; state < kStates; ++state) {
      if (metric[state] >= kInf) continue;
      for (unsigned input = 0; input < 2; ++input) {
        const auto& exp = expected[state * 2 + input];
        // Cost of the expected bit disagreeing with the LLR's sign,
        // weighted by the LLR magnitude (max-log metric).
        float branch = 0.0f;
        branch += exp[0] ? std::max(-l0, 0.0f) : std::max(l0, 0.0f);
        branch += exp[1] ? std::max(-l1, 0.0f) : std::max(l1, 0.0f);
        const unsigned next = ((state << 1) | input) & (kStates - 1);
        const float cand = metric[state] + branch;
        if (cand < next_metric[next]) {
          next_metric[next] = cand;
          survivor[t][next] =
              static_cast<std::uint8_t>((state >> 5) & 1u);
        }
      }
    }
    metric.swap(next_metric);
  }

  unsigned state = 0;
  if (metric[0] >= kInf)
    state = static_cast<unsigned>(
        std::min_element(metric.begin(), metric.end()) - metric.begin());

  Bits decoded(n_steps, 0);
  for (std::size_t t = n_steps; t-- > 0;) {
    decoded[t] = static_cast<std::uint8_t>(state & 1u);
    state = (state >> 1) | (static_cast<unsigned>(survivor[t][state]) << 5);
  }
  return decoded;
}

Bits decode_at_rate_soft(std::span<const float> llrs, CodeRate rate,
                         std::size_t n_data_bits) {
  const std::vector<float> mother =
      depuncture_soft(llrs, rate, n_data_bits * 2);
  return viterbi_decode_soft(mother);
}

Bits encode_at_rate(std::span<const std::uint8_t> data, CodeRate rate) {
  return puncture(convolutional_encode(data), rate);
}

Bits decode_at_rate(std::span<const std::uint8_t> punctured, CodeRate rate,
                    std::size_t n_data_bits) {
  const Bits mother = depuncture(punctured, rate, n_data_bits * 2);
  return viterbi_decode(mother);
}

}  // namespace rjf::phy80211
