// SIMD Viterbi equivalence and golden-vector tests (DESIGN.md section 12).
//
// viterbi_decode / viterbi_decode_soft dispatch to the lane-parallel ACS
// kernels when the CPU supports them; the scalar loops exposed as
// viterbi_decode_reference / viterbi_decode_soft_reference are the
// semantic authority.  Hard decisions must be BIT-IDENTICAL to the
// reference on every input (the u8 kernel's saturating renormalisation is
// exact, not approximate); the soft kernel replicates the reference's
// float arithmetic operation-for-operation, so its outputs are
// bit-identical too.
//
// Most tests here run the tier active_isa() picked; the ViterbiTiers suite
// pins every tier the host runs, scalar included, so a narrower tier is
// checked on a host whose dispatcher would never pick it.
//
// The suite names contain "Viterbi" so the ASan+UBSan CI job's test
// filter picks them up: the u8 kernel leans on saturating arithmetic and
// reinterpreted vector lanes, exactly the territory UBSan watches.
#include "phy80211/convolutional.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <vector>

#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/viterbi.h"
#include "tests/simd_tiers.h"

namespace rjf::phy80211 {
namespace {

Bits random_bits(std::size_t n, std::uint64_t seed) {
  Bits bits(n);
  dsp::Xoshiro256 rng(seed);
  for (auto& b : bits) b = rng.uniform() < 0.5 ? 0 : 1;
  return bits;
}

Bits with_tail(Bits data) {
  for (int k = 0; k < 6; ++k) data.push_back(0);
  return data;
}

// Ideal LLRs for a hard mother-rate stream: bit 1 -> +mag, bit 0 -> -mag,
// erasure (2) -> 0.
std::vector<float> to_llrs(const Bits& mother, float mag) {
  std::vector<float> llrs(mother.size());
  for (std::size_t k = 0; k < mother.size(); ++k)
    llrs[k] = mother[k] == 2 ? 0.0f : (mother[k] ? mag : -mag);
  return llrs;
}

// ---- hard-decision kernel vs reference -------------------------------------

TEST(ViterbiSimd, HardBitIdenticalToReferenceOnRandomNoisyInputs) {
  dsp::Xoshiro256 rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    const Bits data = with_tail(random_bits(240, 100 + trial));
    Bits mother = convolutional_encode(data);
    // Sprinkle errors and erasures well past the correction radius: the
    // decoded bits may be wrong, but SIMD and reference must be wrong
    // IDENTICALLY.
    for (auto& b : mother) {
      const double r = rng.uniform();
      if (r < 0.15)
        b ^= 1;
      else if (r < 0.25)
        b = 2;
    }
    EXPECT_EQ(viterbi_decode(mother), viterbi_decode_reference(mother))
        << "trial " << trial << " on "
        << dsp::simd::isa_name(dsp::simd::active_isa());
  }
}

TEST(ViterbiSimd, HardBitIdenticalAcrossRenormBoundary) {
  // The u8 kernel renormalises its path metrics every 64 steps; inputs
  // shorter, equal to, and far past that interval must all match the
  // reference exactly (the renorm subtracts a common term and cannot
  // change any comparison).
  for (const std::size_t n_info : {3u, 5u, 32u, 64u, 65u, 400u, 2000u}) {
    const Bits data = random_bits(n_info, n_info);
    Bits mother = convolutional_encode(data);
    for (std::size_t k = 7; k < mother.size(); k += 13) mother[k] ^= 1;
    EXPECT_EQ(viterbi_decode(mother), viterbi_decode_reference(mother))
        << "n_info=" << n_info;
  }
}

TEST(ViterbiSimd, HardHandlesOutOfRangeSymbolsLikeReference) {
  // Symbol values > 2 are not produced by depuncture() but must not
  // diverge if they ever appear; both paths treat them alike.
  Bits mother = convolutional_encode(with_tail(random_bits(60, 3)));
  mother[4] = 3;
  mother[17] = 200;
  mother[33] = 255;
  EXPECT_EQ(viterbi_decode(mother), viterbi_decode_reference(mother));
}

// ---- soft-decision golden vectors ------------------------------------------

class ViterbiSoftGolden : public ::testing::TestWithParam<CodeRate> {};

// Clean punctured LLR stream: depuncture_soft() zeroes the punctured
// positions (the 2/3 and 3/4 erasure masks) and the decoder must return
// exactly the transmitted bits — the golden output is the message itself.
TEST_P(ViterbiSoftGolden, PuncturedCleanStreamDecodesToMessage) {
  const CodeRate rate = GetParam();
  const Bits data = with_tail(random_bits(240, 31));
  const Bits mother = convolutional_encode(data);
  const Bits punctured = puncture(mother, rate);
  std::vector<float> llrs(punctured.size());
  for (std::size_t k = 0; k < punctured.size(); ++k)
    llrs[k] = punctured[k] ? 4.0f : -4.0f;
  const std::vector<float> full =
      depuncture_soft(llrs, rate, mother.size());
  const Bits decoded = viterbi_decode_soft(full);
  EXPECT_EQ(decoded, data);
  EXPECT_EQ(decoded, viterbi_decode_soft_reference(full));
}

// All-erasure tail: zero out the LLRs of the entire 6-bit (12 mother
// positions) tail on top of the puncture mask.  The tail carries no
// information of its own, so the message bits must still decode exactly.
TEST_P(ViterbiSoftGolden, AllErasureTailStillDecodesMessage) {
  const CodeRate rate = GetParam();
  const Bits data = with_tail(random_bits(120, 37));
  const Bits mother = convolutional_encode(data);
  const Bits punctured = puncture(mother, rate);
  std::vector<float> llrs(punctured.size());
  for (std::size_t k = 0; k < punctured.size(); ++k)
    llrs[k] = punctured[k] ? 2.5f : -2.5f;
  std::vector<float> full = depuncture_soft(llrs, rate, mother.size());
  for (std::size_t k = full.size() - 12; k < full.size(); ++k) full[k] = 0.0f;
  const Bits decoded = viterbi_decode_soft(full);
  const Bits reference = viterbi_decode_soft_reference(full);
  EXPECT_EQ(decoded, reference);
  for (std::size_t k = 0; k < data.size() - 6; ++k)
    EXPECT_EQ(decoded[k], data[k]) << "message bit " << k;
}

// Max-metric saturation: +/-1e30 LLRs drive the accumulated path metrics
// toward float infinity; the kernel's clamp must saturate exactly like
// the reference's and a clean stream must still decode to the message.
TEST_P(ViterbiSoftGolden, SaturatedMetricsMatchReference) {
  const CodeRate rate = GetParam();
  const Bits data = with_tail(random_bits(240, 41));
  const Bits mother = convolutional_encode(data);
  const Bits punctured = puncture(mother, rate);
  std::vector<float> llrs(punctured.size());
  for (std::size_t k = 0; k < punctured.size(); ++k)
    llrs[k] = punctured[k] ? 1e30f : -1e30f;
  const std::vector<float> full =
      depuncture_soft(llrs, rate, mother.size());
  const Bits decoded = viterbi_decode_soft(full);
  EXPECT_EQ(decoded, viterbi_decode_soft_reference(full));
  EXPECT_EQ(decoded, data);
}

INSTANTIATE_TEST_SUITE_P(PuncturedRates, ViterbiSoftGolden,
                         ::testing::Values(CodeRate::kTwoThirds,
                                           CodeRate::kThreeQuarters));

// ---- soft kernel vs reference on adversarial inputs ------------------------

TEST(ViterbiSimd, SoftBitIdenticalOnNoisyTiedAndNanInputs) {
  dsp::Xoshiro256 rng(55);
  const Bits data = with_tail(random_bits(240, 61));
  const Bits mother = convolutional_encode(data);
  std::vector<float> llrs = to_llrs(mother, 1.0f);
  for (auto& v : llrs) {
    const double r = rng.uniform();
    if (r < 0.2)
      v = 0.0f;  // exact tie
    else if (r < 0.3)
      v = -v;  // hard error
    else
      v *= static_cast<float>(rng.uniform() * 2.0);
  }
  // A NaN LLR poisons comparisons; the vector kernel must resolve every
  // min/survivor choice exactly as the reference's std::max/< do.
  llrs[19] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(viterbi_decode_soft(llrs), viterbi_decode_soft_reference(llrs));
}

TEST(ViterbiSimd, SoftShortInputsMatchReference) {
  for (const std::size_t n_info : {1u, 2u, 4u, 5u}) {
    const Bits data = random_bits(n_info, 70 + n_info);
    const Bits mother = convolutional_encode(data);
    const std::vector<float> llrs = to_llrs(mother, 3.0f);
    EXPECT_EQ(viterbi_decode_soft(llrs), viterbi_decode_soft_reference(llrs))
        << "n_info=" << n_info;
  }
}

// ---- every tier the host runs ----------------------------------------------

using dsp::simd::Isa;
using test::host_tiers;

constexpr std::uint64_t kTierSeed = 0x5EED'0021'7123u;

// A random trellis length: mostly short and ragged (no multiple of any
// lane count is favoured), now and then long enough to cross the u8
// kernel's 64-step renormalisation many times.
std::size_t random_steps(dsp::Xoshiro256& rng) {
  return rng.uniform_int(8) == 0 ? 300 + rng.uniform_int(1200)
                                 : rng.uniform_int(140);
}

// A hard mother-rate stream: half the rounds an encoded message with
// errors and erasures, half uniform symbols (tie-heavy); an odd trailing
// symbol now and then, and rare out-of-range symbol values.
Bits random_hard_stream(dsp::Xoshiro256& rng) {
  const std::size_t steps = random_steps(rng);
  Bits coded;
  if (rng.uniform_int(2) == 0) {
    Bits data(steps);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    coded = convolutional_encode(data);
    for (auto& b : coded) {
      const double r = rng.uniform();
      if (r < 0.1)
        b ^= 1;
      else if (r < 0.2)
        b = 2;
    }
  } else {
    coded.resize(2 * steps);
    for (auto& b : coded) b = static_cast<std::uint8_t>(rng.uniform_int(3));
  }
  if (rng.uniform_int(4) == 0) coded.push_back(1);
  for (auto& b : coded)
    if (rng.uniform_int(500) == 0)
      b = static_cast<std::uint8_t>(3 + rng.uniform_int(253));
  return coded;
}

// Soft LLRs: Gaussian magnitudes around an encoded message, exact-zero ties,
// and rarely +/-1e30, +/-inf or NaN.
std::vector<float> random_llrs(dsp::Xoshiro256& rng) {
  const std::size_t steps = random_steps(rng);
  Bits data(steps);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
  const Bits mother = convolutional_encode(data);
  std::vector<float> llrs(mother.size() + rng.uniform_int(2));
  for (std::size_t k = 0; k < llrs.size(); ++k) {
    const float sign = k < mother.size() && mother[k] ? 1.0f : -1.0f;
    llrs[k] = sign + static_cast<float>(rng.gaussian());
    switch (rng.uniform_int(200)) {
      case 0: llrs[k] = 0.0f; break;
      case 1: llrs[k] = sign * 1e30f; break;
      case 2: llrs[k] = sign * std::numeric_limits<float>::infinity(); break;
      case 3: llrs[k] = std::numeric_limits<float>::quiet_NaN(); break;
      default: break;
    }
  }
  return llrs;
}

TEST(ViterbiTiers, HardBitIdenticalToReferenceOnEveryTier) {
  for (const Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    // A vector tier must run its own kernel, not fall back to the
    // reference the comparison below is made against.
    const std::array<std::uint8_t, 6> probe = {0, 1, 2, 1, 1, 0};
    std::array<std::uint64_t, 3> survivors{};
    std::array<std::uint16_t, 64> finals{};
    EXPECT_EQ(dsp::simd::viterbi_hard_acs(isa, probe, survivors.data(),
                                          finals.data()),
              isa != Isa::kScalar);

    dsp::Xoshiro256 rng(dsp::derive_seed(kTierSeed, 1));
    for (int round = 0; round < 64; ++round) {
      const Bits coded = random_hard_stream(rng);
      ASSERT_EQ(viterbi_decode(coded, isa), viterbi_decode_reference(coded))
          << "round " << round << ", " << coded.size() << " symbols";
    }
  }
}

TEST(ViterbiTiers, SoftBitIdenticalToReferenceOnEveryTier) {
  for (const Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    const std::array<float, 6> probe = {-1.0f, 1.0f, 0.0f, 2.0f, 1.0f, -3.0f};
    std::array<std::uint64_t, 3> survivors{};
    std::array<float, 64> finals{};
    EXPECT_EQ(dsp::simd::viterbi_soft_acs(isa, probe, survivors.data(),
                                          finals.data()),
              isa != Isa::kScalar);

    dsp::Xoshiro256 rng(dsp::derive_seed(kTierSeed, 2));
    for (int round = 0; round < 64; ++round) {
      const std::vector<float> llrs = random_llrs(rng);
      ASSERT_EQ(viterbi_decode_soft(llrs, isa),
                viterbi_decode_soft_reference(llrs))
          << "round " << round << ", " << llrs.size() << " LLRs";
    }
  }
}

}  // namespace
}  // namespace rjf::phy80211
