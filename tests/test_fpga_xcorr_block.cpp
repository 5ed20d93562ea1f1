// Seeded differential for the correlator's block entry point
// (CrossCorrelator::metrics, DESIGN.md "Host fast path"): on random
// templates, thresholds, streams and chunk splits, every metric, every
// trigger and the carried sign history must equal a step() loop and the
// scalar step_reference() model, whichever SIMD tier serves metrics().
//
// Each differential runs once per SIMD tier the host supports, so one run
// covers every kernel it can execute plus the step() fallback. The suite
// name contains "CrossCorrelator" so the ASan+UBSan and Debug CI filters
// pick it up.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/xcorr.h"
#include "fpga/cross_correlator.h"
#include "fpga/register_file.h"
#include "tests/simd_tiers.h"

namespace rjf::fpga {
namespace {

constexpr std::uint64_t kSeed = 0xB10CC0DEULL;

// Raw 16-bit rails, with the sign-slice edge values (0, +/-1, both
// extremes) drawn often enough to matter.
dsp::IQ16 random_sample(dsp::Xoshiro256& rng) {
  constexpr std::int16_t kEdges[] = {0, 1, -1,
                                     std::numeric_limits<std::int16_t>::min(),
                                     std::numeric_limits<std::int16_t>::max()};
  auto rail = [&] {
    if (rng.uniform_int(4) == 0) return kEdges[rng.uniform_int(5)];
    return static_cast<std::int16_t>(rng.next() & 0xFFFFu);
  };
  const std::int16_t i = rail();
  const std::int16_t q = rail();
  return {i, q};
}

// Chunk lengths: half short (0-9, so 0 and every non-multiple of 8 below
// a vector group occur), half long enough to cross the kernel's 64-sample
// chunks and run_block's 256-sample sub-blocks.
std::size_t random_chunk(dsp::Xoshiro256& rng) {
  return rng.uniform_int(2) == 0 ? rng.uniform_int(10) : rng.uniform_int(301);
}

// Every SIMD tier this host runs, scalar (the step() fallback) included.
using test::host_tiers;

// Three instances of one configuration: `block` driven through metrics()
// on tier `isa` (and now and then step(), which must interleave), `step`
// through step(), `ref` through step_reference().
struct Trio {
  explicit Trio(dsp::simd::Isa isa) : block(isa) {}
  CrossCorrelator block;
  CrossCorrelator step;
  CrossCorrelator ref;

  template <class F>
  void each(F&& f) {
    f(block);
    f(step);
    f(ref);
  }
};

void run_differential(Trio& t, dsp::Xoshiro256& rng, std::size_t n_samples,
                      const char* what) {
  std::vector<dsp::IQ16> chunk;
  std::vector<std::uint32_t> metric;
  std::size_t done = 0;
  while (done < n_samples) {
    chunk.resize(random_chunk(rng));
    for (auto& s : chunk) s = random_sample(rng);
    // A sentinel past the end catches a kernel writing beyond rx.size().
    metric.assign(chunk.size() + 1, 0xDEADBEEFu);
    const bool via_step = rng.uniform_int(8) == 0;
    if (via_step) {
      for (std::size_t n = 0; n < chunk.size(); ++n)
        metric[n] = t.block.step(chunk[n]).metric;
    } else {
      t.block.metrics(chunk, std::span(metric).first(chunk.size()));
    }
    ASSERT_EQ(metric.back(), 0xDEADBEEFu) << what << " at sample " << done;
    for (std::size_t n = 0; n < chunk.size(); ++n) {
      const auto a = t.step.step(chunk[n]);
      const auto b = t.ref.step_reference(chunk[n]);
      ASSERT_EQ(metric[n], a.metric) << what << " sample " << done + n;
      ASSERT_EQ(metric[n], b.metric) << what << " sample " << done + n;
      ASSERT_EQ(metric[n] > t.block.threshold(), a.trigger)
          << what << " sample " << done + n;
      ASSERT_EQ(a.trigger, b.trigger) << what << " sample " << done + n;
    }
    ASSERT_EQ(t.block.history_i(), t.step.history_i())
        << what << " after sample " << done + chunk.size();
    ASSERT_EQ(t.block.history_q(), t.step.history_q())
        << what << " after sample " << done + chunk.size();
    done += chunk.size();
  }
}

CorrelatorTemplate random_template(dsp::Xoshiro256& rng) {
  CorrelatorTemplate tpl;
  for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
    tpl.coef_i[k] = static_cast<int>(rng.uniform_int(8)) - 4;
    tpl.coef_q[k] = static_cast<int>(rng.uniform_int(8)) - 4;
  }
  return tpl;
}

// A random template at a random threshold (the metric range's ends
// included), then a random stream in random chunks.
void random_template_round(dsp::simd::Isa isa, std::uint64_t round) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, round));
  const CorrelatorTemplate tpl = random_template(rng);
  Trio t(isa);
  t.each([&](CrossCorrelator& c) {
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
  });
  std::uint32_t threshold = 0;
  switch (rng.uniform_int(4)) {
    case 0: threshold = 0; break;
    case 1: threshold = std::numeric_limits<std::uint32_t>::max(); break;
    default:
      threshold = static_cast<std::uint32_t>(
          rng.uniform_int(t.block.max_metric() + 1ULL));
  }
  t.each([&](CrossCorrelator& c) { c.set_threshold(threshold); });
  run_differential(t, rng, 2000, "random template");
}

// Any 32-bit word in the 16 coefficient registers and the threshold
// register: the 4-bit fields decode to 3-bit coefficients (bit 3 is a
// spare) and every path must agree on what the fabric computes.
void raw_register_round(dsp::simd::Isa isa, std::uint64_t round) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed ^ 0x4E6ULL, round));
  RegisterFile regs;
  for (auto r = static_cast<std::uint8_t>(Reg::kXcorrCoefI0);
       r <= static_cast<std::uint8_t>(Reg::kXcorrThreshold); ++r)
    regs.write(static_cast<Reg>(r),
               static_cast<std::uint32_t>(rng.next() >> 32));
  // A raw threshold word is mostly far above any metric; pull every other
  // round into the metric range so triggers occur.
  if (round % 2 == 0)
    regs.write(Reg::kXcorrThreshold,
               static_cast<std::uint32_t>(rng.uniform_int(1u << 14)));
  Trio t(isa);
  t.each([&](CrossCorrelator& c) { c.load_from_registers(regs); });
  run_differential(t, rng, 1500, "raw registers");
}

void reset_round(dsp::simd::Isa isa) {
  dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 1000));
  const CorrelatorTemplate tpl = random_template(rng);
  Trio t(isa);
  t.each([&](CrossCorrelator& c) {
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
    c.set_threshold(1u << 12);
  });
  for (int pass = 0; pass < 4; ++pass) {
    run_differential(t, rng, 500, "before reset");
    t.each([](CrossCorrelator& c) { c.reset(); });
    ASSERT_EQ(t.block.history_i(), CrossCorrelator::SignHistory());
    ASSERT_EQ(t.block.history_q(), CrossCorrelator::SignHistory());
  }
}

TEST(CrossCorrelatorBlock, MatchesStepOnRandomTemplatesAndSplits) {
  for (const dsp::simd::Isa isa : host_tiers()) {
    for (std::uint64_t round = 0; round < 24; ++round) {
      SCOPED_TRACE(std::string(dsp::simd::isa_name(isa)) + " round " +
                   std::to_string(round));
      random_template_round(isa, round);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CrossCorrelatorBlock, MatchesStepAfterRawRegisterWrites) {
  for (const dsp::simd::Isa isa : host_tiers()) {
    for (std::uint64_t round = 0; round < 16; ++round) {
      SCOPED_TRACE(std::string(dsp::simd::isa_name(isa)) + " round " +
                   std::to_string(round));
      raw_register_round(isa, round);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CrossCorrelatorBlock, ResetBetweenCallsClearsCarriedHistory) {
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    reset_round(isa);
    if (HasFatalFailure()) return;
  }
}

TEST(CrossCorrelatorBlock, EmptyBlockChangesNothing) {
  for (const dsp::simd::Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    CrossCorrelator c(isa);
    dsp::Xoshiro256 rng(dsp::derive_seed(kSeed, 2000));
    for (int n = 0; n < 70; ++n) (void)c.step(random_sample(rng));
    const auto hi = c.history_i();
    const auto hq = c.history_q();
    c.metrics({}, {});
    EXPECT_EQ(c.history_i(), hi);
    EXPECT_EQ(c.history_q(), hq);
  }
}

TEST(CrossCorrelatorBlock, EveryVectorTierFromAvx2UpHasAKernel) {
  // So the differentials above cover a kernel on every AVX2 or wider
  // tier this host runs; scalar runs the step() loop.
  using dsp::simd::Isa;
  for (const Isa isa : host_tiers()) {
    SCOPED_TRACE(dsp::simd::isa_name(isa));
    EXPECT_EQ(dsp::simd::xcorr_block_kernel(isa) != nullptr,
              static_cast<int>(isa) >= static_cast<int>(Isa::kAvx2));
  }
}

}  // namespace
}  // namespace rjf::fpga
