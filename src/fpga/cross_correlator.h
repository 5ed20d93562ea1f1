// 64-sample sign-bit weighted phase correlator (paper Fig. 3).
//
// Derived from the WARP OFDM Reference Design v15 correlator: incoming
// 16-bit I/Q samples are sliced to their sign bits (1-bit signed values),
// correlated against a template of 64 3-bit signed coefficients per rail,
// combined into a complex correlation, squared, and compared against a
// host-programmable threshold. The paper extends the WARP core with
// run-time coefficient loading over the user register bus — modelled here
// by reading the coefficient banks from the RegisterFile before each run
// (load_from_registers()).
//
// Host fast path (see DESIGN.md "Host fast path"): because the datapath is
// exactly 1-bit signs against 3-bit coefficients, the 64-tap complex
// correlation collapses to bit-plane arithmetic. The sign history of each
// rail lives in one uint64_t (one bit per tap) and each coefficient bank is
// decomposed at load time into three 64-bit plane masks (the two's-complement
// bits of the 3-bit values, weights +1, +2, -4). step() then computes every
// sign/coefficient dot product as a handful of AND + popcount operations —
// bit-identical to the scalar shift-register model, which is preserved as
// step_reference() for equivalence testing. metrics() runs a whole block of
// samples through the batched kernel of the host's SIMD tier (dsp/simd/
// xcorr.h, picked once at construction), falling back to a step() loop.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "dsp/simd/xcorr.h"
#include "dsp/types.h"
#include "fpga/hw_int.h"
#include "fpga/register_file.h"

namespace rjf::fpga {

inline constexpr std::size_t kCorrelatorLength = 64;
// Circular indexing in the reference model uses a mask, so the tap count
// must stay a power of two (it also must fit one bit per tap in a uint64_t
// for the bit-parallel fast path).
static_assert(std::has_single_bit(kCorrelatorLength));
static_assert(kCorrelatorLength <= 64);
inline constexpr std::size_t kCorrelatorMask = kCorrelatorLength - 1;

class CrossCorrelator {
 public:
  // Datapath widths (paper Fig. 3): 1-bit sign slices over a 64-tap window,
  // 3-bit signed coefficients, so each rail's dot product is at most 512 in
  // magnitude (Int<13> after the plane arithmetic, Int<14> for the summed
  // complex rail) and the squared metric wraps into the 32-bit register.
  using Coef = hw::Int<3>;
  using SignHistory = hw::UInt<kCorrelatorLength>;

  CrossCorrelator() noexcept;
  /// metrics() runs the batched kernel of SIMD tier `isa` (the default is
  /// the host's active tier; a tier without a kernel runs step() per
  /// sample). Equivalence tests pin each tier this way.
  explicit CrossCorrelator(dsp::simd::Isa isa) noexcept;

  /// Latch the coefficient banks and threshold from the register file,
  /// mirroring the run-time loading path the paper added to the WARP core.
  void load_from_registers(const RegisterFile& regs) noexcept;

  /// Directly install a template (used by unit tests and ablations).
  void set_coefficients(std::span<const int> coef_i,
                        std::span<const int> coef_q) noexcept;
  void set_threshold(std::uint32_t threshold) noexcept { threshold_ = threshold; }
  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }

  struct Output {
    std::uint32_t metric = 0;  // |correlation|^2
    bool trigger = false;      // metric > threshold
  };

  /// Clock in one baseband sample (one 25 MSPS strobe). The metric reflects
  /// the most recent kCorrelatorLength samples. Bit-parallel fast path;
  /// defined inline so the block-processing loop keeps the plane masks and
  /// sign words in registers.
  // rjf: realtime
  Output step(dsp::IQ16 sample) noexcept {
    // MSB slice (Fig. 3): shift the new sign bit in at the bottom; the tap
    // that ages out of the 64-sample window falls off the top.
    neg_i_ = hw::shift_in(neg_i_, sample.i < 0);
    neg_q_ = hw::shift_in(neg_q_, sample.q < 0);

    // s * conj(c): re = <si,ci> + <sq,cq>, im = <sq,ci> - <si,cq>, each dot
    // product evaluated across the three coefficient bit-planes.
    const hw::Int<14> re = dot(neg_i_, planes_i_) + dot(neg_q_, planes_q_);
    const hw::Int<14> im = dot(neg_q_, planes_i_) - dot(neg_i_, planes_q_);

    Output out;
    // Square in the exact widened type (Int<14> squares to Int<28>, the sum
    // is Int<29>) and wrap into the 32-bit metric register the way the RTL
    // accumulator does. |corr|^2 is non-negative and bounded by 2*512^2, so
    // the wrap is value-preserving; the old spelling squared in int32_t,
    // which is signed-overflow UB for |re| > 46340 before the cast.
    out.metric = hw::wrap_u<32>(re * re + im * im).value();
    out.trigger = out.metric > threshold_;
    return out;
  }

  /// Block entry point: clock in every sample of `rx` and write the metric
  /// step() would return for each into `metric` (which must hold
  /// rx.size() entries; the trigger is metric[n] > threshold()). Carries
  /// the sign history across calls and interleaves freely with step(), so
  /// outputs are bit-identical to a step() loop however a stream is split.
  void metrics(std::span<const dsp::IQ16> rx,
               std::span<std::uint32_t> metric) noexcept;

  /// Scalar shift-register model of the same datapath. Maintains its own
  /// delay-line state, so drive a given instance through either step() or
  /// step_reference(), never both; equivalence tests run two instances on
  /// the same stream and compare outputs.
  Output step_reference(dsp::IQ16 sample) noexcept;

  void reset() noexcept;

  /// Peak achievable metric for the installed template (all signs agree).
  /// Cached at coefficient-load time.
  [[nodiscard]] std::uint32_t max_metric() const noexcept { return max_metric_; }

  /// The carried sign histories of step()/metrics() (bit 0 newest, a set
  /// bit means the rail was negative).
  [[nodiscard]] SignHistory history_i() const noexcept { return neg_i_; }
  [[nodiscard]] SignHistory history_q() const noexcept { return neg_q_; }

 private:
  /// Recompute the bit-plane masks, coefficient sums, and cached max_metric
  /// after a coefficient load.
  void rebuild_derived() noexcept;

  // One coefficient bank decomposed into two's-complement bit-planes.
  // Coefficient k occupies bit (kCorrelatorLength-1-k) of each mask so the
  // oldest tap lines up with the top of the shifted-in sign history.
  struct BitPlanes {
    SignHistory b0;  // weight +1
    SignHistory b1;  // weight +2
    SignHistory b2;  // weight -4 (sign bit of the 3-bit value)
    hw::Int<9> coef_sum;  // dot product when every sign is +1, |.| <= 256
  };

  /// Dot product of a +/-1 sign vector (packed as "negative" bits) with a
  /// coefficient bank: sum_k sign[k]*coef[k]. Every width below is exact by
  /// construction: popcounts are 7 bits, the plane-weighted negative sum is
  /// Int<11>, and the result lands in Int<13> (|dot| <= 512).
  [[nodiscard]] static hw::Int<13> dot(SignHistory neg,
                                       const BitPlanes& p) noexcept {
    // sign[k] = 1 - 2*neg[k], so the dot is the all-positive sum minus
    // twice the (plane-weighted) sum over the negative taps.
    const auto n0 = hw::popcount(neg & p.b0).to_signed();
    const auto n1 = hw::popcount(neg & p.b1).to_signed();
    const auto n2 = hw::popcount(neg & p.b2).to_signed();
    const auto neg_sum = n0 + n1.shl<1>() - n2.shl<2>();
    return p.coef_sum - neg_sum.shl<1>();
  }

  std::array<Coef, kCorrelatorLength> coef_i_{};
  std::array<Coef, kCorrelatorLength> coef_q_{};

  // Bit-parallel state: sign history packed one bit per tap, bit 0 newest,
  // bit 63 oldest; a set bit means the rail was negative.
  SignHistory neg_i_;
  SignHistory neg_q_;
  BitPlanes planes_i_;
  BitPlanes planes_q_;

  // Scalar reference state (step_reference() only); +1/-1 delay lines.
  std::array<hw::Int<2>, kCorrelatorLength> sign_i_{};
  std::array<hw::Int<2>, kCorrelatorLength> sign_q_{};
  std::size_t pos_ = 0;

  std::uint32_t threshold_ = 0xFFFFFFFFu;
  std::uint32_t max_metric_ = 0;

  // metrics()'s batched kernel, picked at construction; nullptr runs
  // step() per sample.
  dsp::simd::XcorrBlockFn block_kernel_;
};

/// A quantised 64-tap coefficient set, ready for the register bus. Produced
/// offline on the host (paper §2.3: "generated offline on the host based on
/// knowledge of the wireless standards' preambles") by core::make_template
/// in core/fabric_units.h — the float-domain quantiser lives on the host
/// side of the bus, never in the fabric model.
struct CorrelatorTemplate {
  std::array<int, kCorrelatorLength> coef_i{};
  std::array<int, kCorrelatorLength> coef_q{};
};

/// Write a template into the coefficient registers.
void program_template(RegisterFile& regs, const CorrelatorTemplate& tpl) noexcept;

}  // namespace rjf::fpga
