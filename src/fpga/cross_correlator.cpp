#include "fpga/cross_correlator.h"

namespace rjf::fpga {

CrossCorrelator::CrossCorrelator() noexcept
    : CrossCorrelator(dsp::simd::active_isa()) {}

CrossCorrelator::CrossCorrelator(dsp::simd::Isa isa) noexcept
    : block_kernel_(dsp::simd::xcorr_block_kernel(isa)) {
  sign_i_.fill(hw::Int<2>(1));
  sign_q_.fill(hw::Int<2>(1));
}

void CrossCorrelator::load_from_registers(const RegisterFile& regs) noexcept {
  for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
    // RegisterFile::coefficient() decodes to the 3-bit signed range by
    // contract; the checked constructor enforces it in debug builds.
    coef_i_[k] = Coef(regs.coefficient(false, k));
    coef_q_[k] = Coef(regs.coefficient(true, k));
  }
  threshold_ = regs.read(Reg::kXcorrThreshold);
  rebuild_derived();
}

void CrossCorrelator::set_coefficients(std::span<const int> coef_i,
                                       std::span<const int> coef_q) noexcept {
  for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
    coef_i_[k] = hw::sat_s<3>(k < coef_i.size() ? coef_i[k] : 0);
    coef_q_[k] = hw::sat_s<3>(k < coef_q.size() ? coef_q[k] : 0);
  }
  rebuild_derived();
}

void CrossCorrelator::rebuild_derived() noexcept {
  planes_i_ = BitPlanes{};
  planes_q_ = BitPlanes{};
  hw::UInt<10> peak;  // sum of |ci| + |cq| over 64 taps, at most 512
  for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
    // Coefficient k aligns with the sample that is (kCorrelatorLength-1-k)
    // strobes old, i.e. bit (kCorrelatorLength-1-k) of the sign words.
    const SignHistory bit(std::uint64_t{1} << (kCorrelatorLength - 1 - k));
    const hw::UInt<3> ci = hw::wrap_u<3>(coef_i_[k]);  // two's-complement bits
    const hw::UInt<3> cq = hw::wrap_u<3>(coef_q_[k]);
    if ((ci.u64() & 1u) != 0) planes_i_.b0 = planes_i_.b0 | bit;
    if ((ci.u64() & 2u) != 0) planes_i_.b1 = planes_i_.b1 | bit;
    if ((ci.u64() & 4u) != 0) planes_i_.b2 = planes_i_.b2 | bit;
    if ((cq.u64() & 1u) != 0) planes_q_.b0 = planes_q_.b0 | bit;
    if ((cq.u64() & 2u) != 0) planes_q_.b1 = planes_q_.b1 | bit;
    if ((cq.u64() & 4u) != 0) planes_q_.b2 = planes_q_.b2 | bit;
    planes_i_.coef_sum = (planes_i_.coef_sum + coef_i_[k]).narrow<9>();
    planes_q_.coef_sum = (planes_q_.coef_sum + coef_q_[k]).narrow<9>();
    // If every sign pair aligns with the template phase, both rails
    // contribute their magnitudes fully to the real accumulator.
    peak = (peak + coef_i_[k].abs() + coef_q_[k].abs()).narrow<10>();
  }
  max_metric_ = (peak * peak).zext<32>().value();
}

// rjf: realtime
void CrossCorrelator::metrics(std::span<const dsp::IQ16> rx,
                              std::span<std::uint32_t> metric) noexcept {
  if (metric.size() < rx.size()) rx = rx.first(metric.size());
  if (block_kernel_ == nullptr) {
    for (std::size_t n = 0; n < rx.size(); ++n) metric[n] = step(rx[n]).metric;
    return;
  }
  const dsp::simd::XcorrPlanes planes{
      {planes_i_.b0.value(), planes_i_.b1.value(), planes_i_.b2.value()},
      {planes_q_.b0.value(), planes_q_.b1.value(), planes_q_.b2.value()},
      planes_i_.coef_sum.value(),
      planes_q_.coef_sum.value()};
  dsp::simd::SignWords history{neg_i_.value(), neg_q_.value()};
  block_kernel_(planes, history, rx, metric);
  neg_i_ = SignHistory(history.i);
  neg_q_ = SignHistory(history.q);
}

CrossCorrelator::Output CrossCorrelator::step_reference(
    dsp::IQ16 sample) noexcept {
  // MSB slice: 1-bit signed representation of each rail (Fig. 3).
  sign_i_[pos_] = hw::Int<2>(sample.i < 0 ? -1 : 1);
  sign_q_[pos_] = hw::Int<2>(sample.q < 0 ? -1 : 1);
  pos_ = (pos_ + 1) & kCorrelatorMask;

  // Correlate the last 64 sign pairs against the template. Coefficient
  // index 0 corresponds to the oldest sample in the window, matching how
  // the preamble template streams through the shift register. Each tap term
  // is sign*coef in Int<5>; the running rails stay within +/-512, held in
  // Int<12> with a checked narrow per tap.
  hw::Int<12> re;
  hw::Int<12> im;
  std::size_t idx = pos_;  // oldest sample in the circular buffers
  for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
    const hw::Int<2> si = sign_i_[idx];
    const hw::Int<2> sq = sign_q_[idx];
    // s * conj(c): re = si*ci + sq*cq, im = sq*ci - si*cq
    re = (re + si * coef_i_[k] + sq * coef_q_[k]).narrow<12>();
    im = (im + sq * coef_i_[k] - si * coef_q_[k]).narrow<12>();
    idx = (idx + 1) & kCorrelatorMask;
  }
  Output out;
  out.metric = hw::wrap_u<32>(re * re + im * im).value();
  out.trigger = out.metric > threshold_;
  return out;
}

void CrossCorrelator::reset() noexcept {
  sign_i_.fill(hw::Int<2>(1));
  sign_q_.fill(hw::Int<2>(1));
  pos_ = 0;
  neg_i_ = SignHistory();
  neg_q_ = SignHistory();
}

void program_template(RegisterFile& regs, const CorrelatorTemplate& tpl) noexcept {
  for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
    regs.set_coefficient(false, k, tpl.coef_i[k]);
    regs.set_coefficient(true, k, tpl.coef_q[k]);
  }
}

}  // namespace rjf::fpga
