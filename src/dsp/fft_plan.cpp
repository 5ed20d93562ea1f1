#include "dsp/fft_plan.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>

#include "dsp/fft.h"
#include "dsp/simd/fft_stages_scalar.h"

namespace rjf::dsp {
namespace {

constexpr std::size_t kMaxLog2 = 31;

unsigned log2_of(std::size_t n) noexcept {
  unsigned lg = 0;
  while ((std::size_t{1} << lg) < n) ++lg;
  return lg;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  assert(is_pow2(n));
  const unsigned lg = log2_of(n);

  // Plain bit-reverse permutation, stored as the swap list the per-call
  // loop in the legacy fft.cpp used to recompute every transform.
  swaps_.reserve(n / 2);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j)
      swaps_.emplace_back(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j));
  }

  radix2_first_ = (lg % 2) != 0;
  // Radix-4 stages: quarter length L starts at 1 (even log2 n) or 2 (after
  // the radix-2 first pass) and grows 4x per stage up to n/4.
  const double two_pi = 2.0 * std::numbers::pi;
  for (std::size_t L = radix2_first_ ? 2 : 1; 4 * L <= n; L *= 4) {
    Stage st;
    st.quarter = L;
    st.fwd1.resize(2 * L);
    st.fwd2.resize(2 * L);
    st.fwd3.resize(2 * L);
    st.inv1.resize(2 * L);
    st.inv2.resize(2 * L);
    st.inv3.resize(2 * L);
    const double step = two_pi / static_cast<double>(4 * L);
    for (std::size_t k = 0; k < L; ++k) {
      // Each twiddle from its own double-precision sin/cos — no recursive
      // float accumulation.
      const double a1 = step * static_cast<double>(k);
      const double a2 = step * static_cast<double>(2 * k);
      const double a3 = step * static_cast<double>(3 * k);
      st.fwd1[2 * k] = static_cast<float>(std::cos(a1));
      st.fwd1[2 * k + 1] = static_cast<float>(-std::sin(a1));
      st.fwd2[2 * k] = static_cast<float>(std::cos(a2));
      st.fwd2[2 * k + 1] = static_cast<float>(-std::sin(a2));
      st.fwd3[2 * k] = static_cast<float>(std::cos(a3));
      st.fwd3[2 * k + 1] = static_cast<float>(-std::sin(a3));
      st.inv1[2 * k] = st.fwd1[2 * k];
      st.inv1[2 * k + 1] = -st.fwd1[2 * k + 1];
      st.inv2[2 * k] = st.fwd2[2 * k];
      st.inv2[2 * k + 1] = -st.fwd2[2 * k + 1];
      st.inv3[2 * k] = st.fwd3[2 * k];
      st.inv3[2 * k + 1] = -st.fwd3[2 * k + 1];
    }
    stages_.push_back(std::move(st));
  }

  fwd_views_.reserve(stages_.size());
  inv_views_.reserve(stages_.size());
  for (const Stage& st : stages_) {
    fwd_views_.push_back({st.quarter, st.fwd1.data(), st.fwd2.data(),
                          st.fwd3.data()});
    inv_views_.push_back({st.quarter, st.inv1.data(), st.inv2.data(),
                          st.inv3.data()});
  }
}

const FftPlan& FftPlan::of(std::size_t n) {
  assert(is_pow2(n));
  // Lock-free fast path: one atomic slot per power of two.  Slots are
  // written once under the mutex and never change afterwards.
  static std::atomic<const FftPlan*> slots[kMaxLog2 + 1] = {};
  static std::mutex build_mutex;
  const unsigned lg = log2_of(n);
  assert(lg <= kMaxLog2 && (std::size_t{1} << lg) == n);
  const FftPlan* plan = slots[lg].load(std::memory_order_acquire);
  if (plan == nullptr) {
    std::scoped_lock lock(build_mutex);
    plan = slots[lg].load(std::memory_order_relaxed);
    if (plan == nullptr) {
      plan = new FftPlan(n);  // lives for the process, like the slot array
      slots[lg].store(plan, std::memory_order_release);
    }
  }
  return *plan;
}

void FftPlan::permute(cfloat* x) const {
  for (const auto& [i, j] : swaps_) std::swap(x[i], x[j]);
}

void FftPlan::run(cfloat* x, bool inverse, simd::Isa isa) const {
  permute(x);
  float* xf = reinterpret_cast<float*>(x);
  const simd::FftKernelRun krun{
      n_, radix2_first_, inverse,
      inverse ? inv_views_.data() : fwd_views_.data(),
      stages_.size()};
  if (simd::fft_exec(isa, krun, xf)) return;
  // Scalar path: same stage bodies and tables as the vector kernels.
  if (radix2_first_) simd::fft_radix2_stage(xf, n_);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const simd::FftStageView& st = krun.stages[s];
    simd::fft_radix4_stage(xf, n_, st.quarter, st.w1, st.w2, st.w3, inverse);
  }
}

void FftPlan::forward(cfloat* x, simd::Isa isa) const {
  run(x, /*inverse=*/false, isa);
}
void FftPlan::inverse(cfloat* x, simd::Isa isa) const {
  run(x, /*inverse=*/true, isa);
}

}  // namespace rjf::dsp
