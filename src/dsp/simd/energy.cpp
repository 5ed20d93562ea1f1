#include "dsp/simd/energy.h"

#include "dsp/simd/energy_kernel_impl.h"

namespace rjf::dsp::simd {
namespace {

// The scalar tier: the same passes one sample wide, the comparators in
// 128-bit arithmetic.
struct ScalarEnergyOps {
  static constexpr std::size_t kLanes = 1;

  struct State {
    EnergyComparators c;
    std::uint64_t sum;
  };

  // (a << 8) > t * b, exact.
  static bool above(std::uint64_t a, std::uint64_t b,
                    std::uint32_t t) noexcept {
    return (static_cast<unsigned __int128>(a) << 8) >
           static_cast<unsigned __int128>(t) * b;
  }

  static void pass(State& st, const IQ16* rx, std::size_t /*live*/,
                   const std::uint64_t* old, std::uint64_t* x,
                   const std::uint64_t* ref, std::uint64_t* y,
                   std::uint64_t& high, std::uint64_t& low) noexcept {
    const std::int64_t i = rx->i;
    const std::int64_t q = rx->q;
    const auto p = static_cast<std::uint64_t>(i * i + q * q);
    x[0] = p;
    st.sum += p - old[0];
    y[0] = st.sum;
    const std::uint64_t now = st.sum;
    const std::uint64_t then = ref[0];
    high = now > st.c.floor && above(now, then, st.c.thresh_high_q88);
    low = then > st.c.floor && above(then, now, st.c.thresh_low_q88);
  }
};

}  // namespace

EnergyBlockFn energy_block_kernel(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      if (const EnergyBlockFn kernel = detail::energy_block_avx512())
        return kernel;
      [[fallthrough]];
    case Isa::kAvx2:
      if (const EnergyBlockFn kernel = detail::energy_block_avx2())
        return kernel;
      [[fallthrough]];
    case Isa::kScalar:
      break;
  }
  return &energy_block_t<ScalarEnergyOps>;
}

}  // namespace rjf::dsp::simd
