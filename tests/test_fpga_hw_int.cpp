// Unit tests for the bit-width-checked hardware integer types, validated
// against straightforward slow-reference arithmetic across the widths the
// datapath actually uses (1, 3, 8, 14, 16, 24, 32, 48, 64). The companion
// compile-failure suite (tests/compile_fail/) covers the contracts that are
// compile errors rather than runtime behaviour.
#include "fpga/hw_int.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace rjf::fpga::hw {
namespace {

// ---------------------------------------------------------------------------
// Slow reference semantics, written the obvious way.

constexpr std::uint64_t ref_mask(int w) {
  return w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1u);
}

constexpr std::int64_t ref_wrap_s(std::int64_t v, int w) {
  const std::uint64_t low = static_cast<std::uint64_t>(v) & ref_mask(w);
  const std::uint64_t sign = std::uint64_t{1} << (w - 1);
  if (w < 64 && (low & sign) != 0u)
    return static_cast<std::int64_t>(low - (sign << 1));
  return static_cast<std::int64_t>(low);
}

// Deterministic pseudo-random stream (splitmix64); no std::rand anywhere.
constexpr std::uint64_t next_rand(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <int W>
std::vector<std::uint64_t> uint_test_values() {
  std::vector<std::uint64_t> vals = {0u, UInt<W>::kMax, UInt<W>::kMax / 2};
  if (W > 1) {
    vals.push_back(1u);
    vals.push_back(UInt<W>::kMax - 1u);
  }
  std::uint64_t s = 0xC0FFEEull + static_cast<std::uint64_t>(W);
  for (int i = 0; i < 64; ++i) vals.push_back(next_rand(s) & UInt<W>::kMax);
  return vals;
}

template <int W>
std::vector<std::int64_t> int_test_values() {
  std::vector<std::int64_t> vals = {0, Int<W>::kMin, Int<W>::kMax, -1};
  if (W > 1) {
    vals.push_back(1);
    vals.push_back(Int<W>::kMin + 1);
  }
  std::uint64_t s = 0xFACADEull + static_cast<std::uint64_t>(W);
  for (int i = 0; i < 64; ++i)
    vals.push_back(ref_wrap_s(static_cast<std::int64_t>(next_rand(s)), W));
  return vals;
}

// ---------------------------------------------------------------------------
// UInt<W> vs reference.

template <int W>
void CheckUIntWidth() {
  SCOPED_TRACE(::testing::Message() << "W=" << W);
  using U = UInt<W>;
  static_assert(U::kWidth == W);
  static_assert(U::kMax == ref_mask(W));

  for (const std::uint64_t v : uint_test_values<W>()) {
    const U x(v);
    EXPECT_EQ(x.u64(), v);
    EXPECT_EQ(x.value(), v);

    // wrap: low bits at any target width.
    EXPECT_EQ(x.template wrap<1>().u64(), v & ref_mask(1));
    EXPECT_EQ(x.template wrap<3>().u64(), v & ref_mask(3));
    EXPECT_EQ(x.template wrap<64>().u64(), v);
    EXPECT_EQ(wrap_u<5>(x).u64(), v & ref_mask(5));

    // truncate / narrow / zext where the width relation allows them.
    if constexpr (W >= 3) {
      EXPECT_EQ(x.template truncate<3>().u64(), v & ref_mask(3));
    }
    EXPECT_EQ(x.template truncate<W>().u64(), v);
    EXPECT_EQ(x.template zext<64>().u64(), v);
    EXPECT_EQ(x.template zext<64>().template narrow<W>().u64(), v);

    // sat: clamp against the target max.
    EXPECT_EQ(x.template sat<3>().u64(), std::min(v, ref_mask(3)));
    EXPECT_EQ(x.template sat<64>().u64(), v);
    EXPECT_EQ(sat_u<1>(v).u64(), std::min(v, ref_mask(1)));

    // signed-domain crossing.
    if constexpr (W < 64) {
      EXPECT_EQ(x.to_signed().i64(), static_cast<std::int64_t>(v));
      static_assert(decltype(x.to_signed())::kWidth == W + 1);
    }

    // RTL idioms.
    EXPECT_EQ(popcount(x).u64(),
              static_cast<std::uint64_t>(std::popcount(v)));
    EXPECT_EQ(wrap_inc(x).u64(), (v + 1u) & ref_mask(W));
    EXPECT_EQ(wrap_dec(x).u64(), (v - 1u) & ref_mask(W));
    EXPECT_EQ(shift_in(x, true).u64(), ((v << 1) | 1u) & ref_mask(W));
    EXPECT_EQ(shift_in(x, false).u64(), (v << 1) & ref_mask(W));

    // Bitwise logic against a second deterministic operand.
    const U y = U::from_raw_bits(~v);
    EXPECT_EQ((x & y).u64(), v & ~v & ref_mask(W));
    EXPECT_EQ((x | y).u64(), ref_mask(W));
    EXPECT_EQ((x ^ y).u64(), ref_mask(W));
    EXPECT_EQ((~x).u64(), ~v & ref_mask(W));

    // Comparisons against raw integers go through std::cmp_*.
    EXPECT_TRUE(x == v);
    EXPECT_FALSE(x < 0);
    EXPECT_FALSE(x == -1);  // sign-safe: never matches a negative
  }
}

TEST(HwUInt, MatchesReferenceAcrossWidths) {
  CheckUIntWidth<1>();
  CheckUIntWidth<3>();
  CheckUIntWidth<8>();
  CheckUIntWidth<14>();
  CheckUIntWidth<16>();
  CheckUIntWidth<24>();
  CheckUIntWidth<32>();
  CheckUIntWidth<48>();
  CheckUIntWidth<64>();
}

// ---------------------------------------------------------------------------
// Int<W> vs reference.

template <int W>
void CheckIntWidth() {
  SCOPED_TRACE(::testing::Message() << "W=" << W);
  using I = Int<W>;
  static_assert(I::kWidth == W);
  static_assert(I::kMin == -(I::kMax) - 1);
  static_assert(W >= 64 || I::kMax == static_cast<std::int64_t>(ref_mask(W) >> 1));

  for (const std::int64_t v : int_test_values<W>()) {
    const I x(v);
    EXPECT_EQ(x.i64(), v);

    // wrap: two's-complement reinterpretation at any width.
    EXPECT_EQ(x.template wrap<1>().i64(), ref_wrap_s(v, 1));
    EXPECT_EQ(x.template wrap<3>().i64(), ref_wrap_s(v, 3));
    EXPECT_EQ(x.template wrap<64>().i64(), v);
    EXPECT_EQ(wrap_s<5>(v).i64(), ref_wrap_s(v, 5));

    if constexpr (W >= 3) {
      EXPECT_EQ(x.template truncate<3>().i64(), ref_wrap_s(v, 3));
    }
    EXPECT_EQ(x.template sext<64>().i64(), v);
    EXPECT_EQ(x.template sext<64>().template narrow<W>().i64(), v);

    // sat: clamp into the target range.
    EXPECT_EQ(x.template sat<3>().i64(),
              std::clamp(v, Int<3>::kMin, Int<3>::kMax));
    EXPECT_EQ(sat_s<1>(v).i64(), std::clamp<std::int64_t>(v, -1, 0));

    // |v| is exact even at kMin (2^(W-1) fits the unsigned width).
    const std::uint64_t expect_abs =
        v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
              : static_cast<std::uint64_t>(v);
    EXPECT_EQ(x.abs().u64(), expect_abs);
    if (v >= 0) {
      EXPECT_EQ(x.to_unsigned().u64(), static_cast<std::uint64_t>(v));
    }

    if constexpr (W < 64) {
      EXPECT_EQ((-x).i64(), -v);  // Int<W+1> holds -kMin exactly
      static_assert(decltype(-x)::kWidth == W + 1);
    }

    EXPECT_TRUE(x == v);
    EXPECT_EQ(x < 0, v < 0);
    EXPECT_EQ(x > 0, v > 0);
  }
}

TEST(HwInt, MatchesReferenceAcrossWidths) {
  CheckIntWidth<1>();
  CheckIntWidth<3>();
  CheckIntWidth<8>();
  CheckIntWidth<14>();
  CheckIntWidth<16>();
  CheckIntWidth<24>();
  CheckIntWidth<32>();
  CheckIntWidth<48>();
  CheckIntWidth<64>();
}

// ---------------------------------------------------------------------------
// Widening arithmetic: exact full-width results, correct result types.

TEST(HwArith, WideningOpsAreExactAndCorrectlyTyped) {
  std::uint64_t s = 0xBEEF;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t a = ref_wrap_s(static_cast<std::int64_t>(next_rand(s)), 14);
    const std::int64_t b = ref_wrap_s(static_cast<std::int64_t>(next_rand(s)), 14);
    const Int<14> A(a);
    const Int<14> B(b);

    static_assert(std::is_same_v<decltype(A + B), Int<15>>);
    static_assert(std::is_same_v<decltype(A - B), Int<15>>);
    static_assert(std::is_same_v<decltype(A * B), Int<28>>);
    EXPECT_EQ((A + B).i64(), a + b);
    EXPECT_EQ((A - B).i64(), a - b);
    EXPECT_EQ((A * B).i64(), a * b);

    const std::uint64_t ua = next_rand(s) & ref_mask(24);
    const std::uint64_t ub = next_rand(s) & ref_mask(24);
    const UInt<24> UA(ua);
    const UInt<24> UB(ub);
    static_assert(std::is_same_v<decltype(UA + UB), UInt<25>>);
    static_assert(std::is_same_v<decltype(UA * UB), UInt<48>>);
    // Unsigned subtraction lands in the signed domain at full width.
    static_assert(std::is_same_v<decltype(UA - UB), Int<25>>);
    EXPECT_EQ((UA + UB).u64(), ua + ub);
    EXPECT_EQ((UA * UB).u64(), ua * ub);
    EXPECT_EQ((UA - UB).i64(),
              static_cast<std::int64_t>(ua) - static_cast<std::int64_t>(ub));

    // Mixed widths widen to the exact requirement.
    const Int<3> C(ref_wrap_s(static_cast<std::int64_t>(next_rand(s)), 3));
    static_assert(std::is_same_v<decltype(A * C), Int<17>>);
    static_assert(std::is_same_v<decltype(A + C), Int<15>>);
    EXPECT_EQ((A * C).i64(), a * C.i64());
  }
}

TEST(HwArith, ProductWidthIsTightAtTheExtremes) {
  // kMin * kMin = +2^(A+B-2) needs exactly A+B bits: Int<3> spans -4..3,
  // (-4)*(-4) = 16 = Int<6>::kMax/2 + 1... i.e. it does NOT fit Int<5>.
  constexpr Int<3> m(Int<3>::kMin);
  constexpr auto p = m * m;
  static_assert(std::is_same_v<decltype(p), const Int<6>>);
  static_assert(p.i64() == 16);
  static_assert(Int<5>::kMax < 16 && Int<6>::kMax >= 16);

  constexpr UInt<4> u(UInt<4>::kMax);
  static_assert((u * u).u64() == 225);
  static_assert(UInt<8>::kMax >= 225 && UInt<7>::kMax < 225);
}

TEST(HwArith, StaticShiftsTrackWidths) {
  const UInt<14> x(0x2AAAu);
  static_assert(std::is_same_v<decltype(x.shl<2>()), UInt<16>>);
  static_assert(std::is_same_v<decltype(x.shr<2>()), UInt<12>>);
  EXPECT_EQ(x.shl<2>().u64(), 0x2AAAull << 2);
  EXPECT_EQ(x.shr<2>().u64(), 0x2AAAull >> 2);

  const Int<7> y(-33);
  static_assert(std::is_same_v<decltype(y.shl<3>()), Int<10>>);
  EXPECT_EQ(y.shl<3>().i64(), -33 * 8);
}

// ---------------------------------------------------------------------------
// The >64-bit comparator used for the Q8.8 energy-threshold compare.

TEST(HwArith, ShiftedGtMatches128BitReference) {
  std::uint64_t s = 0xD1CE;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t lhs = next_rand(s) & ref_mask(37);
    const std::uint64_t a = next_rand(s) & ref_mask(37);
    // Bias some thresholds small so both branch outcomes are exercised.
    const std::uint64_t b = next_rand(s) & ref_mask(i % 2 == 0 ? 32 : 10);
    const bool expect = (static_cast<unsigned __int128>(lhs) << 8) >
                        static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(shifted_gt<8>(UInt<37>(lhs), UInt<37>(a), UInt<32>(b)), expect);
  }
  // Saturating threshold against a tiny numerator: the 128-bit product
  // (~2^69) would overflow any 64-bit spelling.
  EXPECT_FALSE(shifted_gt<8>(UInt<37>(1u), UInt<37>(UInt<37>::kMax),
                             UInt<32>(UInt<32>::kMax)));
  EXPECT_TRUE(shifted_gt<8>(UInt<37>(UInt<37>::kMax), UInt<37>(), UInt<32>()));
}

// ---------------------------------------------------------------------------
// Enum <-> register-field helpers.

enum class Fruit : std::uint32_t { kApple = 0, kBanana = 1, kCherry = 2 };

TEST(HwEnum, RoundTripsThroughRegisterFields) {
  const UInt<2> f = from_enum<2>(Fruit::kCherry);
  EXPECT_EQ(f.u64(), 2u);
  EXPECT_EQ(to_enum<Fruit>(f), Fruit::kCherry);
  EXPECT_EQ(to_enum<Fruit>(from_enum<2>(Fruit::kApple)), Fruit::kApple);
}

// ---------------------------------------------------------------------------
// Cross-width comparisons.

TEST(HwCompare, CrossWidthCompareByValue) {
  EXPECT_TRUE(UInt<8>(200u) == UInt<32>(200u));
  EXPECT_TRUE(UInt<8>(200u) < UInt<3>(7u) + UInt<8>(255u));
  EXPECT_TRUE(Int<3>(-4) == Int<48>(-4));
  EXPECT_TRUE(Int<3>(-4) < Int<14>(0));
  EXPECT_TRUE(Int<3>(-1) != Int<14>(1));
  EXPECT_TRUE(UInt<16>(1u) >= UInt<64>(1u));
}

// ---------------------------------------------------------------------------
// Everything above is equally valid at compile time.

static_assert(UInt<8>(200u).wrap<4>().u64() == 8u);
static_assert(UInt<8>(200u).sat<4>().u64() == 15u);
static_assert(Int<8>(-100).wrap<4>().i64() == -4);
static_assert(Int<8>(-100).sat<4>().i64() == -8);
static_assert(wrap_s<3>(0xFu).i64() == -1);
static_assert((Int<14>(-8192) * Int<14>(-8192)).i64() == 67108864);
static_assert(popcount(UInt<64>(~std::uint64_t{0})).u64() == 64u);
static_assert(wrap_inc(UInt<2>(3u)).u64() == 0u);
static_assert(wrap_dec(UInt<19>()).u64() == UInt<19>::kMax);

// ---------------------------------------------------------------------------
// Debug-build range checks. Release builds compile these assertions out, so
// the death tests only exist where assert() is live.

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(HwIntDeathTest, OutOfRangeConstructionAsserts) {
  EXPECT_DEATH({ [[maybe_unused]] UInt<3> x(8u); }, "");
  EXPECT_DEATH({ [[maybe_unused]] UInt<3> x(-1); }, "");
  EXPECT_DEATH({ [[maybe_unused]] Int<3> x(4); }, "");
  EXPECT_DEATH({ [[maybe_unused]] Int<3> x(-5); }, "");
}

TEST(HwIntDeathTest, LossyNarrowAsserts) {
  EXPECT_DEATH(
      { [[maybe_unused]] auto y = UInt<8>(200u).narrow<4>(); }, "");
  EXPECT_DEATH(
      { [[maybe_unused]] auto y = Int<8>(-100).narrow<4>(); }, "");
  EXPECT_DEATH(
      { [[maybe_unused]] auto y = Int<8>(-1).to_unsigned(); }, "");
}
#endif

}  // namespace
}  // namespace rjf::fpga::hw
