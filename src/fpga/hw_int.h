// Bit-width-checked hardware integer types for the cycle-accurate fabric
// model.
//
// The paper's custom DSP core is a fixed-point System Generator datapath:
// 1-bit sign slices, 3-bit correlator coefficients, Q8.8 energy thresholds,
// a squared-magnitude metric compared against a 32-bit threshold register.
// Every one of those width decisions is load-bearing — RTL wraps, truncates
// and saturates exactly where the designer said so, never implicitly. This
// header makes the same contracts machine-checked in the C++ model:
//
//   UInt<W> / Int<W>   value types that hold exactly W bits (W in 1..64);
//                      trivially copyable, zero storage overhead beyond the
//                      smallest standard integer that fits W.
//
//   widening ops       a + b and a * b return the exact full-width result
//                      type (max(A,B)+1 and A+B bits, static_asserted to
//                      fit 64), so intermediate overflow is impossible by
//                      construction — the compiler rejects any expression
//                      whose true width exceeds the model's word size.
//
//   explicit narrowing a value only gets narrower through one of four
//                      spelled-out RTL conversions:
//                        wrap<W2>()     keep low W2 bits, any W2 (the RTL
//                                       register assignment / mod-2^W2)
//                        truncate<W2>() keep low W2 bits, W2 <= W only
//                                       (a declared lossy bit-drop)
//                        sat<W2>()      clamp into the W2 range
//                        narrow<W2>()   value-preserving narrowing; debug
//                                       builds assert the value fits, the
//                                       RTL analogue is a truncate the
//                                       designer proved lossless
//                      There are no implicit conversions in or out.
//
//   debug range checks construction from a raw integer asserts the value is
//                      representable when NDEBUG is not defined; release
//                      builds compile every operation down to plain 64-bit
//                      integer arithmetic (the <5% BM_DspCoreRunBlock bench
//                      gate in CI enforces the zero-overhead claim).
//
// Raw arithmetic casts (static_cast between integer types) inside the
// fabric model are confined to this header — `python3 tools/rjf_analyze
// --pass fabric` fails the build on any that appear elsewhere in src/fpga.
#pragma once

#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace rjf::fpga::hw {

// Range checks ride on assert(): active in Debug builds (and any build that
// defines RJF_HW_INT_FORCE_CHECKS), compiled out under NDEBUG.
#if defined(RJF_HW_INT_FORCE_CHECKS) && defined(NDEBUG)
#error "RJF_HW_INT_FORCE_CHECKS requires a build with assert() enabled"
#endif
#define RJF_HW_ASSERT(cond) assert(cond)

namespace detail {

template <int W>
using uint_storage_t =
    std::conditional_t<(W <= 8), std::uint8_t,
                       std::conditional_t<(W <= 16), std::uint16_t,
                                          std::conditional_t<(W <= 32), std::uint32_t,
                                                             std::uint64_t>>>;

template <int W>
using int_storage_t =
    std::conditional_t<(W <= 8), std::int8_t,
                       std::conditional_t<(W <= 16), std::int16_t,
                                          std::conditional_t<(W <= 32), std::int32_t,
                                                             std::int64_t>>>;

[[nodiscard]] constexpr std::uint64_t mask_bits(int w) noexcept {
  return w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1u);
}

// Number of bits needed to hold the count of set bits in a W-bit word
// (e.g. W=64 -> counts 0..64 -> 7 bits).
[[nodiscard]] constexpr int popcount_width(int w) noexcept {
  int bits = 0;
  while ((1 << bits) <= w) ++bits;
  return bits;
}

}  // namespace detail

template <int W>
class Int;

/// Unsigned hardware integer holding exactly W bits, W in 1..64.
template <int W>
class UInt {
  static_assert(W >= 1 && W <= 64, "hardware integers are 1..64 bits wide");

 public:
  using storage_type = detail::uint_storage_t<W>;
  static constexpr int kWidth = W;
  static constexpr std::uint64_t kMax = detail::mask_bits(W);

  constexpr UInt() noexcept = default;

  /// Explicit construction from a raw integer. Debug builds assert the
  /// value is representable in W bits; release builds keep the low bits.
  template <std::integral T>
  explicit constexpr UInt(T v) noexcept
      : v_(static_cast<storage_type>(static_cast<std::uint64_t>(v) & kMax)) {
    RJF_HW_ASSERT(std::cmp_greater_equal(v, 0) &&
                  std::cmp_less_equal(v, kMax));
  }

  [[nodiscard]] constexpr storage_type value() const noexcept { return v_; }
  [[nodiscard]] constexpr std::uint64_t u64() const noexcept { return v_; }

  // -- RTL conversions ------------------------------------------------------
  /// Keep the low W2 bits (register assignment / mod-2^W2). Any W2.
  template <int W2>
  [[nodiscard]] constexpr UInt<W2> wrap() const noexcept {
    return UInt<W2>::from_raw_bits(u64());
  }
  /// Declared lossy bit-drop; only narrowing is allowed.
  template <int W2>
  [[nodiscard]] constexpr UInt<W2> truncate() const noexcept {
    static_assert(W2 <= W, "truncate<W2>() must narrow; use zext() to widen");
    return UInt<W2>::from_raw_bits(u64());
  }
  /// Clamp into the W2 range.
  template <int W2>
  [[nodiscard]] constexpr UInt<W2> sat() const noexcept {
    return u64() > UInt<W2>::kMax ? UInt<W2>::from_raw_bits(UInt<W2>::kMax)
                                  : UInt<W2>::from_raw_bits(u64());
  }
  /// Value-preserving narrowing: debug builds assert the value fits.
  template <int W2>
  [[nodiscard]] constexpr UInt<W2> narrow() const noexcept {
    static_assert(W2 <= W, "narrow<W2>() must narrow; use zext() to widen");
    RJF_HW_ASSERT(u64() <= UInt<W2>::kMax);
    return UInt<W2>::from_raw_bits(u64());
  }
  /// Zero-extend to W2 >= W bits.
  template <int W2>
  [[nodiscard]] constexpr UInt<W2> zext() const noexcept {
    static_assert(W2 >= W, "zext<W2>() must widen; use a narrowing op");
    return UInt<W2>::from_raw_bits(u64());
  }
  /// Exact conversion to the signed domain (one extra bit for the sign).
  [[nodiscard]] constexpr Int<W + 1> to_signed() const noexcept {
    static_assert(W < 64, "UInt<64> has no 65-bit signed container");
    return Int<W + 1>::from_raw_value(static_cast<std::int64_t>(u64()));
  }

  // -- Static shifts (width-tracked, like RTL wiring) -----------------------
  template <int S>
  [[nodiscard]] constexpr UInt<W + S> shl() const noexcept {
    static_assert(S >= 0 && W + S <= 64, "left shift exceeds 64 bits");
    return UInt<W + S>::from_raw_bits(u64() << S);
  }
  template <int S>
  [[nodiscard]] constexpr UInt<(W - S > 1 ? W - S : 1)> shr() const noexcept {
    static_assert(S >= 0 && S < W, "right shift discards every bit");
    return UInt<(W - S > 1 ? W - S : 1)>::from_raw_bits(u64() >> S);
  }

  // -- Same-width bitwise logic --------------------------------------------
  friend constexpr UInt operator&(UInt a, UInt b) noexcept {
    return from_raw_bits(a.u64() & b.u64());
  }
  friend constexpr UInt operator|(UInt a, UInt b) noexcept {
    return from_raw_bits(a.u64() | b.u64());
  }
  friend constexpr UInt operator^(UInt a, UInt b) noexcept {
    return from_raw_bits(a.u64() ^ b.u64());
  }
  friend constexpr UInt operator~(UInt a) noexcept {
    return from_raw_bits(~a.u64());
  }

  /// Trusted constructor for values already reduced to W bits. Used by the
  /// conversion/arithmetic machinery; masks, never checks.
  [[nodiscard]] static constexpr UInt from_raw_bits(std::uint64_t bits) noexcept {
    UInt out;
    out.v_ = static_cast<storage_type>(bits & kMax);
    return out;
  }

 private:
  storage_type v_ = 0;
};

/// Signed (two's-complement) hardware integer holding exactly W bits.
/// Int<3> is the paper's coefficient type: range -4..3.
template <int W>
class Int {
  static_assert(W >= 1 && W <= 64, "hardware integers are 1..64 bits wide");

 public:
  using storage_type = detail::int_storage_t<W>;
  static constexpr int kWidth = W;
  static constexpr std::int64_t kMax =
      W >= 64 ? std::int64_t{0x7FFFFFFFFFFFFFFF}
              : static_cast<std::int64_t>((std::uint64_t{1} << (W - 1)) - 1u);
  static constexpr std::int64_t kMin = -kMax - 1;

  constexpr Int() noexcept = default;

  template <std::integral T>
  explicit constexpr Int(T v) noexcept
      : v_(static_cast<storage_type>(reduce(static_cast<std::int64_t>(v)))) {
    RJF_HW_ASSERT(std::cmp_greater_equal(v, kMin) &&
                  std::cmp_less_equal(v, kMax));
  }

  [[nodiscard]] constexpr storage_type value() const noexcept { return v_; }
  [[nodiscard]] constexpr std::int64_t i64() const noexcept { return v_; }

  // -- RTL conversions ------------------------------------------------------
  /// Keep the low W2 bits, reinterpreted as W2-bit two's complement.
  template <int W2>
  [[nodiscard]] constexpr Int<W2> wrap() const noexcept {
    return Int<W2>::from_raw_value(Int<W2>::reduce(i64()));
  }
  /// Declared lossy bit-drop (low W2 bits, sign from bit W2-1); W2 <= W.
  template <int W2>
  [[nodiscard]] constexpr Int<W2> truncate() const noexcept {
    static_assert(W2 <= W, "truncate<W2>() must narrow; use sext() to widen");
    return Int<W2>::from_raw_value(Int<W2>::reduce(i64()));
  }
  /// Clamp into the W2 range.
  template <int W2>
  [[nodiscard]] constexpr Int<W2> sat() const noexcept {
    const std::int64_t v = i64();
    return Int<W2>::from_raw_value(v < Int<W2>::kMin   ? Int<W2>::kMin
                                   : v > Int<W2>::kMax ? Int<W2>::kMax
                                                       : v);
  }
  /// Value-preserving narrowing: debug builds assert the value fits.
  template <int W2>
  [[nodiscard]] constexpr Int<W2> narrow() const noexcept {
    static_assert(W2 <= W, "narrow<W2>() must narrow; use sext() to widen");
    RJF_HW_ASSERT(i64() >= Int<W2>::kMin && i64() <= Int<W2>::kMax);
    return Int<W2>::from_raw_value(i64());
  }
  /// Sign-extend to W2 >= W bits.
  template <int W2>
  [[nodiscard]] constexpr Int<W2> sext() const noexcept {
    static_assert(W2 >= W, "sext<W2>() must widen; use a narrowing op");
    return Int<W2>::from_raw_value(i64());
  }
  /// Checked conversion to the unsigned domain: debug builds assert the
  /// value is non-negative (a non-negative Int<W> always fits UInt<W>).
  [[nodiscard]] constexpr UInt<W> to_unsigned() const noexcept {
    RJF_HW_ASSERT(i64() >= 0);
    return UInt<W>::from_raw_bits(static_cast<std::uint64_t>(i64()));
  }
  /// |v| as an unsigned value; exact even for kMin (2^(W-1) fits W bits).
  [[nodiscard]] constexpr UInt<W> abs() const noexcept {
    const std::int64_t v = i64();
    return UInt<W>::from_raw_bits(
        v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
              : static_cast<std::uint64_t>(v));
  }

  // -- Static shifts --------------------------------------------------------
  template <int S>
  [[nodiscard]] constexpr Int<W + S> shl() const noexcept {
    static_assert(S >= 0 && W + S <= 64, "left shift exceeds 64 bits");
    return Int<W + S>::from_raw_value(i64() * (std::int64_t{1} << S));
  }

  /// Trusted constructor for values already known to be in range.
  [[nodiscard]] static constexpr Int from_raw_value(std::int64_t v) noexcept {
    Int out;
    out.v_ = static_cast<storage_type>(v);
    return out;
  }

  /// Two's-complement reduction of an arbitrary value into the W-bit range.
  [[nodiscard]] static constexpr std::int64_t reduce(std::int64_t v) noexcept {
    const std::uint64_t low = static_cast<std::uint64_t>(v) & detail::mask_bits(W);
    const std::uint64_t sign_bit = std::uint64_t{1} << (W - 1);
    if (W < 64 && (low & sign_bit) != 0u)
      return static_cast<std::int64_t>(low) -
             static_cast<std::int64_t>(sign_bit << 1);
    return static_cast<std::int64_t>(low);
  }

 private:
  storage_type v_ = 0;
};

// ---------------------------------------------------------------------------
// Comparisons: any width pair of the same signedness compares by value;
// comparisons against raw integers use the sign-safe std::cmp_* helpers.

template <int A, int B>
[[nodiscard]] constexpr bool operator==(UInt<A> a, UInt<B> b) noexcept {
  return a.u64() == b.u64();
}
template <int A, int B>
[[nodiscard]] constexpr auto operator<=>(UInt<A> a, UInt<B> b) noexcept {
  return a.u64() <=> b.u64();
}
template <int A, int B>
[[nodiscard]] constexpr bool operator==(Int<A> a, Int<B> b) noexcept {
  return a.i64() == b.i64();
}
template <int A, int B>
[[nodiscard]] constexpr auto operator<=>(Int<A> a, Int<B> b) noexcept {
  return a.i64() <=> b.i64();
}
template <int A, std::integral T>
[[nodiscard]] constexpr bool operator==(UInt<A> a, T b) noexcept {
  return std::cmp_equal(a.u64(), b);
}
template <int A, std::integral T>
[[nodiscard]] constexpr bool operator<(UInt<A> a, T b) noexcept {
  return std::cmp_less(a.u64(), b);
}
template <int A, std::integral T>
[[nodiscard]] constexpr bool operator>(UInt<A> a, T b) noexcept {
  return std::cmp_greater(a.u64(), b);
}
template <int A, std::integral T>
[[nodiscard]] constexpr bool operator==(Int<A> a, T b) noexcept {
  return std::cmp_equal(a.i64(), b);
}
template <int A, std::integral T>
[[nodiscard]] constexpr bool operator<(Int<A> a, T b) noexcept {
  return std::cmp_less(a.i64(), b);
}
template <int A, std::integral T>
[[nodiscard]] constexpr bool operator>(Int<A> a, T b) noexcept {
  return std::cmp_greater(a.i64(), b);
}

// ---------------------------------------------------------------------------
// Widening arithmetic: results carry the exact full-width type, so they can
// never overflow — and any expression whose true width would exceed 64 bits
// is a compile error at the operator, not a runtime surprise.

namespace detail {
constexpr int add_width(int a, int b) { return (a > b ? a : b) + 1; }
}  // namespace detail

template <int A, int B>
[[nodiscard]] constexpr UInt<detail::add_width(A, B)> operator+(
    UInt<A> a, UInt<B> b) noexcept {
  static_assert(detail::add_width(A, B) <= 64,
                "sum width exceeds 64 bits; wrap/truncate an operand first");
  return UInt<detail::add_width(A, B)>::from_raw_bits(a.u64() + b.u64());
}

/// Unsigned subtraction can go negative in value terms, so it lands in the
/// signed domain at full width, like an RTL subtractor's sign-extended out.
template <int A, int B>
[[nodiscard]] constexpr Int<detail::add_width(A, B)> operator-(
    UInt<A> a, UInt<B> b) noexcept {
  static_assert(detail::add_width(A, B) <= 64,
                "difference width exceeds 64 bits");
  return Int<detail::add_width(A, B)>::from_raw_value(
      static_cast<std::int64_t>(a.u64()) - static_cast<std::int64_t>(b.u64()));
}

template <int A, int B>
[[nodiscard]] constexpr UInt<A + B> operator*(UInt<A> a, UInt<B> b) noexcept {
  static_assert(A + B <= 64,
                "product width exceeds 64 bits; use shifted_gt/mul_wide");
  return UInt<A + B>::from_raw_bits(a.u64() * b.u64());
}

template <int A, int B>
[[nodiscard]] constexpr Int<detail::add_width(A, B)> operator+(
    Int<A> a, Int<B> b) noexcept {
  static_assert(detail::add_width(A, B) <= 64,
                "sum width exceeds 64 bits; wrap/truncate an operand first");
  return Int<detail::add_width(A, B)>::from_raw_value(a.i64() + b.i64());
}

template <int A, int B>
[[nodiscard]] constexpr Int<detail::add_width(A, B)> operator-(
    Int<A> a, Int<B> b) noexcept {
  static_assert(detail::add_width(A, B) <= 64,
                "difference width exceeds 64 bits");
  return Int<detail::add_width(A, B)>::from_raw_value(a.i64() - b.i64());
}

/// Signed product needs exactly A+B bits (tight at kMin*kMin = +2^(A+B-2)).
template <int A, int B>
[[nodiscard]] constexpr Int<A + B> operator*(Int<A> a, Int<B> b) noexcept {
  static_assert(A + B <= 64,
                "product width exceeds 64 bits; use shifted_gt/mul_wide");
  return Int<A + B>::from_raw_value(a.i64() * b.i64());
}

template <int A>
[[nodiscard]] constexpr Int<A + 1> operator-(Int<A> a) noexcept {
  static_assert(A + 1 <= 64, "negation width exceeds 64 bits");
  return Int<A + 1>::from_raw_value(-a.i64());
}

// ---------------------------------------------------------------------------
// Free conversion helpers for raw integers and cross-signedness wraps.

/// Mask an arbitrary integer (or hardware integer) into W unsigned bits.
template <int W, std::integral T>
[[nodiscard]] constexpr UInt<W> wrap_u(T raw) noexcept {
  return UInt<W>::from_raw_bits(static_cast<std::uint64_t>(raw));
}
template <int W, int A>
[[nodiscard]] constexpr UInt<W> wrap_u(UInt<A> v) noexcept {
  return UInt<W>::from_raw_bits(v.u64());
}
template <int W, int A>
[[nodiscard]] constexpr UInt<W> wrap_u(Int<A> v) noexcept {
  return UInt<W>::from_raw_bits(static_cast<std::uint64_t>(v.i64()));
}

/// Mask an arbitrary integer into W bits, reinterpreted as two's complement.
template <int W, std::integral T>
[[nodiscard]] constexpr Int<W> wrap_s(T raw) noexcept {
  return Int<W>::from_raw_value(Int<W>::reduce(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(raw))));
}
template <int W, int A>
[[nodiscard]] constexpr Int<W> wrap_s(UInt<A> v) noexcept {
  return Int<W>::from_raw_value(Int<W>::reduce(static_cast<std::int64_t>(v.u64())));
}
template <int W, int A>
[[nodiscard]] constexpr Int<W> wrap_s(Int<A> v) noexcept {
  return v.template wrap<W>();
}

/// Clamp an arbitrary integer into the W-bit unsigned/signed range.
template <int W, std::integral T>
[[nodiscard]] constexpr UInt<W> sat_u(T raw) noexcept {
  if (std::cmp_less(raw, 0)) return UInt<W>::from_raw_bits(0);
  if (std::cmp_greater(raw, UInt<W>::kMax))
    return UInt<W>::from_raw_bits(UInt<W>::kMax);
  return UInt<W>::from_raw_bits(static_cast<std::uint64_t>(raw));
}
template <int W, std::integral T>
[[nodiscard]] constexpr Int<W> sat_s(T raw) noexcept {
  if (std::cmp_less(raw, Int<W>::kMin))
    return Int<W>::from_raw_value(Int<W>::kMin);
  if (std::cmp_greater(raw, Int<W>::kMax))
    return Int<W>::from_raw_value(Int<W>::kMax);
  return Int<W>::from_raw_value(static_cast<std::int64_t>(raw));
}

/// Encode an enum's underlying value as a W-bit hardware register field
/// (debug-asserts the enumerator actually fits the field).
template <int W, typename E>
  requires std::is_enum_v<E>
[[nodiscard]] constexpr UInt<W> from_enum(E e) noexcept {
  return UInt<W>(static_cast<std::underlying_type_t<E>>(e));
}

/// Decode a W-bit register field back into an enum value.
template <typename E, int W>
  requires std::is_enum_v<E>
[[nodiscard]] constexpr E to_enum(UInt<W> v) noexcept {
  return static_cast<E>(static_cast<std::underlying_type_t<E>>(v.u64()));
}

// ---------------------------------------------------------------------------
// RTL idioms used by the datapath blocks.

/// Set-bit count of a W-bit word, in the exact width that can hold it.
template <int W>
[[nodiscard]] constexpr UInt<detail::popcount_width(W)> popcount(
    UInt<W> v) noexcept {
  return UInt<detail::popcount_width(W)>::from_raw_bits(
      static_cast<std::uint64_t>(std::popcount(v.u64())));
}

/// RTL up/down counter update: wraps at the register width by definition.
template <int W>
[[nodiscard]] constexpr UInt<W> wrap_inc(UInt<W> v) noexcept {
  return UInt<W>::from_raw_bits(v.u64() + 1u);
}
template <int W>
[[nodiscard]] constexpr UInt<W> wrap_dec(UInt<W> v) noexcept {
  return UInt<W>::from_raw_bits(v.u64() - 1u);
}

/// Shift-register update: shift the word left one tap and insert `bit`; the
/// tap that ages out of the W-sample window falls off the top.
template <int W>
[[nodiscard]] constexpr UInt<W> shift_in(UInt<W> reg, bool bit) noexcept {
  return UInt<W>::from_raw_bits((reg.u64() << 1) | (bit ? 1u : 0u));
}

/// (lhs << Shift) > a * b, evaluated exactly in 128-bit arithmetic — for
/// threshold compares whose full-width intermediate exceeds 64 bits (the
/// RTL keeps such comparators in carry-save form rather than materialising
/// the product). This is the Q8.8 energy-threshold compare of paper Fig. 4.
template <int Shift, int A, int B, int C>
[[nodiscard]] constexpr bool shifted_gt(UInt<A> lhs, UInt<B> a,
                                        UInt<C> b) noexcept {
  static_assert(A + Shift <= 127 && B + C <= 127,
                "128-bit comparator width exceeded");
  return (static_cast<unsigned __int128>(lhs.u64()) << Shift) >
         static_cast<unsigned __int128>(a.u64()) * b.u64();
}

// The whole point of these types is that they cost nothing at runtime.
static_assert(sizeof(UInt<1>) == 1 && sizeof(UInt<8>) == 1);
static_assert(sizeof(UInt<16>) == 2 && sizeof(UInt<32>) == 4);
static_assert(sizeof(UInt<33>) == 8 && sizeof(UInt<64>) == 8);
static_assert(sizeof(Int<3>) == 1 && sizeof(Int<16>) == 2);
static_assert(std::is_trivially_copyable_v<UInt<48>> &&
              std::is_trivially_copyable_v<Int<48>>);
static_assert(std::is_standard_layout_v<UInt<14>> &&
              std::is_standard_layout_v<Int<14>>);

}  // namespace rjf::fpga::hw
