#include "dsp/resampler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace rjf::dsp {
namespace {

// Kernel half-width in input samples. 8 taps per output point is plenty for
// the ~0.8 ratio conversions used here.
constexpr int kHalfWidth = 4;
// Taps in a row: 8, or 9 when the centre falls on an input sample.
constexpr std::size_t kMaxTaps = 2 * kHalfWidth + 1;
// Largest accepted rate, 2^32 Hz: far above any SDR rate, and it keeps the
// phase numerator r·M within 64 bits.
constexpr double kMaxRateHz = 4294967296.0;

float sinc_kernel(double t, double cutoff) {
  // Hann-windowed sinc, support [-kHalfWidth, kHalfWidth].
  if (std::abs(t) >= kHalfWidth) return 0.0f;
  const double x = std::numbers::pi * t;
  const double sinc = (t == 0.0) ? 1.0 : std::sin(2.0 * cutoff * x) / (2.0 * cutoff * x);
  const double window =
      0.5 * (1.0 + std::cos(std::numbers::pi * t / kHalfWidth));
  return static_cast<float>(2.0 * cutoff * sinc * window);
}

[[noreturn]] void reject(const char* what) {
  throw std::invalid_argument(what);
}

std::uint64_t whole_hz(double rate) {
  if (!(rate >= 1.0 && rate <= kMaxRateHz) ||
      rate != std::floor(rate))
    reject("Resampler: rates must be whole, finite, positive Hz <= 2^32");
  return static_cast<std::uint64_t>(rate);
}

void check_delay(double fractional_delay) {
  if (!(fractional_delay >= 0.0 && fractional_delay < 1.0))
    reject("Resampler: fractional_delay must be in [0, 1)");
}

// When decimating, lower the kernel cutoff to suppress aliasing.
double cutoff_for(double ratio) { return 0.5 * std::min(1.0, ratio); }

std::size_t output_length(std::size_t n_in, double ratio) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n_in) * ratio));
}

// IEEE 754 leaves the sign of a NaN result to operand order, and an
// optimiser may commute that order, so the table-driven loop and the
// reference can disagree on it. Both end with this pass, which writes every
// NaN component as the one quiet NaN. It is branch-free and outside the
// tap loop: a compare-and-blend per vector of output components.
void canonicalize_nans(cvec& v) noexcept {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  // An array of std::complex<float> may be accessed as interleaved floats.
  float* f = reinterpret_cast<float*>(v.data());
  for (std::size_t k = 0; k < 2 * v.size(); ++k)
    f[k] = std::isnan(f[k]) ? kNan : f[k];
}

// The taps of every output with phase r: input indices q·M + first ..
// q·M + first + taps - 1 and their weights.
struct PhaseRow {
  std::int64_t first = 0;
  std::size_t taps = 0;
  std::array<float, kMaxTaps> w{};
};

}  // namespace

Resampler::Resampler(double in_rate, double out_rate)
    : ratio_(out_rate / in_rate) {
  const std::uint64_t in_hz = whole_hz(in_rate);
  const std::uint64_t out_hz = whole_hz(out_rate);
  const std::uint64_t g = std::gcd(in_hz, out_hz);
  up_ = out_hz / g;
  down_ = in_hz / g;
}

cvec Resampler::resample(std::span<const cfloat> in,
                         double fractional_delay) const {
  check_delay(fractional_delay);
  const std::size_t n_out = output_length(in.size(), ratio_);
  cvec out(n_out);
  if (n_out == 0) return out;

  // One row per phase, each centred where resample_reference centres its
  // output m = r (q = 0), so the rows carry the same lo..hi tap span.
  const double cutoff = cutoff_for(ratio_);
  std::vector<PhaseRow> rows(static_cast<std::size_t>(
      std::min<std::uint64_t>(up_, n_out)));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double centre = static_cast<double>(r * down_) /
                              static_cast<double>(up_) +
                          fractional_delay;
    const auto lo = static_cast<std::int64_t>(std::ceil(centre)) - kHalfWidth;
    const auto hi = static_cast<std::int64_t>(std::floor(centre)) + kHalfWidth;
    PhaseRow& row = rows[r];
    row.first = lo;
    row.taps = static_cast<std::size_t>(hi - lo + 1);
    for (std::size_t j = 0; j < row.taps; ++j)
      row.w[j] = sinc_kernel(
          static_cast<double>(lo + static_cast<std::int64_t>(j)) - centre,
          cutoff);
  }

  // Taps past either end of the buffer are skipped, as resample_reference
  // skips them; only outputs within a kernel width of an edge check.
  const auto n_in = static_cast<std::int64_t>(in.size());
  const auto stride = static_cast<std::int64_t>(down_);
  std::size_t m = 0;
  for (std::int64_t base = 0; m < n_out; base += stride) {
    for (const PhaseRow& row : rows) {
      if (m == n_out) break;
      const std::int64_t k0 = base + row.first;
      cfloat acc{};
      if (k0 >= 0 && k0 + static_cast<std::int64_t>(row.taps) <= n_in) {
        const cfloat* x = in.data() + k0;
        for (std::size_t j = 0; j < row.taps; ++j) acc += x[j] * row.w[j];
      } else {
        for (std::size_t j = 0; j < row.taps; ++j) {
          const std::int64_t k = k0 + static_cast<std::int64_t>(j);
          if (k < 0 || k >= n_in) continue;
          acc += in[static_cast<std::size_t>(k)] * row.w[j];
        }
      }
      out[m++] = acc;
    }
  }
  canonicalize_nans(out);
  return out;
}

cvec resample(std::span<const cfloat> in, double in_rate, double out_rate) {
  return Resampler(in_rate, out_rate).resample(in);
}

cvec resample_reference(std::span<const cfloat> in, double in_rate,
                        double out_rate, double fractional_delay) {
  const double ratio = Resampler(in_rate, out_rate).ratio();
  check_delay(fractional_delay);
  const std::size_t n_out = output_length(in.size(), ratio);
  cvec out(n_out);
  const double cutoff = cutoff_for(ratio);
  for (std::size_t m = 0; m < n_out; ++m) {
    const double center = static_cast<double>(m) / ratio + fractional_delay;
    const auto lo = static_cast<long>(std::ceil(center)) - kHalfWidth;
    const auto hi = static_cast<long>(std::floor(center)) + kHalfWidth;
    cfloat acc{};
    for (long k = lo; k <= hi; ++k) {
      if (k < 0 || k >= static_cast<long>(in.size())) continue;
      acc += in[static_cast<std::size_t>(k)] *
             sinc_kernel(static_cast<double>(k) - center, cutoff);
    }
    out[m] = acc;
  }
  canonicalize_nans(out);
  return out;
}

}  // namespace rjf::dsp
