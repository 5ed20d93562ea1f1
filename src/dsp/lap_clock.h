// Host-time split of a call into consecutive stages, for traced runs.
#pragma once

#include <chrono>
#include <cstdint>

namespace rjf::dsp {

/// Adds the host nanoseconds of consecutive stages to per-stage counters.
/// A disabled clock never reads the host clock, so an untraced caller pays
/// one branch per lap.
class LapClock {
 public:
  explicit LapClock(bool enabled) noexcept : enabled_(enabled) {
    if (enabled_) last_ = Clock::now();
  }

  /// Add the time since construction, or since the last lap or restart, to
  /// `ns`, and start the next lap.
  void lap(std::uint64_t& ns) noexcept {
    if (!enabled_) return;
    const Clock::time_point now = Clock::now();
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count());
    last_ = now;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Start the next lap now, counting the time since the last one nowhere
  /// (it was a span that another clock split).
  void restart() noexcept {
    if (enabled_) last_ = Clock::now();
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point last_{};
};

}  // namespace rjf::dsp
