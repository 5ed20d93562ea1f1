// TraceRecorder — fixed-capacity ring buffer of VITA-timestamped events.
//
// The software twin of the paper's oscilloscope + ChipScope setup: every
// instrumented layer records trigger edges, FSM transitions, jam bursts,
// settings-bus traffic and front-end changes here. The buffer keeps the
// newest `capacity` events (oldest are overwritten, like a scope's
// acquisition memory) and exports either Chrome trace-event JSON — loadable
// in Perfetto / chrome://tracing for a Fig.-12-style timeline view — or a
// flat CSV for scripted analysis.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace rjf::obs {

class TraceRecorder {
 public:
  /// `capacity` is rounded up to at least 2 events.
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  void record(EventKind kind, std::uint64_t vita_ticks,
              std::uint64_t value) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events recorded in total, including any that were overwritten.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to ring wraparound (recorded() - size()).
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return recorded_ - size_;
  }

  /// Copy the retained events out in chronological (recording) order.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  void clear() noexcept;

  /// Annotations are (vita, label) pairs — e.g. the jamming personality
  /// active from that time — written as process metadata and instant events.
  using Annotation = std::pair<std::uint64_t, std::string>;

  /// Export Chrome trace-event JSON (the format Perfetto and
  /// chrome://tracing load). Timestamps are microseconds of VITA time; jam
  /// bursts and settings-bus writes are emitted as complete ("X") spans by
  /// pairing their start/end events, everything else as instants.
  bool write_chrome_trace(const std::string& path,
                          std::span<const Annotation> annotations = {}) const;

  /// Spans the export degrades to instants because their start event was
  /// overwritten by ring wraparound: a kJamEnd with no surviving kJamStart,
  /// or a settings apply/drop whose issue fell off. Surfaced in metrics
  /// exports as `trace.spans_truncated` so a trace that silently lost span
  /// starts is detectable without diffing the JSON.
  [[nodiscard]] std::uint64_t spans_truncated() const noexcept;

  /// Export a flat CSV: vita_ticks,time_us,kind,value.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace rjf::obs
