#include "obs/trace_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json_writer.h"

namespace rjf::obs {

namespace {

// Chrome trace "tid" lanes, so Perfetto draws each subsystem on its own row.
enum Lane : int {
  kLaneDetectors = 1,
  kLaneTrigger = 2,
  kLaneTx = 3,
  kLaneSettingsBus = 4,
  kLaneHost = 5,
  kLaneFaults = 6,
};

int lane_for(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kXcorrTrigger:
    case EventKind::kEnergyRise:
    case EventKind::kEnergyFall:
      return kLaneDetectors;
    case EventKind::kFsmStage:
    case EventKind::kJamTrigger:
      return kLaneTrigger;
    case EventKind::kJamStart:
    case EventKind::kJamEnd:
      return kLaneTx;
    case EventKind::kSettingsWriteIssued:
    case EventKind::kSettingsWriteApplied:
    case EventKind::kSettingsWriteDropped:
    case EventKind::kSettingsWriteRetried:
    case EventKind::kSettingsWriteAbandoned:
      return kLaneSettingsBus;
    case EventKind::kRetune:
    case EventKind::kGainChange:
    case EventKind::kStreamStart:
    case EventKind::kStreamEnd:
    case EventKind::kPersonality:
      return kLaneHost;
    case EventKind::kOverflowGap:
    case EventKind::kDetectorFlush:
    case EventKind::kFaultInjected:
      return kLaneFaults;
    case EventKind::kStreamWall:
      return kLaneHost;  // never recorded; kept for switch coverage
  }
  return kLaneHost;
}

void emit_thread_name(std::FILE* f, int tid, const char* name,
                      bool& first) {
  std::fprintf(f,
               "%s    {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
               first ? "" : ",\n", tid, name);
  first = false;
}

void emit_instant(std::FILE* f, const TraceEvent& e, bool& first) {
  std::fprintf(f,
               "%s    {\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
               "\"tid\":%d,\"ts\":%.3f,\"args\":{\"value\":%" PRIu64
               ",\"vita_ticks\":%" PRIu64 "}}",
               first ? "" : ",\n", event_kind_name(e.kind),
               lane_for(e.kind), ticks_to_us(e.vita_ticks), e.value,
               e.vita_ticks);
  first = false;
}

void emit_span(std::FILE* f, const char* name, int tid,
               std::uint64_t start, std::uint64_t end, std::uint64_t value,
               bool& first) {
  std::fprintf(f,
               "%s    {\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"value\":%" PRIu64
               ",\"vita_ticks\":%" PRIu64 "}}",
               first ? "" : ",\n", name, tid, ticks_to_us(start),
               ticks_to_us(end - start), value, start);
  first = false;
}

// The trace body: subsystem row names, the start/end pairing pass
// (jam bursts + settings writes as "X" spans, degraded to instants when the
// start was overwritten), and personality annotations.
void emit_body(std::FILE* f, std::span<const TraceEvent> evs,
               std::span<const TraceRecorder::Annotation> annotations,
               bool& first) {
  emit_thread_name(f, kLaneDetectors, "detectors", first);
  emit_thread_name(f, kLaneTrigger, "trigger fsm", first);
  emit_thread_name(f, kLaneTx, "tx / jam bursts", first);
  emit_thread_name(f, kLaneSettingsBus, "settings bus", first);
  emit_thread_name(f, kLaneHost, "host", first);
  emit_thread_name(f, kLaneFaults, "faults / recovery", first);

  // Jam bursts: pair each kJamStart with the next kJamEnd. The bus is FIFO,
  // so settings writes pair the same way per queue order.
  std::vector<std::uint64_t> settings_issues;
  std::size_t settings_next = 0;
  std::uint64_t jam_open = 0;
  bool jam_is_open = false;
  std::uint64_t last_ts = 0;

  for (const TraceEvent& e : evs) {
    last_ts = std::max(last_ts, e.vita_ticks);
    switch (e.kind) {
      case EventKind::kJamStart:
        jam_open = e.vita_ticks;
        jam_is_open = true;
        break;
      case EventKind::kJamEnd:
        if (jam_is_open) {
          emit_span(f, "jam_burst", kLaneTx, jam_open, e.vita_ticks,
                    e.value, first);
          jam_is_open = false;
        } else {
          emit_instant(f, e, first);  // start fell off the ring
        }
        break;
      case EventKind::kSettingsWriteIssued:
        settings_issues.push_back(e.vita_ticks);
        break;
      case EventKind::kSettingsWriteApplied:
        if (settings_next < settings_issues.size()) {
          emit_span(f, "settings_write", kLaneSettingsBus,
                    settings_issues[settings_next++], e.vita_ticks, e.value,
                    first);
        } else {
          emit_instant(f, e, first);
        }
        break;
      case EventKind::kSettingsWriteDropped:
        // A dropped write consumes its issue (a retry re-issues), keeping
        // the FIFO pairing intact for the writes behind it.
        if (settings_next < settings_issues.size()) {
          emit_span(f, "settings_write_dropped", kLaneSettingsBus,
                    settings_issues[settings_next++], e.vita_ticks, e.value,
                    first);
        } else {
          emit_instant(f, e, first);
        }
        break;
      default:
        emit_instant(f, e, first);
        break;
    }
  }
  // A burst still on the air when the trace is exported: close it at the
  // last known time so the span is visible.
  if (jam_is_open)
    emit_span(f, "jam_burst", kLaneTx, jam_open,
              std::max(last_ts, jam_open), 0, first);

  for (const TraceRecorder::Annotation& a : annotations) {
    std::fprintf(f,
                 "%s    {\"name\":\"personality\",\"ph\":\"i\",\"s\":\"g\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"args\":{\"description\":\"%s\"}}",
                 first ? "" : ",\n", kLaneHost, ticks_to_us(a.first),
                 JsonWriter::escape(a.second).c_str());
    first = false;
  }
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 2)) {}

void TraceRecorder::record(EventKind kind, std::uint64_t vita_ticks,
                           std::uint64_t value) noexcept {
  ring_[head_] = TraceEvent{vita_ticks, value, kind};
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (size_ < ring_.size()) ++size_;
  ++recorded_;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest retained event sits at head_ once the ring has wrapped.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t k = 0; k < size_; ++k)
    out.push_back(ring_[(start + k) % ring_.size()]);
  return out;
}

void TraceRecorder::clear() noexcept {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
}

bool TraceRecorder::write_chrome_trace(
    const std::string& path, std::span<const Annotation> annotations) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;

  std::fputs("{\n  \"displayTimeUnit\": \"ns\",\n", f);
  std::fprintf(f,
               "  \"otherData\": {\"fabric_clock_hz\": 1e8, "
               "\"events_recorded\": %" PRIu64 ", \"events_overwritten\": %" PRIu64
               "%s",
               recorded_, overwritten(), annotations.empty() ? "" : ", ");
  if (!annotations.empty())
    std::fprintf(f, "\"personality\": \"%s\"",
                 JsonWriter::escape(annotations.back().second).c_str());
  std::fputs("},\n  \"traceEvents\": [\n", f);

  bool first = true;
  const std::vector<TraceEvent> evs = events();
  emit_body(f, evs, annotations, first);

  std::fputs("\n  ]\n}\n", f);
  return std::fclose(f) == 0;
}

std::uint64_t TraceRecorder::spans_truncated() const noexcept {
  // Mirror of emit_body()'s pairing pass: every end-side event whose start
  // was overwritten by ring wraparound degrades its span to an instant.
  std::uint64_t truncated = 0;
  std::size_t issues = 0;
  std::size_t paired = 0;
  bool jam_is_open = false;
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t k = 0; k < size_; ++k) {
    const TraceEvent& e = ring_[(start + k) % ring_.size()];
    switch (e.kind) {
      case EventKind::kJamStart:
        jam_is_open = true;
        break;
      case EventKind::kJamEnd:
        if (jam_is_open)
          jam_is_open = false;
        else
          ++truncated;
        break;
      case EventKind::kSettingsWriteIssued:
        ++issues;
        break;
      case EventKind::kSettingsWriteApplied:
      case EventKind::kSettingsWriteDropped:
        if (paired < issues)
          ++paired;
        else
          ++truncated;
        break;
      default:
        break;
    }
  }
  return truncated;
}

bool TraceRecorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("vita_ticks,time_us,kind,value\n", f);
  for (const TraceEvent& e : events())
    std::fprintf(f, "%" PRIu64 ",%.3f,%s,%" PRIu64 "\n", e.vita_ticks,
                 ticks_to_us(e.vita_ticks), event_kind_name(e.kind), e.value);
  return std::fclose(f) == 0;
}

}  // namespace rjf::obs
