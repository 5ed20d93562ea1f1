// Telemetry — the one-stop observability bundle examples and benches
// attach per run.
//
// Owns the obs::EventRing producers write into and bundles the three
// instruments its drain side fans out to (Telemetry is the ring's
// registered FabricSink consumer):
//   - TraceRecorder  : VITA-timestamped event ring -> Chrome trace / CSV
//   - MetricsRegistry: counters + fixed-bin histograms -> JSON
//   - SignalProbe    : pre/post waveform captures around trigger edges
// and derives the paper-facing metrics from the raw event stream as it
// arrives: trigger->RF reaction latency (the measured T_init + surgical
// delay), detector-edge->RF latency (adds FSM sequencing), detection
// inter-arrival times, jam duty cycle, settings-bus write latency, and
// per-stream host throughput (samples per wall-clock second).
//
// Attach through ReactiveJammer::attach_trace() (or
// UsrpN210::attach_ring(&telemetry.ring()) / DspCore::set_ring() at lower
// layers). Two drain modes (TelemetryConfig::drain_thread):
//   - inline (default): producers drain the ring at block/stream
//     boundaries on their own thread — no extra thread, and exports are
//     always up to date after a stream call returns.
//   - drain thread: a RingDrainThread consumes concurrently; call flush()
//     (or any export, which flushes first) after producers quiesce.
// Either way the record stream is identical, so traces and deterministic
// metrics are byte-for-byte the same in both modes. Detach before
// destroying the Telemetry object — producers keep only a raw pointer.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_ring.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/signal_probe.h"
#include "obs/trace_recorder.h"

namespace rjf::obs {

struct TelemetryConfig {
  std::size_t trace_capacity = 1 << 16;
  bool probe_enabled = true;
  ProbeConfig probe;
  /// Transport: ring capacity, emission level, strobe sampling.
  RingConfig ring;
  /// Consume from a background RingDrainThread instead of inline at block
  /// boundaries (for streaming runs where the producer thread must not pay
  /// even the drain cost).
  bool drain_thread = false;
  std::uint32_t drain_poll_us = 200;
};

class Telemetry final : public FabricSink {
 public:
  explicit Telemetry(const TelemetryConfig& config = {});

  /// The transport producers push into (ReactiveJammer/UsrpN210 wire this
  /// through the layers on attach).
  [[nodiscard]] EventRing& ring() noexcept { return ring_; }
  [[nodiscard]] const EventRing& ring() const noexcept { return ring_; }

  /// Dispatch every record still in the ring. Exports call this first; in
  /// drain-thread mode call it after producers quiesce to make readers
  /// (trace()/metrics()/probe()) consistent.
  void flush() { (void)ring_.drain(); }

  [[nodiscard]] TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const noexcept { return trace_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] SignalProbe& probe() noexcept { return probe_; }
  [[nodiscard]] const SignalProbe& probe() const noexcept { return probe_; }

  /// Record the jamming personality active from `vita_ticks` on. Exported
  /// traces carry the full history as annotations, so every trace names the
  /// personality that produced it (JammingEventBuilder::describe() strings
  /// land here via ReactiveJammer). The trace record itself rides the ring
  /// like any other event, so it cannot race the drain thread.
  void set_personality(const std::string& description,
                       std::uint64_t vita_ticks);
  [[nodiscard]] const std::vector<TraceRecorder::Annotation>& personalities()
      const noexcept {
    return personalities_;
  }

  // FabricSink (the ring's drain side calls these) ---------------------------
  void on_event(EventKind kind, std::uint64_t vita_ticks,
                std::uint64_t value) override;
  void on_strobe(const FabricSignals& signals) override;

  /// RF-on-air ticks / streamed fabric ticks (0 when nothing streamed yet).
  [[nodiscard]] double jam_duty_cycle() const noexcept;

  // Exports (each flushes the ring first) ------------------------------------
  /// Chrome trace-event JSON with personality annotations (Perfetto).
  bool write_chrome_trace(const std::string& path);
  /// Metrics JSON; refreshes derived gauges (duty cycle, throughput) first.
  bool write_metrics_json(const std::string& path);
  bool write_probe_csv(const std::string& path) {
    flush();
    return probe_.write_csv(path);
  }

  /// Recompute derived gauges from the counters accumulated so far, plus
  /// the transport/drop accounting (obs.ring_dropped, trace.spans_truncated
  /// and friends) so lossy capture is visible in every metrics export.
  void refresh_gauges();

 private:
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  SignalProbe probe_;
  bool probe_enabled_;

  std::vector<TraceRecorder::Annotation> personalities_;

  // Latency derivation state.
  bool armed_ = false;                  // detector edge seen, RF not yet up
  std::uint64_t armed_vita_ = 0;
  bool trigger_pending_ = false;        // jam trigger fired, RF not yet up
  std::uint64_t trigger_vita_ = 0;
  bool have_last_detection_ = false;
  std::uint64_t last_detection_vita_ = 0;
  bool jam_open_ = false;
  std::uint64_t jam_start_vita_ = 0;
  std::uint64_t last_vita_ = 0;
  std::deque<std::uint64_t> settings_issue_vitas_;
  bool stream_open_ = false;
  std::uint64_t stream_start_vita_ = 0;

  // Transport declared last so destruction stops the drain thread first,
  // then the ring, while the consumer instruments above still exist.
  EventRing ring_;
  std::optional<RingDrainThread> drainer_;
};

}  // namespace rjf::obs
