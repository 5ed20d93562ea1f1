#include "obs/telemetry.h"

namespace rjf::obs {

namespace {

// Histogram binnings, all in fabric ticks (10 ns). Chosen so the paper's
// latency arithmetic lands mid-range: T_init = 8 ticks, T_en <= 128 ticks,
// T_xcorr = 256 ticks, settings bus ~40 ticks/write.
constexpr std::uint64_t kLatencyBins = 64;        // width 1: 0 .. 640 ns
constexpr std::uint64_t kDetectBins = 512;        // width 1: 0 .. 5.12 us
constexpr std::uint64_t kSettingsWidth = 10;      // 100 ns per bin
constexpr std::uint64_t kSettingsBins = 128;      // 0 .. 12.8 us
constexpr std::uint64_t kInterarrivalWidth = 10000;  // 100 us per bin
constexpr std::uint64_t kInterarrivalBins = 250;     // 0 .. 25 ms
constexpr std::uint64_t kRecoveryWidth = 64;         // 640 ns per bin
constexpr std::uint64_t kRecoveryBins = 256;         // 0 .. 163.84 us

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& config)
    : trace_(config.trace_capacity),
      probe_(config.probe),
      probe_enabled_(config.probe_enabled),
      ring_(config.ring) {
  ring_.set_consumer(this, /*inline_drain=*/!config.drain_thread);
  if (config.drain_thread) drainer_.emplace(ring_, config.drain_poll_us);
  // Pre-create the derived histograms so exports are shaped consistently
  // even before the first event arrives.
  metrics_.histogram("trigger_to_rf_ticks", 0, 1, kLatencyBins);
  metrics_.histogram("detect_to_rf_ticks", 0, 1, kDetectBins);
  metrics_.histogram("detection_interarrival_ticks", 0, kInterarrivalWidth,
                     kInterarrivalBins);
  metrics_.histogram("settings_bus_latency_ticks", 0, kSettingsWidth,
                     kSettingsBins);
  metrics_.histogram("fault_recovery_ticks", 0, kRecoveryWidth, kRecoveryBins);
}

void Telemetry::set_personality(const std::string& description,
                                std::uint64_t vita_ticks) {
  personalities_.emplace_back(vita_ticks, description);
  // The trace record and counter ride the ring so they serialise with the
  // fabric event stream (and with the drain thread, when one is running).
  ring_.push_event(EventKind::kPersonality, vita_ticks,
                   personalities_.size() - 1);
  ring_.drain_if_inline();
}

void Telemetry::on_event(EventKind kind, std::uint64_t vita_ticks,
                         std::uint64_t value) {
  if (kind == EventKind::kStreamWall) {
    // Producer-measured wall time: feeds the throughput gauge only. Never
    // traced or counted — its value is nondeterministic, and keeping it out
    // of the trace keeps trace exports byte-reproducible across runs.
    metrics_.add("stream_wall_ns", value);
    return;
  }
  trace_.record(kind, vita_ticks, value);
  metrics_.add(std::string("events.") + event_kind_name(kind), 1);
  if (vita_ticks > last_vita_) last_vita_ = vita_ticks;

  switch (kind) {
    case EventKind::kXcorrTrigger:
    case EventKind::kEnergyRise:
    case EventKind::kEnergyFall: {
      if (have_last_detection_)
        metrics_
            .histogram("detection_interarrival_ticks", 0, kInterarrivalWidth,
                       kInterarrivalBins)
            .record(vita_ticks - last_detection_vita_);
      have_last_detection_ = true;
      last_detection_vita_ = vita_ticks;
      // Arm the detector-edge->RF measurement on the first RISING edge of a
      // potential trigger sequence (FSM stage sequencing included). Fall
      // edges mark end-of-packet: arming on them would measure the idle gap
      // between the previous burst's tail and the next frame instead of the
      // detection chain.
      if (kind != EventKind::kEnergyFall && !armed_ && !trigger_pending_ &&
          !jam_open_) {
        armed_ = true;
        armed_vita_ = vita_ticks;
      }
      break;
    }
    case EventKind::kJamTrigger:
      trigger_pending_ = true;
      trigger_vita_ = vita_ticks;
      break;
    case EventKind::kJamStart:
      jam_open_ = true;
      jam_start_vita_ = vita_ticks;
      if (trigger_pending_) {
        metrics_.histogram("trigger_to_rf_ticks", 0, 1, kLatencyBins)
            .record(vita_ticks - trigger_vita_);
        trigger_pending_ = false;
      }
      if (armed_) {
        metrics_.histogram("detect_to_rf_ticks", 0, 1, kDetectBins)
            .record(vita_ticks - armed_vita_);
        armed_ = false;
      }
      break;
    case EventKind::kJamEnd:
      if (jam_open_) {
        metrics_.add("jam_ticks_on_air", vita_ticks - jam_start_vita_);
        jam_open_ = false;
      }
      break;
    case EventKind::kSettingsWriteIssued:
      settings_issue_vitas_.push_back(vita_ticks);
      break;
    case EventKind::kSettingsWriteApplied:
      // The bus is FIFO, so issue/apply events pair in order.
      if (!settings_issue_vitas_.empty()) {
        metrics_
            .histogram("settings_bus_latency_ticks", 0, kSettingsWidth,
                       kSettingsBins)
            .record(vita_ticks - settings_issue_vitas_.front());
        settings_issue_vitas_.pop_front();
      }
      break;
    case EventKind::kStreamStart:
      stream_open_ = true;
      stream_start_vita_ = vita_ticks;
      break;
    case EventKind::kStreamEnd:
      if (stream_open_) {
        metrics_.add("stream_samples", value);
        metrics_.add("stream_fabric_ticks", vita_ticks - stream_start_vita_);
        stream_open_ = false;
      }
      break;
    case EventKind::kSettingsWriteDropped:
      // A dropped write's issue never pairs with an apply; pop it so the
      // FIFO pairing stays aligned for the writes queued behind it (the
      // retry re-emits kSettingsWriteIssued).
      if (!settings_issue_vitas_.empty()) settings_issue_vitas_.pop_front();
      metrics_.add("fault.bus_writes_dropped", 1);
      break;
    case EventKind::kSettingsWriteRetried:
      metrics_.add("fault.bus_writes_retried", 1);
      break;
    case EventKind::kSettingsWriteAbandoned:
      metrics_.add("fault.bus_writes_abandoned", 1);
      break;
    case EventKind::kOverflowGap:
      metrics_.add("fault.overflow_samples_lost", value);
      break;
    case EventKind::kDetectorFlush:
      // value = fabric ticks the stream skipped while the detector state
      // was flushed: the blind window a fault cost the jammer.
      metrics_.histogram("fault_recovery_ticks", 0, kRecoveryWidth,
                         kRecoveryBins)
          .record(value);
      // A flush invalidates any half-armed latency measurement.
      armed_ = false;
      trigger_pending_ = false;
      break;
    case EventKind::kFaultInjected:
      break;
    case EventKind::kPersonality:
      metrics_.add("personality_changes", 1);
      break;
    case EventKind::kFsmStage:
    case EventKind::kRetune:
    case EventKind::kGainChange:
    case EventKind::kStreamWall:
      break;
  }
}

void Telemetry::on_strobe(const FabricSignals& signals) {
  if (probe_enabled_) probe_.on_strobe(signals);
}

double Telemetry::jam_duty_cycle() const noexcept {
  const std::uint64_t streamed =
      metrics_.counter_value("stream_fabric_ticks");
  if (streamed == 0) return 0.0;
  std::uint64_t on_air = metrics_.counter_value("jam_ticks_on_air");
  // A burst still open at readout counts up to the last event seen.
  if (jam_open_ && last_vita_ > jam_start_vita_)
    on_air += last_vita_ - jam_start_vita_;
  return static_cast<double>(on_air) / static_cast<double>(streamed);
}

void Telemetry::refresh_gauges() {
  metrics_.set_gauge("jam_duty_cycle", jam_duty_cycle());
  const std::uint64_t wall_ns = metrics_.counter_value("stream_wall_ns");
  if (wall_ns > 0)
    metrics_.set_gauge("host_throughput_msps",
                       static_cast<double>(
                           metrics_.counter_value("stream_samples")) * 1e3 /
                           static_cast<double>(wall_ns));
  const Histogram* trig = metrics_.find_histogram("trigger_to_rf_ticks");
  if (trig != nullptr && trig->count() > 0)
    metrics_.set_gauge("trigger_to_rf_mean_ns", trig->mean() * kTickNs);
  const Histogram* det = metrics_.find_histogram("detect_to_rf_ticks");
  if (det != nullptr && det->count() > 0)
    metrics_.set_gauge("detect_to_rf_mean_ns", det->mean() * kTickNs);
  metrics_.counter("trace_events_recorded") = trace_.recorded();
  metrics_.counter("trace_events_overwritten") = trace_.overwritten();
  metrics_.counter("trace.spans_truncated") = trace_.spans_truncated();
  metrics_.counter("probe_captures") = probe_.captures().size();
  // Transport accounting: how much the ring accepted, dropped on full, and
  // decimated away — lossy capture shows up here, never silently.
  metrics_.counter("obs.ring_records") = ring_.pushed();
  metrics_.counter("obs.ring_dropped") = ring_.dropped();
  metrics_.counter("obs.strobes_sampled_out") = ring_.sampled_out();
}

bool Telemetry::write_chrome_trace(const std::string& path) {
  flush();
  return trace_.write_chrome_trace(path, personalities_);
}

bool Telemetry::write_metrics_json(const std::string& path) {
  flush();
  refresh_gauges();
  return metrics_.write_file(path);
}

}  // namespace rjf::obs
