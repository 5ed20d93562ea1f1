// ReactiveJammer — the framework's top-level facade.
//
// Owns a modelled USRP N210 (SBX front end + custom FPGA core) and exposes
// the operations the paper's host application performs: program a jamming
// personality, retune/regain the front end, stream receive baseband through
// the detector, and read back detection/jam statistics. Personalities can
// be switched at runtime without "reprogramming the FPGA": reconfigure()
// goes through the settings-bus model and costs only its latency.
#pragma once

#include "core/jammer_config.h"
#include "radio/usrp_n210.h"

namespace rjf::obs {
class Telemetry;
class MetricsRegistry;
}  // namespace rjf::obs

namespace rjf::core {

class ReactiveJammer {
 public:
  /// Program the initial personality at start-up (immediate writes).
  explicit ReactiveJammer(const JammerConfig& config);

  /// Switch personality at runtime through the settings bus; the new
  /// settings take effect mid-stream after the bus latency.
  void reconfigure(const JammerConfig& config);

  /// Attach a telemetry bundle (nullptr detaches). Wires the bundle's
  /// event ring through the radio into the fabric core and settings bus,
  /// and records the current personality description as a trace
  /// annotation. Instrumented streaming keeps the event-driven block path
  /// (see DspCore::set_ring()).
  void attach_trace(obs::Telemetry* telemetry);
  [[nodiscard]] obs::Telemetry* telemetry() const noexcept {
    return telemetry_;
  }
  /// Metrics of the attached telemetry bundle, nullptr when detached.
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept;

  /// Flush all detector and jammer pipeline state — energy-differentiator
  /// moving sums, correlator shift registers, trigger-FSM stage, TX
  /// countdowns, feedback counters and VITA time — while preserving the
  /// programmed personality (register contents survive a fabric reset and
  /// are re-latched into the datapath). Experiment harnesses call this
  /// between captures so trials are independent (§3.2); do not call while
  /// a settings-bus write is in flight.
  void reset_detection_state();

  /// Tune both TX and RX front ends (they start together; paper §2.1).
  void tune(double freq_hz);
  void set_tx_gain(double db);

  /// Attach fault hooks to the radio (nullptr detaches; see
  /// radio/fault_hooks.h). observe() then absorbs whatever the hooks
  /// inject: overflow gaps are skipped with exact VITA accounting inside
  /// the stream, recovery counters land in the attached metrics registry,
  /// and a stream with overflow gaps flushes detector state.
  void attach_fault_hooks(radio::RxFaultHook* rx_hook,
                          radio::BusFaultHook* bus_hook) noexcept {
    radio_.attach_fault_hooks(rx_hook, bus_hook);
  }

  /// Run the radio over receive baseband at 25 MSPS; returns the emitted
  /// jamming waveform and per-call statistics. The whole block is pushed
  /// through the cycle-accurate core with the block-processing fast path.
  /// Recovers (absorb_stream_faults) when the stream reports degradation.
  radio::UsrpN210::StreamResult observe(std::span<const dsp::cfloat> rx);

  /// Same pass over DDC-domain fabric samples, skipping the front-end gain
  /// and ADC models (for simulations that synthesise IQ16 directly).
  radio::UsrpN210::StreamResult observe(std::span<const dsp::IQ16> rx);

  [[nodiscard]] radio::UsrpN210& radio() noexcept { return radio_; }
  [[nodiscard]] const fpga::HostFeedback& feedback() const noexcept {
    return radio_.feedback();
  }
  [[nodiscard]] const JammerConfig& config() const noexcept { return config_; }

 private:
  /// Translate a JammerConfig to register writes via `write`.
  template <typename WriteFn>
  void program(const JammerConfig& config, WriteFn&& write);

  /// Record fault metrics after a stream and, after overflow gaps, flush
  /// detector state via reset_detection_state() so half-formed
  /// correlator/FSM state built from pre-gap samples cannot mis-trigger on
  /// post-gap data. The flush is skipped while a settings-bus write is in
  /// flight (the reset would race the write's completion time). A clean
  /// result (no gaps, no clipping) returns immediately, keeping
  /// the zero-fault path identical to the unhooked one.
  void absorb_stream_faults(const radio::UsrpN210::StreamResult& result);

  JammerConfig config_;
  radio::UsrpN210 radio_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace rjf::core
