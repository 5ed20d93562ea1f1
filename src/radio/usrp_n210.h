// Full USRP N210 jammer radio: SBX front-end, 14-bit ADC, the custom FPGA
// DSP core at the 25 MSPS point of the DDC chain, 16-bit DAC, and the UHD
// settings bus for host control (paper Fig. 1).
//
// Both TX and RX chains are initialised together at start-up (paper §2.1)
// so there is no RX->TX switching cost; stream() is therefore full-duplex:
// it consumes receive baseband and produces the transmit baseband emitted
// over the same time span, sample-aligned, which is exactly what the
// channel model needs to superimpose jamming onto ongoing traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/types.h"
#include "fpga/dsp_core.h"
#include "obs/event_ring.h"
#include "radio/adc_dac.h"
#include "radio/frontend.h"
#include "radio/settings_bus.h"

namespace rjf::radio {

class RxFaultHook;
class BusFaultHook;

/// One contiguous interval of RF jamming energy, in 25 MSPS sample units
/// relative to the start of the stream() call.
struct JamBurst {
  std::size_t start_sample = 0;
  std::size_t length = 0;
};

class UsrpN210 {
 public:
  UsrpN210();

  [[nodiscard]] SbxFrontend& frontend() noexcept { return frontend_; }
  [[nodiscard]] fpga::DspCore& core() noexcept { return core_; }
  [[nodiscard]] const fpga::DspCore& core() const noexcept { return core_; }

  /// Host register write through the settings bus (applies after latency).
  void write_register(fpga::Reg addr, std::uint32_t value);

  /// Setup-time write: applies immediately and re-latches the datapath.
  /// Use before streaming starts, like programming the device at start-up.
  void write_register_now(fpga::Reg addr, std::uint32_t value);

  struct StreamResult {
    dsp::cvec tx;                  // emitted jamming baseband, rx-aligned
    std::vector<JamBurst> bursts;  // where the jammer was on the air
    std::uint64_t jam_triggers = 0;
    std::uint64_t xcorr_detections = 0;
    std::uint64_t energy_high_detections = 0;
    std::uint64_t energy_low_detections = 0;
    // Fault/recovery accounting for this block. last_trigger_vita is
    // captured here (not read back from feedback()) so callers that reset
    // detection state after a degraded stream still see the trigger time.
    std::uint64_t last_trigger_vita = 0;
    std::uint64_t overflow_gaps = 0;   // gaps skipped in this block
    std::uint64_t samples_lost = 0;    // rx samples inside those gaps
    bool adc_clipped = false;          // any sample clipped in the ADC
  };

  /// Run the radio over a block of receive baseband at 25 MSPS. The RX
  /// gain and the ADC run as one pass over the whole block (Adc::convert
  /// with the front-end amplitude) into a fabric-sample buffer the radio
  /// reuses across calls, and the result goes through stream_fabric().
  /// With an rx fault hook attached the gained block is staged in a second
  /// reused buffer first, for the hook's mutate_rx(), and then quantised at
  /// gain 1. Bit-identical to stream_fabric(adc.convert(
  /// frontend().apply_rx(rx))) with the hook's mutate_rx() in between.
  StreamResult stream(std::span<const dsp::cfloat> rx);

  /// Same full-duplex pass over samples already in the fabric (DDC-output)
  /// representation, skipping the front-end RX gain and ADC models.
  /// Network simulations that synthesise fabric-domain baseband directly
  /// use this to avoid the float round-trip. The block goes through the DSP
  /// core with DspCore::run_block(), chunked only where an in-flight
  /// settings-bus write lands (so mid-stream reconfiguration keeps its
  /// exact latency) or an overflow gap starts; the scan over each chunk's
  /// per-sample records converts the TX samples on the air and applies the
  /// TX gain to each as it goes, so off-air samples stay exact zeros.
  StreamResult stream_fabric(std::span<const dsp::IQ16> rx);

  [[nodiscard]] const fpga::HostFeedback& feedback() const noexcept {
    return core_.feedback();
  }
  [[nodiscard]] std::uint64_t now_ticks() const noexcept {
    return feedback().vita_ticks;
  }
  [[nodiscard]] const SettingsBus& settings_bus() const noexcept { return bus_; }
  [[nodiscard]] SettingsBus& settings_bus() noexcept { return bus_; }

  /// Attach the telemetry event ring to the whole radio (nullptr
  /// detaches): the fabric core pushes trigger/jam events and sampled
  /// per-strobe snapshots, the settings bus reports write issue/completion,
  /// and each stream call is bracketed by kStreamStart/kStreamEnd events
  /// carrying the sample count. Inline-drain rings are drained at each
  /// stream boundary, so by the time stream() returns the consumer has
  /// seen every record.
  void attach_ring(obs::EventRing* ring) noexcept {
    ring_ = ring;
    core_.set_ring(ring);
    bus_.set_ring(ring);
  }
  [[nodiscard]] obs::EventRing* ring() const noexcept { return ring_; }

  /// Attach fault hooks (nullptr detaches either). The rx hook mutates the
  /// receive baseband and declares overflow gaps; the bus hook stalls or
  /// drops register writes. Attaching rewinds the absolute rx stream cursor
  /// to 0, so a hook's sample-indexed fault plan starts at the next
  /// stream() call. With both hooks null — or hooks whose plans are empty —
  /// the radio is bit-identical to an unhooked one.
  void attach_fault_hooks(RxFaultHook* rx_hook, BusFaultHook* bus_hook) noexcept {
    rx_fault_ = rx_hook;
    bus_.set_fault_hook(bus_hook);
    rx_cursor_ = 0;
  }
  /// Absolute rx stream position (samples consumed by stream() since the
  /// last attach_fault_hooks()).
  [[nodiscard]] std::uint64_t rx_cursor() const noexcept { return rx_cursor_; }

 private:
  SbxFrontend frontend_;
  Adc adc_;
  Dac dac_;
  fpga::DspCore core_;
  SettingsBus bus_;
  obs::EventRing* ring_ = nullptr;
  RxFaultHook* rx_fault_ = nullptr;
  std::uint64_t rx_cursor_ = 0;
  // Buffers reused across stream calls. iq_ holds the ADC output and
  // gained_ the block a fault hook edits before it; both only ever grow.
  // periods_ holds one run_block() chunk of per-sample records.
  dsp::iqvec iq_;
  dsp::cvec gained_;
  std::vector<fpga::SamplePeriodOutput> periods_;
};

}  // namespace rjf::radio
