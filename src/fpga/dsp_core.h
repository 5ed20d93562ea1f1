// The custom DSP core nested inside the USRP N210 DDC chain (paper Figs. 1-2).
//
// Composes the four main functional blocks — cross-correlator, energy
// differentiator, jamming event builder (trigger FSM) and transmit
// controller — plus the smaller logic for timing (VITA time) and host
// feedback. The core is cycle-accurate: tick() advances one 100 MHz fabric
// clock, and a receive sample strobe arrives every 4th tick (25 MSPS),
// matching the paper's clock/sample-rate relationship that underlies all
// of its latency arithmetic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dsp/types.h"
#include "fpga/cross_correlator.h"
#include "fpga/energy_differentiator.h"
#include "fpga/jammer_controller.h"
#include "fpga/register_file.h"
#include "fpga/trigger_fsm.h"
#include "obs/event_ring.h"
#include "obs/events.h"

namespace rjf::fpga {

// Host-facing rate constants (Hz). These parameterise latency arithmetic
// and resampling on the host side; the fabric itself only knows the 4:1
// clock-to-strobe ratio (kClocksPerSample).
inline constexpr double kFabricClockHz = 100e6;   // rjf-analyze: allow(fabric.float-in-datapath)
inline constexpr double kBasebandRateHz = 25e6;   // rjf-analyze: allow(fabric.float-in-datapath)

struct CoreOutput {
  bool rx_strobe = false;       // this tick consumed a baseband sample
  bool xcorr_trigger = false;
  bool energy_high = false;
  bool energy_low = false;
  bool jam_trigger = false;     // FSM fired this tick
  JammerController::TxOut tx;   // TX path output
  std::uint64_t vita_ticks = 0; // fabric clock count (VITA time, GPS locked)
};

/// Host-visible feedback flags and counters (the "Host Feedback
/// (Synchro Flags)" path in Fig. 1).
struct HostFeedback {
  std::uint64_t xcorr_detections = 0;
  std::uint64_t energy_high_detections = 0;
  std::uint64_t energy_low_detections = 0;
  std::uint64_t jam_triggers = 0;
  std::uint64_t last_trigger_vita = 0;
  std::uint64_t vita_ticks = 0;
};

class DspCore {
 public:
  DspCore();

  /// The host-side register file. Writes take effect at the next
  /// apply_registers() (the radio layer calls this after each settings-bus
  /// transaction completes, modelling the propagation latency).
  [[nodiscard]] RegisterFile& registers() noexcept { return regs_; }
  [[nodiscard]] const RegisterFile& registers() const noexcept { return regs_; }

  /// Latch all register values into the datapath blocks. A no-op when no
  /// register was written since the last latch: the units keep what they
  /// latched, through reset() too.
  void apply_registers() noexcept;

  /// Advance one fabric clock. `rx` must be present exactly on strobe ticks
  /// (every 4th tick); pass std::nullopt between strobes. Thin wrapper over
  /// the strobe/idle tick bodies that run_block() drives in bulk.
  CoreOutput tick(std::optional<dsp::IQ16> rx) noexcept;

  /// Block-processing fast path: feed `rx.size()` baseband samples
  /// (kClocksPerSample fabric clocks each) and write one folded record per
  /// sample into `out`, which must hold rx.size() entries. Bit-identical to
  /// calling tick(sample) + (kClocksPerSample-1) idle ticks per sample and
  /// folding their TX outputs — trigger edges, VITA timestamps, TX samples,
  /// feedback counters and ring records all match. Event-driven: the
  /// detectors run kMetricBlock samples at a time through their batched
  /// kernels, and only samples with a detector edge, an engaged FSM or a
  /// jammer in delay, init or its last sample are clocked one by one; the
  /// quiet and mid-burst stretches between them run in bulk.
  void run_block(std::span<const dsp::IQ16> rx,
                 std::span<SamplePeriodOutput> out) noexcept;

  [[nodiscard]] const HostFeedback& feedback() const noexcept { return feedback_; }
  [[nodiscard]] JammerController& jammer() noexcept { return jammer_; }
  [[nodiscard]] const CrossCorrelator& correlator() const noexcept {
    return correlator_;
  }

  /// Skip `samples` baseband sample periods of idle air (network-sim
  /// optimisation): VITA time and the jammer's delay/uptime countdowns
  /// advance exactly; the detector pipelines are flushed, which is
  /// equivalent to them having refilled with idle-channel samples.
  void fast_forward(std::uint64_t samples) noexcept;

  /// Full reset (reprogramming the FPGA). Register contents survive.
  void reset() noexcept;

  /// Attach the telemetry event ring (nullptr detaches). Producers write
  /// fixed-size records into the ring on trigger edges, FSM transitions,
  /// jam bursts and sampled strobes; outputs stay bit-identical to an
  /// untraced run because the traced run_block() instantiation runs the
  /// same datapath computations in the same order and only adds taps: a
  /// publish() per clock on the samples it clocks one by one, and snapshots
  /// built from the sub-block's rx, metric and energy arrays on the
  /// stretches it runs in bulk (the overhead contract; see DESIGN.md
  /// "Observability"). Inline-drain rings are drained at block boundaries.
  /// The ring's edge latches restart on attach: RF reads off and the FSM
  /// stage reads as it stands, so a ring never receives the end of a burst
  /// it did not see start, and a burst in progress opens with a jam_start
  /// at the first traced clock.
  void set_ring(obs::EventRing* ring) noexcept {
    ring_ = ring;
    prev_rf_ = false;
    prev_stage_ = fsm_.stage();
  }
  [[nodiscard]] obs::EventRing* ring() const noexcept { return ring_; }

 private:
  /// What the ring's strobe snapshot taps on a receive-strobe clock, on
  /// top of the clock's edges and TX output.
  struct StrobeTap {
    dsp::IQ16 rx{};
    std::uint32_t xcorr_metric = 0;
    std::uint64_t energy_sum = 0;
  };
  /// Strobe-tick body: detectors + edge logic + FSM/jammer clocks.
  CoreOutput strobe_tick(dsp::IQ16 sample) noexcept;
  /// Idle-tick body: detectors hold; FSM window and jammer timers advance.
  CoreOutput idle_tick() noexcept;
  /// Shared tail of every tick: FSM, jam bookkeeping, TX path, VITA time.
  /// `tap` is the strobe clock's snapshot input, nullptr on idle clocks;
  /// it is read only while a ring is attached.
  void finish_tick(CoreOutput& out, const StrobeTap* tap) noexcept;
  /// Publish one fabric clock to the ring (ring_ != nullptr): its detector
  /// edges, jam trigger and TX output, and on a strobe clock (`strobe`
  /// non-null) the sampled snapshot. The one trace tap of both paths;
  /// forced inline so the traced block loop pays no call per clock.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void publish(const DetectorEvents& ev, bool jam,
                      const JammerController::TxOut& tx,
                      const StrobeTap* strobe) noexcept;
  /// tick()'s way into publish(): out of line and cold so the no-ring tick
  /// path stays inlinable. It reads the clock's edges from held_events_, so
  /// finish_tick() calls it before clearing them.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void publish_tick(const CoreOutput& out, const StrobeTap* tap) noexcept;
  /// The block loop, compiled twice: the kTraced instantiation publishes
  /// each clock and each stretch it covers, the plain one is the untouched
  /// fast path. Both run the same datapath computations in the same order,
  /// which is what makes traced-vs-plain bit-identity hold by construction.
  template <bool kTraced>
  void run_block_body(std::span<const dsp::IQ16> rx,
                      std::span<SamplePeriodOutput> out) noexcept;
  /// One sub-block's detector outputs (defined in dsp_core.cpp).
  struct SubBlock;
  /// Sample `n` of the sub-block, clocked as tick() would clock it.
  template <bool kTraced>
  void clock_sample(const SubBlock& b, std::size_t n,
                    SamplePeriodOutput& rec) noexcept;
  /// Samples [from, to) of the sub-block: no detector edge, the FSM
  /// disengaged and the jammer idle. Nothing but the replay ring, the
  /// detector latches and VITA time moves.
  template <bool kTraced>
  void quiet_stretch(const SubBlock& b, std::size_t from, std::size_t to,
                     std::span<SamplePeriodOutput> rec) noexcept;
  /// Samples [from, to) of the sub-block: no detector edge, the FSM
  /// disengaged and the jammer mid-burst throughout, one jam_period() each.
  template <bool kTraced>
  void jam_stretch(const SubBlock& b, std::size_t from, std::size_t to,
                   std::span<SamplePeriodOutput> rec) noexcept;
  /// The strobe snapshots of a stretch [from, to) that the ring's 1-in-N
  /// countdown picks: FSM stage 0, no edge or trigger, and the TX output
  /// of `rec` (nullptr on a quiet stretch; a jam stretch's sample lands on
  /// the strobe clock when `tx_on_strobe`, else after it).
  void publish_stretch(const SubBlock& b, std::size_t from, std::size_t to,
                       const SamplePeriodOutput* rec,
                       bool tx_on_strobe) noexcept;
  /// Set the detector latches to sample `n`'s flags.
  void latch(const SubBlock& b, std::size_t n) noexcept;

  RegisterFile regs_;
  // regs_.generation() at the last latch; none has happened yet.
  std::optional<std::uint64_t> latched_generation_;
  CrossCorrelator correlator_;
  EnergyDifferentiator energy_;
  TriggerFsm fsm_;
  JammerController jammer_;
  HostFeedback feedback_;
  std::uint64_t vita_ticks_ = 0;  // 64-bit VITA clock count (GPS locked)
  // 100 MHz clock / 25 MSPS strobe divider; the 2-bit wrap is the mod-4.
  static_assert(kClocksPerSample == 4);
  hw::UInt<2> strobe_phase_;
  // Latched detector outputs: detectors update on sample strobes, but the
  // FSM samples them every clock, so levels are held between strobes.
  DetectorEvents held_events_;
  bool prev_xcorr_ = false;
  bool prev_high_ = false;
  bool prev_low_ = false;

  // Telemetry tap: the ring, the last TX sample issued (the snapshot's
  // `tx` field) and the edge latches behind jam_start/jam_end and FSM
  // stage events.
  obs::EventRing* ring_ = nullptr;
  dsp::IQ16 probe_tx_{};
  bool prev_rf_ = false;
  int prev_stage_ = 0;
};

}  // namespace rjf::fpga
