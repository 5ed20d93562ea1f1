// The paper's full WiFi validation rig (Figs. 9-11): a Linksys-style AP on
// port 1 of the 5-port network, a wireless client on port 2, and the
// reactive jammer's TX/RX on ports 4/5, all on WiFi channel 14 (2.484 GHz).
//
// The client runs an iperf UDP upload to the AP through an event-driven
// 802.11 DCF MAC with ARF rate fallback. Every frame exchange is simulated
// at the SAMPLE level: the client's 20 MSPS waveform is resampled into the
// jammer's 25 MSPS receive chain, the actual FPGA-core model detects and
// reacts, its emitted jamming waveform is resampled back onto the AP's
// (and client's) reception through the measured insertion losses, and the
// full 802.11 receiver decodes what survives. Air time between frames is
// fast-forwarded, which is exact for jam scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/five_port.h"
#include "core/reactive_jammer.h"
#include "net/arf.h"
#include "net/dcf.h"
#include "net/iperf.h"
#include "net/mac_frame.h"
#include "net/waveform_cache.h"
#include "phy80211/receiver.h"

namespace rjf::obs {
class Telemetry;
}  // namespace rjf::obs

namespace rjf::net {

struct WifiNetworkConfig {
  IperfConfig iperf;
  DcfTiming timing;

  /// Jamming personality; nullopt = jammer absent ("Jammer Off" curve).
  std::optional<core::JammerConfig> jammer;

  /// Mean jamming power injected at port 4 while the jammer transmits
  /// (set through "jammer TX power as well as stacked attenuators").
  double jammer_tx_power = 0.0;

  double client_tx_power = 1.0;   // mean power injected at port 2
  double ap_noise_power = 1e-9;   // AP receiver noise floor

  std::uint64_t seed = 1;
};

struct WifiRunResult {
  IperfReport report;
  double measured_sir_db = 300.0;  // at the AP, during jam bursts
  std::uint64_t data_frames_sent = 0;
  std::uint64_t data_frames_delivered = 0;
  std::uint64_t acks_lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t cca_busy_defers = 0;
  std::uint64_t cca_starved_drops = 0;
  std::uint64_t jam_triggers = 0;
  double mean_tx_rate_mbps = 0.0;  // average ARF operating point
};

class WifiNetworkSim {
 public:
  explicit WifiNetworkSim(const WifiNetworkConfig& config);

  /// Run the full iperf test and report what iperf would print.
  [[nodiscard]] WifiRunResult run();

  /// Analytic SIR at the AP for this configuration (paper x-axis).
  [[nodiscard]] double nominal_sir_db() const;

  /// Attach a telemetry bundle (nullptr detaches). The embedded jammer, if
  /// any, streams its fabric events into it, and run() adds the sim's host
  /// time per stage to its metrics as `net.*_ns` counters: listen_synth,
  /// observe, rx_noise, resample, rx_sync, rx_demod, rx_decode,
  /// rx_descramble and parse. Safe to call before run(); the exported trace
  /// then covers the whole iperf test. A sim without telemetry reads no
  /// clock for the split.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  struct ExchangeOutcome {
    bool data_ok = false;
    bool ack_ok = false;
    double airtime_s = 0.0;
  };

  /// One transmitted waveform and its clean-channel decode verdict.
  /// The verdict MUST live in the sim, not in a thread_local or the shared
  /// cache: computing it consumes rng_.next() draws, so warmth inherited
  /// from another sim on the same worker thread would desynchronise this
  /// sim's RNG stream and break the sweep engine's any-thread-count
  /// determinism guarantee. The waveform itself is a pure function of
  /// (payload, rate, scrambler seed, power) and consumes no draws, so it
  /// is shared through the process-wide WaveformCache.
  struct TxSlot {
    std::shared_ptr<const CachedWaveform> wave;
    std::optional<bool> clean_ok;  // unset until first decoded unjammed
  };

  /// What the jammer emitted while hearing one frame: its 25 MSPS output,
  /// scaled to jammer_tx_power, starting at wall time t0.
  struct JamCapture {
    dsp::cvec tx;
    std::vector<radio::JamBurst> bursts;
    double t0 = 0.0;
  };

  /// Simulate one data+ACK exchange starting at `now` (seconds).
  ExchangeOutcome exchange(double now, phy80211::Rate rate);

  /// Put `slot`'s frame on the air from port `from` at wall time `start`.
  /// The jammer hears it from `lead` samples (25 MSPS) before `start` to
  /// `tail` samples after its end and reacts into `jam`; port `to` then
  /// decodes it under the provoked bursts. True when `to` decodes a frame
  /// of type `type`.
  bool deliver(TxSlot& slot, int from, int to, double start, std::size_t lead,
               std::size_t tail, double rx_noise_power, FrameType type,
               JamCapture& jam);

  /// Move the jammer's sample clock to wall time `now`.
  void sync_jammer_to(double now);

  [[nodiscard]] bool cca_busy();

  /// Host ns per stage of deliver(), kept while telemetry is attached.
  struct StageNs {
    std::uint64_t listen_synth = 0;  // jammer clock catch-up + capture
    std::uint64_t observe = 0;       // jammer reaction, scaled to TX power
    std::uint64_t rx_noise = 0;      // receiver's 20 MSPS signal + noise
    std::uint64_t resample = 0;      // bursts onto the receiver's window
    phy80211::RxStageNs rx;          // the 802.11 receiver's split
    std::uint64_t parse = 0;         // MAC parse of the decoded PSDU
  };

  /// Add the stage split of this run() to the attached telemetry's metrics.
  void publish_stage_ns();

  WifiNetworkConfig config_;
  channel::FivePortNetwork network_;
  std::optional<core::ReactiveJammer> jammer_;
  double jammer_time_s_ = 0.0;  // wall time of the jammer's sample clock
  dsp::Xoshiro256 rng_;
  phy80211::Receiver rx_;
  obs::Telemetry* telemetry_ = nullptr;
  StageNs stage_ns_;

  std::array<TxSlot, 8> data_;  // per rate
  TxSlot ack_;

  // Jam-burst power bookkeeping for the measured-SIR output.
  double jam_power_at_ap_acc_ = 0.0;
  std::uint64_t jam_power_samples_ = 0;
  double signal_power_at_ap_acc_ = 0.0;
  std::uint64_t signal_power_samples_ = 0;
};

}  // namespace rjf::net
