// Protocol-target scenario registry (the paper's protocol-awareness as a
// datatype).
//
// The framework's core claim is that one reactive fabric retargets any
// standard by swapping correlator coefficients; everything else about an
// experiment — which waveform the victim transmits, at what native sample
// rate, how "the frame got through" is judged, how often frames go on air —
// is protocol-specific. A ProtocolTarget bundles exactly those pieces:
//
//   * a native-rate frame factory (the victim transmitter),
//   * a correlator-template factory (the jammer's offline host role),
//   * a native receiver / decode-success predicate (link-layer ground
//     truth for countermeasure and impact studies),
//   * a MAC cadence model (frame airtime + the paper's 130 frames/s
//     trial cadence, for duty-cycle accounting).
//
// The detection harness and the campaign runner (and through it the fault
// axis) consume a target handle instead of hard-coding the 802.11a/g OFDM
// path; `wifi_ofdm` reproduces that path bit-for-bit, and `wifi_dsss`
// makes 802.11b DSSS/CCK a first-class campaign subject. Adding a
// standard (802.11p, 5G PUSCH, BLE) means adding one registry entry — see
// DESIGN.md §14.
//
// The registry is a function-local `static const` table: immutable after
// construction, so lookups are lock-free, data-race-free, and inside the
// fabric-lint deterministic scope.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/detection_experiment.h"

namespace rjf::core {

/// One entry on a target's rate axis. `id` is the target-private encoding
/// of the rate (the 802.11a/g Rate enum value, the 802.11b SIGNAL field
/// value, ...) and is folded into campaign fingerprints, so it must be
/// stable across builds.
struct TargetRate {
  double mbps = 0.0;
  std::uint64_t id = 0;
};

struct ProtocolTarget {
  std::string name;         // registry key, e.g. "wifi_ofdm"
  std::string description;  // one line for --list-targets / reports
  /// Native sample rate of frames from `make_frame`; the detection harness
  /// resamples to the fabric's 25 MSPS from here.
  double native_rate_hz = 20e6;
  /// Paper §3.2 trial cadence ("10000 WiFi frames ... at 130 frames per
  /// second"): used for duty-cycle accounting, not trial pacing.
  double frames_per_second = 130.0;

  std::vector<TargetRate> rates;
  std::size_t default_rate_index = 0;

  /// Victim frame at the native rate. Targets without a scrambler-seed
  /// notion (802.11b's scrambler state is fixed by the long preamble)
  /// ignore `scrambler_seed`.
  std::function<dsp::cvec(std::size_t rate_index,
                          std::span<const std::uint8_t> psdu,
                          std::uint8_t scrambler_seed)>
      make_frame;

  /// The jammer's 64-tap correlator coefficients for this standard.
  std::function<fpga::CorrelatorTemplate()> make_template;

  /// Ground truth: does the standard's own receiver recover `psdu` from
  /// `capture` (native rate, frame nominally at capture[0])?
  std::function<bool(std::size_t rate_index,
                     std::span<const dsp::cfloat> capture,
                     std::span<const std::uint8_t> psdu)>
      decode_ok;

  /// On-air time of one frame carrying `psdu_bytes` at the given rate.
  std::function<double(std::size_t rate_index, std::size_t psdu_bytes)>
      frame_airtime_s;

  /// Fraction of air the victim occupies at the trial cadence.
  [[nodiscard]] double duty_cycle(std::size_t rate_index,
                                  std::size_t psdu_bytes) const {
    return frame_airtime_s(rate_index, psdu_bytes) * frames_per_second;
  }
};

/// The registry, in a fixed order ("wifi_ofdm" first — it is the default
/// target everywhere). Built once, immutable afterwards.
[[nodiscard]] const std::vector<ProtocolTarget>& protocol_targets();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const ProtocolTarget* find_target(std::string_view name) noexcept;

/// Lookup by name; throws std::invalid_argument listing known targets.
[[nodiscard]] const ProtocolTarget& target_or_throw(std::string_view name);

/// Registry keys in registry order.
[[nodiscard]] std::vector<std::string> target_names();

/// The standard filled-PSDU frame the campaign and benches use:
/// `psdu_bytes` (min 1) of `psdu_fill` through the target's transmitter.
[[nodiscard]] dsp::cvec target_frame(const ProtocolTarget& target,
                                     std::size_t rate_index,
                                     std::size_t psdu_bytes,
                                     std::uint8_t psdu_fill,
                                     std::uint8_t scrambler_seed);

/// Reactive-jammer personality for a target: cross-correlator loaded with
/// the target's template, threshold calibrated to the false-alarm rate
/// (paper Fig. 7 uses 0.059 triggers/s), white-noise bursts of `uptime_s`.
/// target_reactive_preset(wifi_ofdm, t) == wifi_reactive_preset(t).
[[nodiscard]] JammerConfig target_reactive_preset(
    const ProtocolTarget& target, double uptime_s,
    double false_alarm_per_s = 0.059);

}  // namespace rjf::core
