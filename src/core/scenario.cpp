#include "core/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "core/calibration.h"
#include "core/templates.h"
#include "phy80211/rates.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy80211b/dsss.h"

namespace rjf::core {

namespace {

constexpr phy80211b::DsssRate kDsssRates[] = {
    phy80211b::DsssRate::kMbps1, phy80211b::DsssRate::kMbps2,
    phy80211b::DsssRate::kMbps5_5, phy80211b::DsssRate::kMbps11};

ProtocolTarget make_wifi_ofdm_target() {
  ProtocolTarget t;
  t.name = "wifi_ofdm";
  t.description = "802.11a/g OFDM, 6-54 Mb/s, short-preamble correlator";
  t.native_rate_hz = 20e6;
  for (const phy80211::Rate r : phy80211::all_rates())
    t.rates.push_back({phy80211::rate_params(r).mbps,
                       static_cast<std::uint64_t>(r)});
  t.default_rate_index = t.rates.size() - 1;  // 54 Mb/s, the legacy default
  t.make_frame = [](std::size_t rate_index,
                    std::span<const std::uint8_t> psdu,
                    std::uint8_t scrambler_seed) {
    const phy80211::Rate rate = phy80211::all_rates()[rate_index];
    return phy80211::Transmitter({rate, scrambler_seed}).transmit(psdu);
  };
  t.make_template = [] { return wifi_short_preamble_template(); };
  t.decode_ok = [](std::size_t, std::span<const dsp::cfloat> capture,
                   std::span<const std::uint8_t> psdu) {
    const phy80211::RxResult rx = phy80211::Receiver().receive(capture);
    return rx.signal_valid && rx.psdu.size() == psdu.size() &&
           std::equal(rx.psdu.begin(), rx.psdu.end(), psdu.begin());
  };
  t.frame_airtime_s = [](std::size_t rate_index, std::size_t psdu_bytes) {
    return phy80211::frame_duration_s(phy80211::all_rates()[rate_index],
                                      psdu_bytes);
  };
  return t;
}

ProtocolTarget make_wifi_dsss_target() {
  ProtocolTarget t;
  t.name = "wifi_dsss";
  t.description = "802.11b DSSS/CCK, 1-11 Mb/s, long-preamble correlator";
  t.native_rate_hz = phy80211b::kChipRateHz;
  for (const phy80211b::DsssRate r : kDsssRates)
    t.rates.push_back({phy80211b::dsss_rate_mbps(r),
                       static_cast<std::uint64_t>(r)});
  t.default_rate_index = t.rates.size() - 1;  // 11 Mb/s
  t.make_frame = [](std::size_t rate_index,
                    std::span<const std::uint8_t> psdu, std::uint8_t) {
    // The 802.11b scrambler is self-synchronising with a state fixed by the
    // long-preamble definition; the seed knob does not apply.
    return phy80211b::DsssTransmitter(kDsssRates[rate_index]).transmit(psdu);
  };
  t.make_template = [] { return wifi_dsss_preamble_template(); };
  t.decode_ok = [](std::size_t, std::span<const dsp::cfloat> capture,
                   std::span<const std::uint8_t> psdu) {
    const phy80211b::DsssRxResult rx =
        phy80211b::DsssReceiver().receive(capture);
    return rx.header_valid && rx.psdu.size() == psdu.size() &&
           std::equal(rx.psdu.begin(), rx.psdu.end(), psdu.begin());
  };
  t.frame_airtime_s = [](std::size_t rate_index, std::size_t psdu_bytes) {
    // 192 us PLCP preamble + header at 1 Mb/s, then the PSDU at the data
    // rate (exact for Barker and CCK symbol timings alike).
    const double mbps = phy80211b::dsss_rate_mbps(kDsssRates[rate_index]);
    return 192e-6 +
           static_cast<double>(psdu_bytes) * 8.0 / (mbps * 1e6);
  };
  return t;
}

}  // namespace

const std::vector<ProtocolTarget>& protocol_targets() {
  static const std::vector<ProtocolTarget> kTargets = [] {
    std::vector<ProtocolTarget> targets;
    targets.push_back(make_wifi_ofdm_target());
    targets.push_back(make_wifi_dsss_target());
    return targets;
  }();
  return kTargets;
}

const ProtocolTarget* find_target(std::string_view name) noexcept {
  for (const ProtocolTarget& t : protocol_targets())
    if (t.name == name) return &t;
  return nullptr;
}

const ProtocolTarget& target_or_throw(std::string_view name) {
  if (const ProtocolTarget* t = find_target(name)) return *t;
  std::string known;
  for (const std::string& n : target_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown protocol target '" +
                              std::string(name) + "' (known: " + known + ")");
}

std::vector<std::string> target_names() {
  std::vector<std::string> names;
  for (const ProtocolTarget& t : protocol_targets()) names.push_back(t.name);
  return names;
}

dsp::cvec target_frame(const ProtocolTarget& target, std::size_t rate_index,
                       std::size_t psdu_bytes, std::uint8_t psdu_fill,
                       std::uint8_t scrambler_seed) {
  const std::vector<std::uint8_t> psdu(std::max<std::size_t>(psdu_bytes, 1),
                                       psdu_fill);
  return target.make_frame(rate_index, psdu, scrambler_seed);
}

JammerConfig target_reactive_preset(const ProtocolTarget& target,
                                    double uptime_s,
                                    double false_alarm_per_s) {
  JammerConfig config;
  config.detection = DetectionMode::kCrossCorrelator;
  config.xcorr_template = target.make_template();
  const XcorrNoiseModel model(*config.xcorr_template);
  config.xcorr_threshold = model.threshold_for_rate(false_alarm_per_s);
  config.waveform = fpga::JamWaveform::kWhiteNoise;
  config.jam_uptime_samples = JammerConfig::samples_from_seconds(uptime_s);
  config.description = "preset: " + target.name + "-reactive xcorr WGN";
  return config;
}

}  // namespace rjf::core
