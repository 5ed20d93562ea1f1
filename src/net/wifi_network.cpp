#include "net/wifi_network.h"

#include <algorithm>
#include <cmath>

#include "dsp/db.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "fpga/dsp_core.h"
#include "phy80211/ofdm.h"
#include "phy80211/transmitter.h"

namespace rjf::net {
namespace {

using fpga::kBasebandRateHz;
constexpr double kWifiRate = phy80211::kSampleRateHz;
constexpr std::size_t kLeadSamples25 = 220;  // ~8.8 us noise head per capture

// Mean power of the fabric WGN generator (LFSR CLT shaper): measured once
// so jammer_tx_power can be dialled in exactly.
double wgn_generator_power() {
  fpga::JammerController ctl;
  ctl.configure(fpga::JamWaveform::kWhiteNoise, true, 0, 4096);
  double acc = 0.0;
  std::size_t n = 0;
  bool first = true;
  for (std::size_t c = 0; c < 4096 * fpga::kClocksPerSample + 16; ++c) {
    const auto out = ctl.clock(first);
    first = false;
    if (out.sample_strobe) {
      const dsp::cfloat s = dsp::from_iq16(out.sample);
      acc += std::norm(s);
      ++n;
    }
  }
  return n ? acc / static_cast<double>(n) : 1.0;
}

}  // namespace

WifiNetworkSim::WifiNetworkSim(const WifiNetworkConfig& config)
    : config_(config), rng_(config.seed ^ 0xC0FFEEULL) {
  if (config_.jammer) jammer_.emplace(*config_.jammer);
}

double WifiNetworkSim::nominal_sir_db() const {
  if (!config_.jammer || config_.jammer_tx_power <= 0.0) return 300.0;
  return channel::FivePortNetwork{}.loss_db(channel::kPortJammerTx,
                                            channel::kPortAp) -
         network_.loss_db(channel::kPortClient, channel::kPortAp) +
         dsp::db_from_ratio(config_.client_tx_power / config_.jammer_tx_power);
}

void WifiNetworkSim::attach_telemetry(obs::Telemetry* telemetry) {
  if (jammer_) jammer_->attach_trace(telemetry);
}

void WifiNetworkSim::sync_jammer_to(double now) {
  if (!jammer_ || now <= jammer_time_s_) return;
  const auto gap =
      static_cast<std::uint64_t>((now - jammer_time_s_) * kBasebandRateHz);
  if (gap == 0) return;
  jammer_->radio().core().fast_forward(gap);
  jammer_time_s_ += static_cast<double>(gap) / kBasebandRateHz;
}

bool WifiNetworkSim::cca_busy() {
  if (!jammer_) return false;
  if (!jammer_->radio().core().jammer().rf_active()) return false;
  const double jam_at_client =
      config_.jammer_tx_power *
      dsp::ratio_from_db(-network_.loss_db(channel::kPortJammerTx,
                                           channel::kPortClient));
  return jam_at_client > config_.cca_threshold;
}

WifiNetworkSim::ExchangeOutcome WifiNetworkSim::exchange(
    double now, phy80211::Rate rate, const Bytes& payload, std::uint16_t seq) {
  ExchangeOutcome outcome;

  // ---- Cached per-rate client waveforms (payload is the iperf datagram,
  // identical every time; the MAC sequence number lives in the header and
  // is pinned so the waveform cache stays valid).  Resolved through the
  // process-wide cache so a sweep synthesises each distinct waveform once
  // rather than once per point.  CFO bucket 0: the rig models no client
  // carrier offset.
  auto& slot = rate_wave_[static_cast<std::size_t>(rate)];
  if (!slot) {
    MacFrame frame;
    frame.type = FrameType::kData;
    frame.src = 2;
    frame.dst = 1;
    frame.sequence = seq;
    frame.payload = payload;
    const Bytes psdu = serialize(frame);
    slot = WaveformCache::instance().get_or_build(
        psdu, rate, 0x5D, config_.client_tx_power, /*cfo_bucket=*/0);
  }
  const CachedWaveform& rc = *slot;

  const double data_dur = rc.duration_s;
  const double g_client_ap = network_.path_gain(channel::kPortClient,
                                                channel::kPortAp);
  const double g_client_jam = network_.path_gain(channel::kPortClient,
                                                 channel::kPortJammerRx);
  const double g_jam_ap = network_.path_gain(channel::kPortJammerTx,
                                             channel::kPortAp);
  const double g_jam_client = network_.path_gain(channel::kPortJammerTx,
                                                 channel::kPortClient);
  const double g_ap_client = network_.path_gain(channel::kPortAp,
                                                channel::kPortClient);

  // ---- Jammer sees the data frame and reacts.
  dsp::cvec jam_tx25;           // jammer output, 25 MSPS
  double jam_t0 = 0.0;          // wall time of jam_tx25[0]
  std::vector<radio::JamBurst> bursts;
  double jam_scale = 1.0;
  if (jammer_) {
    static const double kWgnPower = wgn_generator_power();
    jam_scale = std::sqrt(config_.jammer_tx_power / kWgnPower);

    const double capture_start = now - kLeadSamples25 / kBasebandRateHz;
    sync_jammer_to(capture_start);
    jam_t0 = jammer_time_s_;
    const auto lead = static_cast<std::size_t>(
        std::max(0.0, (now - jammer_time_s_)) * kBasebandRateHz);
    const std::size_t tail = 64;
    dsp::cvec capture(lead + rc.w25.size() + tail);
    dsp::NoiseSource noise(config_.jammer_noise_power, rng_.next());
    noise.fill(capture);
    for (std::size_t k = 0; k < rc.w25.size(); ++k)
      capture[lead + k] += rc.w25[k] * static_cast<float>(g_client_jam);

    auto res = jammer_->observe(capture);
    jam_tx25 = std::move(res.tx);
    for (auto& s : jam_tx25) s *= static_cast<float>(jam_scale);
    bursts = std::move(res.bursts);
    jammer_time_s_ += static_cast<double>(capture.size()) / kBasebandRateHz;

    // Measured-SIR bookkeeping (paper: SIR at the AP during jam bursts).
    for (const auto& b : bursts) {
      for (std::size_t k = b.start_sample;
           k < b.start_sample + b.length && k < jam_tx25.size(); ++k) {
        jam_power_at_ap_acc_ += std::norm(jam_tx25[k]) * g_jam_ap * g_jam_ap;
        ++jam_power_samples_;
      }
    }
    signal_power_at_ap_acc_ +=
        config_.client_tx_power * g_client_ap * g_client_ap;
    ++signal_power_samples_;
  }

  // Helper: superimpose the jammer's output onto a 20 MSPS reception
  // window that starts at wall time `win_start` and has `win_len` samples.
  const auto add_jam = [&](dsp::cvec& rx20, double win_start, double gain) {
    if (jam_tx25.empty() || bursts.empty()) return;
    for (const auto& b : bursts) {
      const std::size_t pad = 8;
      const std::size_t s0 = b.start_sample > pad ? b.start_sample - pad : 0;
      const std::size_t s1 =
          std::min(jam_tx25.size(), b.start_sample + b.length + pad);
      if (s1 <= s0) continue;
      const dsp::cvec slice20 = dsp::resample(
          std::span<const dsp::cfloat>(jam_tx25.data() + s0, s1 - s0),
          kBasebandRateHz, kWifiRate);
      const double slice_t0 =
          jam_t0 + static_cast<double>(s0) / kBasebandRateHz;
      const auto j0 = static_cast<long>(
          std::llround((slice_t0 - win_start) * kWifiRate));
      for (std::size_t m = 0; m < slice20.size(); ++m) {
        const long idx = j0 + static_cast<long>(m);
        if (idx < 0 || idx >= static_cast<long>(rx20.size())) continue;
        rx20[static_cast<std::size_t>(idx)] +=
            slice20[m] * static_cast<float>(gain);
      }
    }
  };

  // ---- AP reception of the data frame.
  const bool jam_overlaps_data =
      !bursts.empty();  // bursts were triggered by this very frame
  if (!jam_overlaps_data) {
    // Clean channel: at the configured noise floors the decode margin is
    // tens of dB, so cache the verdict per rate.
    auto& verdict = clean_verdict_[static_cast<std::size_t>(rate)];
    if (verdict == 0) {
      dsp::cvec rx(rc.w20.size());
      dsp::NoiseSource noise(config_.ap_noise_power, rng_.next());
      for (std::size_t k = 0; k < rx.size(); ++k)
        rx[k] = rc.w20[k] * static_cast<float>(g_client_ap) + noise.sample();
      const auto decoded = rx_.receive(rx);
      verdict = (decoded.signal_valid && parse(decoded.psdu)) ? 1 : 2;
    }
    outcome.data_ok = verdict == 1;
  } else {
    dsp::cvec rx(rc.w20.size());
    dsp::NoiseSource noise(config_.ap_noise_power, rng_.next());
    for (std::size_t k = 0; k < rx.size(); ++k)
      rx[k] = rc.w20[k] * static_cast<float>(g_client_ap) + noise.sample();
    add_jam(rx, now, g_jam_ap);
    const auto decoded = rx_.receive(rx);
    const auto frame = decoded.signal_valid ? parse(decoded.psdu) : std::nullopt;
    outcome.data_ok = frame && frame->type == FrameType::kData;
  }

  outcome.airtime_s = data_dur;
  if (!outcome.data_ok) {
    outcome.airtime_s += config_.timing.ack_timeout_s();
    return outcome;
  }

  // ---- ACK exchange.
  const double ack_start = now + data_dur + config_.timing.sifs_s;
  if (!ack_wave_) {
    MacFrame ack;
    ack.type = FrameType::kAck;
    ack.src = 1;
    ack.dst = 2;
    ack_wave_ = WaveformCache::instance().get_or_build(
        serialize(ack), config_.timing.ack_rate, 0x2B,
        config_.client_tx_power, /*cfo_bucket=*/0);
  }
  const dsp::cvec& ack20 = ack_wave_->w20;
  const double ack_dur = ack_wave_->duration_s;

  // The jammer also hears (and may react to) the ACK.
  dsp::cvec ack_jam25;
  double ack_jam_t0 = 0.0;
  std::vector<radio::JamBurst> ack_bursts;
  if (jammer_) {
    // Cached alongside w20 — this used to be a fresh polyphase resample
    // on every single exchange.
    const dsp::cvec& ack25 = ack_wave_->w25;
    const double capture_start = ack_start - 64 / kBasebandRateHz;
    sync_jammer_to(capture_start);
    ack_jam_t0 = jammer_time_s_;
    const auto lead = static_cast<std::size_t>(
        std::max(0.0, (ack_start - jammer_time_s_)) * kBasebandRateHz);
    dsp::cvec capture(lead + ack25.size() + 32);
    dsp::NoiseSource noise(config_.jammer_noise_power, rng_.next());
    noise.fill(capture);
    const double g_ap_jam =
        network_.path_gain(channel::kPortAp, channel::kPortJammerRx);
    for (std::size_t k = 0; k < ack25.size(); ++k)
      capture[lead + k] += ack25[k] * static_cast<float>(g_ap_jam);
    auto res = jammer_->observe(capture);
    ack_jam25 = std::move(res.tx);
    for (auto& s : ack_jam25) s *= static_cast<float>(jam_scale);
    ack_bursts = std::move(res.bursts);
    jammer_time_s_ += static_cast<double>(capture.size()) / kBasebandRateHz;
  }

  const bool jam_overlaps_ack = !ack_bursts.empty();
  if (!jam_overlaps_ack) {
    int& ack_clean = ack_clean_verdict_;
    if (ack_clean == 0) {
      dsp::cvec rx(ack20.size());
      dsp::NoiseSource noise(config_.client_noise_power, rng_.next());
      for (std::size_t k = 0; k < rx.size(); ++k)
        rx[k] = ack20[k] * static_cast<float>(g_ap_client) + noise.sample();
      const auto decoded = rx_.receive(rx);
      ack_clean = (decoded.signal_valid && parse(decoded.psdu)) ? 1 : 2;
    }
    outcome.ack_ok = ack_clean == 1;
  } else {
    dsp::cvec rx(ack20.size());
    dsp::NoiseSource noise(config_.client_noise_power, rng_.next());
    for (std::size_t k = 0; k < rx.size(); ++k)
      rx[k] = ack20[k] * static_cast<float>(g_ap_client) + noise.sample();
    // Jam from the ACK-window capture.
    const auto saved_tx = std::move(jam_tx25);
    const auto saved_bursts = std::move(bursts);
    const auto saved_t0 = jam_t0;
    jam_tx25 = std::move(ack_jam25);
    bursts = std::move(ack_bursts);
    jam_t0 = ack_jam_t0;
    add_jam(rx, ack_start, g_jam_client);
    jam_tx25 = std::move(saved_tx);
    bursts = std::move(saved_bursts);
    jam_t0 = saved_t0;
    const auto decoded = rx_.receive(rx);
    const auto frame = decoded.signal_valid ? parse(decoded.psdu) : std::nullopt;
    outcome.ack_ok = frame && frame->type == FrameType::kAck;
  }

  outcome.airtime_s = data_dur + config_.timing.sifs_s + ack_dur;
  if (!outcome.ack_ok)
    outcome.airtime_s = data_dur + config_.timing.ack_timeout_s();
  return outcome;
}

WifiRunResult WifiNetworkSim::run() {
  WifiRunResult result;
  IperfSource source(config_.iperf);
  Backoff backoff(config_.timing, config_.seed ^ 0xB0FFULL);
  ArfRateControl arf(config_.initial_rate);
  const Bytes payload(config_.iperf.datagram_bytes, 0x42);

  double t = 0.0;
  std::size_t queued = 0;
  unsigned attempt = 0;
  double rate_acc = 0.0;
  std::uint64_t rate_samples = 0;

  // Blocking-socket semantics: arrivals are admitted only while the client
  // queue has room; a full queue paces the source instead of dropping.
  const auto admit = [&](double until) {
    while (queued < config_.iperf.queue_limit &&
           source.next_arrival_s() <= until) {
      source.pop();
      ++result.report.datagrams_offered;
      ++queued;
    }
  };

  while (t < config_.iperf.duration_s) {
    admit(t);
    if (queued == 0) {
      const double next = source.next_arrival_s();
      if (next > config_.iperf.duration_s) break;
      t = next;
      continue;
    }

    // CCA: defer while the medium reads busy at the client.
    double defer_start = t;
    bool starved = false;
    sync_jammer_to(t);
    while (cca_busy()) {
      ++result.cca_busy_defers;
      t += config_.timing.slot_s;
      sync_jammer_to(t);
      if (t - defer_start > config_.cca_starvation_s) {
        starved = true;
        break;
      }
    }
    if (starved) {
      --queued;
      ++result.cca_starved_drops;
      attempt = 0;
      backoff.on_success_or_drop();
      continue;
    }

    t += config_.timing.difs_s() + backoff.draw();
    const phy80211::Rate rate = arf.rate();
    rate_acc += phy80211::rate_params(rate).mbps;
    ++rate_samples;

    if (attempt == 0) ++result.report.datagrams_sent;
    else ++result.retries;
    ++result.data_frames_sent;

    const auto outcome = exchange(t, rate, payload, 0);
    t += outcome.airtime_s;

    if (outcome.data_ok) ++result.data_frames_delivered;
    if (outcome.data_ok && !outcome.ack_ok) ++result.acks_lost;

    if (outcome.data_ok && outcome.ack_ok) {
      ++result.report.datagrams_received;
      arf.report_success();
      backoff.on_success_or_drop();
      --queued;
      attempt = 0;
    } else {
      arf.report_failure();
      backoff.on_failure();
      if (++attempt > config_.timing.retry_limit) {
        --queued;
        attempt = 0;
        backoff.on_success_or_drop();
      }
    }
  }

  // Datagrams still sitting in the queue when time expires were never put
  // on the wire — they don't count against the server's loss report.
  result.report.datagrams_offered -= queued;

  result.report.duration_s = config_.iperf.duration_s;
  if (jammer_) result.jam_triggers = jammer_->feedback().jam_triggers;
  if (jam_power_samples_ > 0 && signal_power_samples_ > 0) {
    const double jam_p =
        jam_power_at_ap_acc_ / static_cast<double>(jam_power_samples_);
    const double sig_p =
        signal_power_at_ap_acc_ / static_cast<double>(signal_power_samples_);
    result.measured_sir_db = dsp::db_from_ratio(sig_p / jam_p);
  } else {
    result.measured_sir_db = nominal_sir_db();
  }
  result.mean_tx_rate_mbps =
      rate_samples ? rate_acc / static_cast<double>(rate_samples) : 0.0;
  return result;
}

}  // namespace rjf::net
