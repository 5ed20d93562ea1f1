#include "net/wifi_network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsp/db.h"
#include "dsp/lap_clock.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "fpga/dsp_core.h"
#include "obs/telemetry.h"
#include "phy80211/ofdm.h"
#include "phy80211/transmitter.h"

namespace rjf::net {
namespace {

using fpga::kBasebandRateHz;
constexpr double kWifiRate = phy80211::kSampleRateHz;

// Receiver noise floors of the client and the jammer (the AP's is
// WifiNetworkConfig::ap_noise_power).
constexpr double kClientNoisePower = 1e-9;
constexpr double kJammerNoisePower = 1e-9;

// CCA energy-detect threshold at the client (interference power above
// which the medium reads busy and transmission defers).
constexpr double kCcaThreshold = 1.3e-8;

// Give up on a datagram after deferring this long to a busy medium.
constexpr double kCcaStarvationS = 20e-3;

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
  telemetry_ = telemetry;
}

void WifiNetworkSim::publish_stage_ns() {
  if (telemetry_ == nullptr) return;
  // The sim's thread is the ring's only producer and has stopped, so once
  // flushed no drain writes the registry alongside these adds.
  telemetry_->flush();
  const StageNs& ns = stage_ns_;
  const std::pair<const char*, std::uint64_t> split[] = {
      {"net.listen_synth_ns", ns.listen_synth},
      {"net.observe_ns", ns.observe},
      {"net.rx_noise_ns", ns.rx_noise},
      {"net.resample_ns", ns.resample},
      {"net.rx_sync_ns", ns.rx.sync},
      {"net.rx_demod_ns", ns.rx.demod},
      {"net.rx_decode_ns", ns.rx.decode},
      {"net.rx_descramble_ns", ns.rx.descramble},
      {"net.parse_ns", ns.parse}};
  obs::MetricsRegistry& metrics = telemetry_->metrics();
  for (const auto& [name, value] : split) metrics.add(name, value);
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
  return jam_at_client > kCcaThreshold;
}

bool WifiNetworkSim::deliver(TxSlot& slot, int from, int to, double start,
                             std::size_t lead, std::size_t tail,
                             double rx_noise_power, FrameType type,
                             JamCapture& jam) {
  const CachedWaveform& wave = *slot.wave;
  dsp::LapClock clock(telemetry_ != nullptr);

  // ---- The jammer hears the frame and reacts.
  if (jammer_) {
    static const double kWgnPower = wgn_generator_power();
    sync_jammer_to(start - static_cast<double>(lead) / kBasebandRateHz);
    jam.t0 = jammer_time_s_;
    const auto head = static_cast<std::size_t>(
        std::max(0.0, (start - jammer_time_s_)) * kBasebandRateHz);
    dsp::cvec capture(head + wave.w25.size() + tail);
    dsp::NoiseSource noise(kJammerNoisePower, rng_.next());
    noise.fill(capture);
    const float g_listen = network_.path_gain(from, channel::kPortJammerRx);
    for (std::size_t k = 0; k < wave.w25.size(); ++k)
      capture[head + k] += wave.w25[k] * g_listen;
    clock.lap(stage_ns_.listen_synth);

    auto res = jammer_->observe(capture);
    jam.tx = std::move(res.tx);
    // Off the air the jam vector holds exact zeros, which scaling leaves
    // as they are, so only the bursts are scaled.
    const auto scale =
        static_cast<float>(std::sqrt(config_.jammer_tx_power / kWgnPower));
    jam.bursts = std::move(res.bursts);
    for (const auto& b : jam.bursts)
      for (auto& s : std::span(jam.tx).subspan(b.start_sample, b.length))
        s *= scale;
    jammer_time_s_ += static_cast<double>(capture.size()) / kBasebandRateHz;
    clock.lap(stage_ns_.observe);
  }

  // ---- Port `to` receives. With no burst provoked by this frame the
  // channel is clean, and at the rig's noise floors the decode margin is
  // tens of dB, so the verdict is cached per transmitted waveform.
  if (jam.bursts.empty() && slot.clean_ok) return *slot.clean_ok;
  dsp::cvec rx(wave.w20.size());
  dsp::NoiseSource noise(rx_noise_power, rng_.next());
  const float g_signal = network_.path_gain(from, to);
  for (std::size_t k = 0; k < rx.size(); ++k)
    rx[k] = wave.w20[k] * g_signal + noise.sample();
  clock.lap(stage_ns_.rx_noise);

  // Superimpose each burst, resampled onto the 20 MSPS window at `start`.
  const float g_jam = network_.path_gain(channel::kPortJammerTx, to);
  for (const auto& b : jam.bursts) {
    const std::size_t pad = 8;
    const std::size_t s0 = b.start_sample > pad ? b.start_sample - pad : 0;
    const std::size_t s1 =
        std::min(jam.tx.size(), b.start_sample + b.length + pad);
    if (s1 <= s0) continue;
    const dsp::cvec slice20 = dsp::resample(
        std::span<const dsp::cfloat>(jam.tx.data() + s0, s1 - s0),
        kBasebandRateHz, kWifiRate);
    const double slice_t0 = jam.t0 + static_cast<double>(s0) / kBasebandRateHz;
    const auto j0 =
        static_cast<long>(std::llround((slice_t0 - start) * kWifiRate));
    for (std::size_t m = 0; m < slice20.size(); ++m) {
      const long idx = j0 + static_cast<long>(m);
      if (idx < 0 || idx >= static_cast<long>(rx.size())) continue;
      rx[static_cast<std::size_t>(idx)] += slice20[m] * g_jam;
    }
  }

  clock.lap(stage_ns_.resample);

  const auto decoded =
      rx_.receive(rx, clock.enabled() ? &stage_ns_.rx : nullptr);
  clock.restart();
  const auto frame = decoded.signal_valid ? parse(decoded.psdu) : std::nullopt;
  const bool ok = frame && frame->type == type;
  clock.lap(stage_ns_.parse);
  if (jam.bursts.empty()) slot.clean_ok = ok;
  return ok;
}

WifiNetworkSim::ExchangeOutcome WifiNetworkSim::exchange(double now,
                                                         phy80211::Rate rate) {
  // Waveforms resolve through the process-wide cache, so a sweep
  // synthesises each distinct one once rather than once per point. The
  // payload is the iperf datagram, identical every time, and the MAC
  // sequence number stays 0 so one waveform serves every retry. CFO
  // bucket 0: the rig models no client carrier offset.
  TxSlot& data = data_[static_cast<std::size_t>(rate)];
  if (!data.wave) {
    MacFrame frame;
    frame.type = FrameType::kData;
    frame.src = 2;
    frame.dst = 1;
    frame.payload.assign(config_.iperf.datagram_bytes, 0x42);
    data.wave = WaveformCache::instance().get_or_build(
        serialize(frame), rate, 0x5D, config_.client_tx_power,
        /*cfo_bucket=*/0);
  }

  ExchangeOutcome outcome;
  JamCapture jam;
  outcome.data_ok =
      deliver(data, channel::kPortClient, channel::kPortAp, now,
              /*lead=*/220, /*tail=*/64, config_.ap_noise_power,
              FrameType::kData, jam);

  // Measured-SIR bookkeeping (paper: SIR at the AP during jam bursts).
  if (jammer_) {
    const double g_jam_ap =
        network_.path_gain(channel::kPortJammerTx, channel::kPortAp);
    for (const auto& b : jam.bursts) {
      for (std::size_t k = b.start_sample;
           k < b.start_sample + b.length && k < jam.tx.size(); ++k) {
        jam_power_at_ap_acc_ += std::norm(jam.tx[k]) * g_jam_ap * g_jam_ap;
        ++jam_power_samples_;
      }
    }
    const double g_client_ap =
        network_.path_gain(channel::kPortClient, channel::kPortAp);
    signal_power_at_ap_acc_ +=
        config_.client_tx_power * g_client_ap * g_client_ap;
    ++signal_power_samples_;
  }

  const double data_dur = data.wave->duration_s;
  const double failed_airtime = data_dur + config_.timing.ack_timeout_s();
  if (!outcome.data_ok) {
    outcome.airtime_s = failed_airtime;
    return outcome;
  }

  if (!ack_.wave) {
    MacFrame ack;
    ack.type = FrameType::kAck;
    ack.src = 1;
    ack.dst = 2;
    ack_.wave = WaveformCache::instance().get_or_build(
        serialize(ack), config_.timing.ack_rate, 0x2B,
        config_.client_tx_power, /*cfo_bucket=*/0);
  }
  // The jammer also hears (and may react to) the ACK.
  JamCapture ack_jam;
  outcome.ack_ok = deliver(ack_, channel::kPortAp, channel::kPortClient,
                           now + data_dur + config_.timing.sifs_s,
                           /*lead=*/64, /*tail=*/32, kClientNoisePower,
                           FrameType::kAck, ack_jam);
  outcome.airtime_s =
      outcome.ack_ok
          ? data_dur + config_.timing.sifs_s + ack_.wave->duration_s
          : failed_airtime;
  return outcome;
}

WifiRunResult WifiNetworkSim::run() {
  WifiRunResult result;
  IperfSource source(config_.iperf);
  Backoff backoff(config_.timing, config_.seed ^ 0xB0FFULL);
  ArfRateControl arf;

  double t = 0.0;
  std::size_t queued = 0;
  unsigned attempt = 0;
  double rate_acc = 0.0;
  std::uint64_t rate_samples = 0;
  stage_ns_ = {};  // the split covers this run only

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
      if (t - defer_start > kCcaStarvationS) {
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

    const auto outcome = exchange(t, rate);
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
  publish_stage_ns();
  return result;
}

}  // namespace rjf::net
