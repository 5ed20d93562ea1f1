#include "net/waveform_cache.h"

#include <bit>
#include <tuple>

#include "dsp/db.h"
#include "dsp/resampler.h"
#include "fpga/dsp_core.h"
#include "phy80211/ofdm.h"
#include "phy80211/transmitter.h"

namespace rjf::net {
namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::shared_ptr<const CachedWaveform> build(
    std::span<const std::uint8_t> psdu, phy80211::Rate rate,
    std::uint8_t scrambler_seed, double mean_power) {
  auto wf = std::make_shared<CachedWaveform>();
  phy80211::Transmitter tx({rate, scrambler_seed});
  wf->w20 = tx.transmit(psdu);
  dsp::set_mean_power(std::span<dsp::cfloat>(wf->w20), mean_power);
  wf->w25 =
      dsp::resample(wf->w20, phy80211::kSampleRateHz, fpga::kBasebandRateHz);
  wf->duration_s =
      static_cast<double>(wf->w20.size()) / phy80211::kSampleRateHz;
  return wf;
}

}  // namespace

bool WaveformCache::Key::operator<(const Key& o) const noexcept {
  return std::tie(payload_hash, rate, scrambler_seed, power_bits, cfo_bucket,
                  psdu) < std::tie(o.payload_hash, o.rate, o.scrambler_seed,
                                   o.power_bits, o.cfo_bucket, o.psdu);
}

WaveformCache& WaveformCache::instance() {
  static WaveformCache cache;
  return cache;
}

std::shared_ptr<const CachedWaveform> WaveformCache::get_or_build(
    std::span<const std::uint8_t> psdu, phy80211::Rate rate,
    std::uint8_t scrambler_seed, double mean_power, std::int32_t cfo_bucket) {
  Key key;
  key.payload_hash = fnv1a(psdu);
  key.rate = static_cast<std::uint8_t>(rate);
  key.scrambler_seed = scrambler_seed;
  key.power_bits = std::bit_cast<std::uint64_t>(mean_power);
  key.cfo_bucket = cfo_bucket;
  key.psdu.assign(psdu.begin(), psdu.end());

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) {
      // Fall through to an uncached build below.
    } else if (const auto it = entries_.find(key); it != entries_.end()) {
      ++hits_;
      return it->second;
    } else {
      ++misses_;
    }
  }

  // Build outside the lock: the value is a pure function of the key, so a
  // concurrent duplicate build produces bit-identical samples and either
  // copy may win the insert.
  auto wf = build(psdu, rate, scrambler_seed, mean_power);

  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return wf;
  const auto [it, inserted] = entries_.try_emplace(std::move(key), wf);
  if (inserted) {
    insertion_order_.push_back(it->first);
    while (entries_.size() > kMaxEntries) {
      entries_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      ++evictions_;
    }
  }
  return it->second;
}

void WaveformCache::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

bool WaveformCache::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void WaveformCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  insertion_order_.clear();
}

void WaveformCache::reset_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

std::size_t WaveformCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t WaveformCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t WaveformCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t WaveformCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace rjf::net
