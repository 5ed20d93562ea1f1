// Process-wide cache of synthesised 802.11 waveforms for the sweep rig.
//
// A SIR sweep runs many WifiNetworkSim points that all transmit the same
// iperf datagram (and the same ACK) at the same handful of rates; each
// point used to re-run the full transmit chain — scramble, convolve,
// interleave, map, 64-point IFFT per symbol — plus a 20→25 MSPS polyphase
// resample, only to produce byte-identical samples.  The cached value is
// a pure function of the key (no RNG is consumed while building it), so
// sharing it across sims and worker threads cannot perturb any sim's
// random stream: the sweep engine's bit-identical-at-any-thread-count
// guarantee holds with the cache on or off.  Per-sim DECODE-VERDICT
// caches do consume rng_ draws and must stay inside WifiNetworkSim.
//
// Keyed by (payload hash + bytes, rate, scrambler seed, mean power, CFO
// bucket).  The CFO bucket quantises any client carrier-frequency offset
// the rig may model; today's rig applies none, so callers pass bucket 0,
// but distinct offsets must never alias to one waveform.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy80211/rates.h"

namespace rjf::net {

struct CachedWaveform {
  dsp::cvec w20;        // client-domain waveform at the requested mean power
  dsp::cvec w25;        // same waveform resampled to fpga::kBasebandRateHz
  double duration_s = 0.0;  // w20 duration at phy80211::kSampleRateHz
};

class WaveformCache {
 public:
  static WaveformCache& instance();

  /// Return the cached waveform for the key, building (and storing) it on
  /// a miss.  With the cache disabled this always builds a fresh value
  /// and leaves the store untouched — results are identical either way.
  [[nodiscard]] std::shared_ptr<const CachedWaveform> get_or_build(
      std::span<const std::uint8_t> psdu, phy80211::Rate rate,
      std::uint8_t scrambler_seed, double mean_power,
      std::int32_t cfo_bucket);

  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Drop every entry. Counters survive: a test or rig that clears the
  /// store between phases keeps its cumulative hit/miss/eviction history
  /// (an earlier clear() silently zeroed them, so hits()/misses() read
  /// after a mid-run clear under-reported). Call
  /// reset_counters() explicitly to start a fresh measurement window.
  void clear();

  /// Zero the hit/miss/eviction counters without touching the entries.
  void reset_counters();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Entries displaced oldest-first after the cap was reached.
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  WaveformCache() = default;

  // Full key: the payload hash screens fast, the remaining fields (and the
  // payload bytes themselves) guarantee a hash collision can never hand a
  // sim the wrong waveform.
  struct Key {
    std::uint64_t payload_hash = 0;
    std::uint8_t rate = 0;
    std::uint8_t scrambler_seed = 0;
    std::uint64_t power_bits = 0;  // bit pattern of the mean-power double
    std::int32_t cfo_bucket = 0;
    std::vector<std::uint8_t> psdu;
    bool operator<(const Key& o) const noexcept;
  };

  // Bounded FIFO: entries evict oldest-first once the cap is reached;
  // shared_ptr keeps evicted waveforms alive for sims still holding them.
  static constexpr std::size_t kMaxEntries = 64;

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const CachedWaveform>> entries_;
  std::deque<Key> insertion_order_;
  bool enabled_ = true;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rjf::net
