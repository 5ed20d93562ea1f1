// EventRing — wait-free SPSC transport for always-on fabric telemetry.
//
// The original transport dispatched two virtual FabricSink calls per fabric
// tick straight into the consumer bundle; attaching telemetry also forced
// DspCore::run_block() off its straight-line fast loop, so tracing cost
// 5.35x and every large sweep ran blind. This ring decouples the producer
// side (the streaming thread: fabric core, settings bus, radio brackets,
// host facade) from the consumer fan-out (TraceRecorder / MetricsRegistry /
// SignalProbe behind a FabricSink):
//
//   - Producers append fixed-size 32-byte POD records with a plain store
//     followed by one release bump of the head index — wait-free, no locks,
//     no virtual dispatch, no allocation. A full ring drops the record and
//     counts the drop; the producer never blocks.
//   - The drain side replays records to the registered FabricSink in FIFO
//     order, either inline at block boundaries (default — same thread, so
//     the trace is identical to the old synchronous dispatch) or from a
//     RingDrainThread for streaming runs. Consumer-side draining takes a
//     mutex so an explicit flush and the drain thread serialise; producer
//     wait-freedom is untouched.
//
// Observability levels are a compile-time ceiling on what producers even
// construct, set with -DRJF_OBS_MAX_LEVEL=N (default 3):
//   kOff      — rings stay silent
//   kCounters — discrete events only (detector edges, jam bursts, settings
//               traffic, faults): everything the always-on counters need
//   kSpans    — + FSM stage transitions (span-class detail)
//   kProbes   — + per-strobe signal snapshots, decimated 1-in-N
// The gates for levels above N fold to constant false, so a counters-only
// build pays nothing for probe hooks. There is no runtime level: a caller
// that wants no records attaches no ring.
//
// Strobe sampling is a deterministic 1-in-N countdown (pure function of the
// call sequence — no clocks, no RNG — so traces are bit-reproducible).
// Strobes carrying detector edges or a jam trigger bypass the decimation:
// the SignalProbe's trigger-centric captures survive any sampling period.
// Suppressed strobes and full-ring drops are both counted, so lossy capture
// is visible, never silent (obs.strobes_sampled_out / obs.ring_dropped in
// the metrics export).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/events.h"

#ifndef RJF_OBS_MAX_LEVEL
#define RJF_OBS_MAX_LEVEL 3
#endif

namespace rjf::obs {

/// What the producers are willing to construct, up to the compile-time
/// ceiling kCompiledObsLevel.
enum class ObsLevel : std::uint8_t {
  kOff = 0,
  kCounters = 1,
  kSpans = 2,
  kProbes = 3,
};

inline constexpr ObsLevel kCompiledObsLevel =
    static_cast<ObsLevel>(RJF_OBS_MAX_LEVEL);

/// One transport record. Events and strobe snapshots share the layout so
/// the ring stays an array of 32-byte PODs (two per cache line).
struct RingRecord {
  std::uint64_t vita_ticks = 0;
  std::uint64_t value = 0;   // event payload | strobe energy sum
  std::uint32_t metric = 0;  // strobe xcorr metric
  std::int16_t rx_i = 0;
  std::int16_t rx_q = 0;
  std::int16_t tx_i = 0;
  std::int16_t tx_q = 0;
  std::uint8_t type = 0;   // kRecordEvent | kRecordStrobe
  std::uint8_t kind = 0;   // EventKind (event) | FSM stage (strobe)
  std::uint8_t flags = 0;  // kStrobe* bits (strobe only)
  std::uint8_t pad = 0;
};
static_assert(sizeof(RingRecord) == 32, "two records per cache line");
static_assert(std::is_trivially_copyable_v<RingRecord>);

inline constexpr std::uint8_t kRecordEvent = 0;
inline constexpr std::uint8_t kRecordStrobe = 1;

inline constexpr std::uint8_t kStrobeXcorrTrigger = 1u << 0;
inline constexpr std::uint8_t kStrobeEnergyHigh = 1u << 1;
inline constexpr std::uint8_t kStrobeEnergyLow = 1u << 2;
inline constexpr std::uint8_t kStrobeJamTrigger = 1u << 3;
inline constexpr std::uint8_t kStrobeRfActive = 1u << 4;

struct RingConfig {
  /// Record slots; rounded up to a power of two, minimum 16.
  std::size_t capacity = std::size_t{1} << 16;
  /// Emit 1 of every N idle strobes (detector-edge/jam strobes always
  /// pass). 1 = every strobe, like the pre-ring transport.
  std::uint32_t strobe_sample_period = 16;
};

class EventRing {
 public:
  explicit EventRing(const RingConfig& config = {});
  EventRing(const EventRing&) = delete;  // producers hold raw pointers
  EventRing& operator=(const EventRing&) = delete;

  // Producer side (single thread, wait-free) ---------------------------------

  /// Append a discrete event. Returns false (and counts the drop) when the
  /// ring is full; always false in a kOff build.
  bool push_event(EventKind kind, std::uint64_t vita_ticks,
                  std::uint64_t value) noexcept;

  /// Span-class detail gate (FSM stage transitions).
  [[nodiscard]] static constexpr bool want_spans() noexcept {
    return kCompiledObsLevel >= ObsLevel::kSpans;
  }

  /// Probe-class detail gate (per-strobe snapshots).
  [[nodiscard]] static constexpr bool want_probes() noexcept {
    return kCompiledObsLevel >= ObsLevel::kProbes;
  }

  /// Sampling gate, called once per rx strobe before building the snapshot.
  /// `interesting` strobes (detector edge / jam trigger) bypass decimation
  /// without perturbing the countdown, so the 1-in-N phase stays a pure
  /// function of the strobe sequence. Counts suppressed strobes.
  // rjf: realtime
  [[nodiscard]] bool strobe_gate(bool interesting) noexcept {
    if constexpr (!want_probes()) return false;
    if (strobe_countdown_ == 0) {
      strobe_countdown_ = period_ - 1;
      return true;
    }
    --strobe_countdown_;
    if (interesting) return true;
    relaxed_inc(sampled_out_);
    return false;
  }

  /// strobe_gate(false) for `n` strobes in a row, none of them interesting,
  /// in one step: returns the offset of the first that passes (n when none
  /// does); after it, every strobe_sample_period()-th passes. The countdown
  /// and the sampled-out count end where n calls would leave them.
  // rjf: realtime
  [[nodiscard]] std::size_t strobe_gate_quiet(std::size_t n) noexcept {
    if constexpr (!want_probes()) return n;
    const std::size_t first = strobe_countdown_;
    if (n <= first) {
      strobe_countdown_ -= static_cast<std::uint32_t>(n);
      relaxed_add(sampled_out_, n);
      return n;
    }
    const std::size_t passed = (n - first - 1) / period_ + 1;
    const std::size_t last = first + (passed - 1) * period_;
    strobe_countdown_ = static_cast<std::uint32_t>(period_ - (n - last));
    relaxed_add(sampled_out_, n - passed);
    return first;
  }

  /// Append a strobe snapshot (call only when strobe_gate() passed).
  bool push_strobe(const FabricSignals& signals) noexcept;

  /// push_strobe() of each of `signals` in order, with one index update.
  /// Returns how many the ring took; the rest count as dropped.
  std::size_t push_strobes(std::span<const FabricSignals> signals) noexcept;

  // Consumer side ------------------------------------------------------------

  /// Register the fan-out sink. `inline_drain` selects the block-boundary
  /// drain mode: producers call drain_if_inline() after each block so the
  /// same thread replays the records synchronously. With it false, a
  /// RingDrainThread (or explicit drain() calls) consumes instead.
  void set_consumer(FabricSink* sink, bool inline_drain) noexcept {
    consumer_ = sink;
    inline_drain_ = inline_drain;
  }
  [[nodiscard]] FabricSink* consumer() const noexcept { return consumer_; }

  /// Drain every pending record into the registered consumer (FIFO order).
  /// Returns the number of records dispatched. Thread-safe against
  /// concurrent drain()/drain_into() calls; NOT against two producers.
  std::size_t drain();

  /// Drain into an explicit sink (testing / ad-hoc consumers).
  std::size_t drain_into(FabricSink& sink);

  /// Block-boundary hook for producers: drains only in inline mode.
  void drain_if_inline() {
    if (inline_drain_ && consumer_ != nullptr) (void)drain();
  }

  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // Accounting ---------------------------------------------------------------
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint32_t strobe_sample_period() const noexcept {
    return period_;
  }
  /// Records accepted into the ring (events + strobes).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  /// Records rejected because the ring was full (lossy capture, visible).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Idle strobes suppressed by 1-in-N decimation.
  [[nodiscard]] std::uint64_t sampled_out() const noexcept {
    return sampled_out_.load(std::memory_order_relaxed);
  }

 private:
  bool try_push(const RingRecord& record) noexcept;
  static void dispatch(const RingRecord& record, FabricSink& sink);

  /// Single-writer counter bump without a read-modify-write (the lock-free
  /// fetch_add is overkill when only one thread ever writes).
  static void relaxed_inc(std::atomic<std::uint64_t>& counter) noexcept {
    relaxed_add(counter, 1);
  }
  static void relaxed_add(std::atomic<std::uint64_t>& counter,
                          std::uint64_t n) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }
  static RingRecord strobe_record(const FabricSignals& signals) noexcept;

  std::vector<RingRecord> ring_;
  std::size_t mask_ = 0;
  std::uint32_t period_;

  // Producer-local state (never read by the consumer).
  std::uint32_t strobe_countdown_ = 0;
  std::uint64_t cached_tail_ = 0;

  // SPSC indices: producer publishes with a release store of head_; the
  // consumer acquires head_ before reading slots and releases tail_ after
  // freeing them. Separate cache lines keep the bumps from false sharing.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};

  // Accounting: each written by exactly one side, read relaxed by anyone.
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> sampled_out_{0};

  FabricSink* consumer_ = nullptr;
  bool inline_drain_ = true;
  std::mutex drain_mu_;  // serialises flush vs. drain thread
};

/// Consumer thread for streaming runs: polls the ring and drains into its
/// registered consumer until stopped; stop() (and the destructor) joins and
/// performs a final drain so no record is lost. Because drains preserve
/// FIFO order and the record stream is deterministic, a run consumed by
/// this thread exports byte-identical traces to the same run drained
/// inline.
class RingDrainThread {
 public:
  explicit RingDrainThread(EventRing& ring, std::uint32_t poll_us = 200);
  ~RingDrainThread();
  RingDrainThread(const RingDrainThread&) = delete;
  RingDrainThread& operator=(const RingDrainThread&) = delete;

  void stop();

 private:
  EventRing& ring_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace rjf::obs
