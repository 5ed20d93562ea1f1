#include "obs/event_ring.h"

#include <algorithm>
#include <chrono>

namespace rjf::obs {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EventRing::EventRing(const RingConfig& config)
    : ring_(round_up_pow2(config.capacity)),
      mask_(ring_.size() - 1),
      period_(config.strobe_sample_period == 0 ? 1
                                               : config.strobe_sample_period) {}

bool EventRing::try_push(const RingRecord& record) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (head - cached_tail_ >= ring_.size()) {
    cached_tail_ = tail_.load(std::memory_order_acquire);
    if (head - cached_tail_ >= ring_.size()) {
      relaxed_inc(dropped_);
      return false;
    }
  }
  ring_[head & mask_] = record;
  head_.store(head + 1, std::memory_order_release);
  relaxed_inc(pushed_);
  return true;
}

// rjf: realtime
bool EventRing::push_event(EventKind kind, std::uint64_t vita_ticks,
                           std::uint64_t value) noexcept {
  if constexpr (kCompiledObsLevel == ObsLevel::kOff) return false;
  RingRecord r{};
  r.vita_ticks = vita_ticks;
  r.value = value;
  r.type = kRecordEvent;
  r.kind = static_cast<std::uint8_t>(kind);
  return try_push(r);
}

RingRecord EventRing::strobe_record(const FabricSignals& signals) noexcept {
  RingRecord r{};
  r.vita_ticks = signals.vita_ticks;
  r.value = signals.energy_sum;
  r.metric = signals.xcorr_metric;
  r.rx_i = signals.rx.i;
  r.rx_q = signals.rx.q;
  r.tx_i = signals.tx.i;
  r.tx_q = signals.tx.q;
  r.type = kRecordStrobe;
  r.kind = signals.fsm_stage;
  r.flags = static_cast<std::uint8_t>(
      (signals.xcorr_trigger ? kStrobeXcorrTrigger : 0u) |
      (signals.energy_high ? kStrobeEnergyHigh : 0u) |
      (signals.energy_low ? kStrobeEnergyLow : 0u) |
      (signals.jam_trigger ? kStrobeJamTrigger : 0u) |
      (signals.rf_active ? kStrobeRfActive : 0u));
  return r;
}

// rjf: realtime
bool EventRing::push_strobe(const FabricSignals& signals) noexcept {
  return try_push(strobe_record(signals));
}

// rjf: realtime
std::size_t EventRing::push_strobes(
    std::span<const FabricSignals> signals) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (head - cached_tail_ + signals.size() > ring_.size())
    cached_tail_ = tail_.load(std::memory_order_acquire);
  const std::size_t room = ring_.size() - (head - cached_tail_);
  const std::size_t taken = std::min(room, signals.size());
  for (std::size_t k = 0; k < taken; ++k)
    ring_[(head + k) & mask_] = strobe_record(signals[k]);
  head_.store(head + taken, std::memory_order_release);
  relaxed_add(pushed_, taken);
  relaxed_add(dropped_, signals.size() - taken);
  return taken;
}

void EventRing::dispatch(const RingRecord& record, FabricSink& sink) {
  if (record.type == kRecordStrobe) {
    FabricSignals s{};
    s.vita_ticks = record.vita_ticks;
    s.rx = {record.rx_i, record.rx_q};
    s.xcorr_metric = record.metric;
    s.energy_sum = record.value;
    s.fsm_stage = record.kind;
    s.xcorr_trigger = (record.flags & kStrobeXcorrTrigger) != 0;
    s.energy_high = (record.flags & kStrobeEnergyHigh) != 0;
    s.energy_low = (record.flags & kStrobeEnergyLow) != 0;
    s.jam_trigger = (record.flags & kStrobeJamTrigger) != 0;
    s.rf_active = (record.flags & kStrobeRfActive) != 0;
    s.tx = {record.tx_i, record.tx_q};
    sink.on_strobe(s);
  } else {
    sink.on_event(static_cast<EventKind>(record.kind), record.vita_ticks,
                  record.value);
  }
}

std::size_t EventRing::drain() {
  if (consumer_ == nullptr) return 0;
  return drain_into(*consumer_);
}

std::size_t EventRing::drain_into(FabricSink& sink) {
  std::lock_guard<std::mutex> lock(drain_mu_);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::size_t dispatched = 0;
  while (tail != head) {
    const RingRecord record = ring_[tail & mask_];
    ++tail;
    // Free the slot before dispatching so a slow sink never extends the
    // window in which the producer sees a full ring.
    tail_.store(tail, std::memory_order_release);
    dispatch(record, sink);
    ++dispatched;
  }
  return dispatched;
}

RingDrainThread::RingDrainThread(EventRing& ring, std::uint32_t poll_us)
    : ring_(ring), thread_([this, poll_us] {
        while (!stop_.load(std::memory_order_acquire)) {
          if (ring_.drain() == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(poll_us));
          }
        }
        (void)ring_.drain();
      }) {}

RingDrainThread::~RingDrainThread() { stop(); }

void RingDrainThread::stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
}

}  // namespace rjf::obs
