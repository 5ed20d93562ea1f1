#include "fpga/dsp_core.h"

#include <algorithm>
#include <array>
#include <bit>

namespace rjf::fpga {

DspCore::DspCore() = default;

void DspCore::apply_registers() noexcept {
  if (latched_generation_ == regs_.generation()) return;
  latched_generation_ = regs_.generation();
  correlator_.load_from_registers(regs_);
  energy_.load_from_registers(regs_);
  fsm_.load_from_registers(regs_);
  jammer_.load_from_registers(regs_);
}

void DspCore::finish_tick(CoreOutput& out, const StrobeTap* tap) noexcept {
  out.jam_trigger = fsm_.clock(held_events_);
  if (out.jam_trigger) {
    ++feedback_.jam_triggers;
    feedback_.last_trigger_vita = vita_ticks_;
  }
  out.tx = jammer_.clock(out.jam_trigger);

  if (ring_ != nullptr) [[unlikely]]
    publish_tick(out, tap);
  // Event pulses are single-strobe; clear once the FSM and the ring have
  // consumed them.
  held_events_ = DetectorEvents{};

  ++vita_ticks_;
  feedback_.vita_ticks = vita_ticks_;
}

// rjf: realtime
inline void DspCore::publish(const DetectorEvents& ev, bool jam,
                             const JammerController::TxOut& tx,
                             const StrobeTap* strobe) noexcept {
  obs::EventRing& ring = *ring_;
  const std::uint64_t vita = vita_ticks_;
  using obs::EventKind;
  // Detector edges fire only on strobe clocks, where `strobe` is set.
  if (ev.xcorr)
    ring.push_event(EventKind::kXcorrTrigger, vita, strobe->xcorr_metric);
  if (ev.energy_high)
    ring.push_event(EventKind::kEnergyRise, vita, strobe->energy_sum);
  if (ev.energy_low)
    ring.push_event(EventKind::kEnergyFall, vita, strobe->energy_sum);
  const int stage = fsm_.stage();
  if (stage != prev_stage_) {
    prev_stage_ = stage;
    if (obs::EventRing::want_spans())
      ring.push_event(EventKind::kFsmStage, vita, hw::UInt<8>(stage).u64());
  }
  if (jam) ring.push_event(EventKind::kJamTrigger, vita, 0);
  if (tx.rf_active != prev_rf_) {
    prev_rf_ = tx.rf_active;
    ring.push_event(prev_rf_ ? EventKind::kJamStart : EventKind::kJamEnd, vita,
                    0);
  }
  if (tx.sample_strobe) probe_tx_ = tx.sample;

  if (strobe != nullptr && ring.strobe_gate(ev.any() || jam)) {
    obs::FabricSignals s;
    s.vita_ticks = vita;
    s.rx = strobe->rx;
    s.xcorr_metric = strobe->xcorr_metric;
    s.energy_sum = strobe->energy_sum;
    s.fsm_stage = hw::UInt<8>(stage).value();
    s.xcorr_trigger = ev.xcorr;
    s.energy_high = ev.energy_high;
    s.energy_low = ev.energy_low;
    s.jam_trigger = jam;
    s.rf_active = tx.rf_active;
    s.tx = probe_tx_;
    ring.push_strobe(s);
  }
}

void DspCore::publish_tick(const CoreOutput& out,
                           const StrobeTap* tap) noexcept {
  publish(held_events_, out.jam_trigger, out.tx, tap);
}

CoreOutput DspCore::strobe_tick(dsp::IQ16 sample) noexcept {
  CoreOutput out;
  out.vita_ticks = vita_ticks_;
  out.rx_strobe = true;

  const auto xc = correlator_.step(sample);
  const auto en = energy_.step(sample);
  jammer_.record_rx(sample);

  // Edge-detect so one packet produces one event per detector, not one
  // per sample while the metric stays above threshold.
  held_events_.xcorr = xc.trigger && !prev_xcorr_;
  held_events_.energy_high = en.trigger_high && !prev_high_;
  held_events_.energy_low = en.trigger_low && !prev_low_;
  prev_xcorr_ = xc.trigger;
  prev_high_ = en.trigger_high;
  prev_low_ = en.trigger_low;

  if (held_events_.xcorr) ++feedback_.xcorr_detections;
  if (held_events_.energy_high) ++feedback_.energy_high_detections;
  if (held_events_.energy_low) ++feedback_.energy_low_detections;

  out.xcorr_trigger = held_events_.xcorr;
  out.energy_high = held_events_.energy_high;
  out.energy_low = held_events_.energy_low;

  const StrobeTap tap{sample, xc.metric, en.energy_sum};
  finish_tick(out, &tap);
  return out;
}

CoreOutput DspCore::idle_tick() noexcept {
  CoreOutput out;
  out.vita_ticks = vita_ticks_;
  // held_events_ were cleared when the previous tick's FSM consumed them,
  // so detector outputs read false between strobes.
  finish_tick(out, nullptr);
  return out;
}

// rjf: realtime
CoreOutput DspCore::tick(std::optional<dsp::IQ16> rx) noexcept {
  const bool strobe = (strobe_phase_ == 0);
  strobe_phase_ = hw::wrap_inc(strobe_phase_);  // 2-bit wrap == mod 4
  return strobe ? strobe_tick(rx.value_or(dsp::IQ16{})) : idle_tick();
}

namespace {

// Fold one fabric clock's TX output into its sample period's record.
void fold(SamplePeriodOutput& rec, const JammerController::TxOut& tx) noexcept {
  rec.rf_active = rec.rf_active || tx.rf_active;
  if (tx.sample_strobe) {
    rec.tx_strobe = true;
    rec.tx = tx.sample;
  }
}

// Bit n set where metric[n] > threshold, for n < len. Eight compares land
// in the bytes of one word (byte b is compare b on a little-endian host),
// and one multiply gathers them: the partial products of
// 0x0102040810204080 put byte b's bit at bit 56 + b and nowhere else, so
// they never carry into each other.
static_assert(std::endian::native == std::endian::little);
BlockMask above(const std::array<std::uint32_t, kMetricBlock>& metric,
                std::size_t len, std::uint32_t threshold) noexcept {
  BlockMask mask{};
  for (std::size_t n = 0; n < len; n += 8) {
    std::array<bool, 8> flags{};
    for (std::size_t b = 0; b < 8; ++b) flags[b] = metric[n + b] > threshold;
    const std::uint64_t bits =
        (std::bit_cast<std::uint64_t>(flags) * 0x0102040810204080u) >> 56;
    mask[n / 64] |= bits << (n % 64);
  }
  // A short sub-block compared stale metrics past its end.
  if (len % 64 != 0) mask[len / 64] &= ~(~std::uint64_t{0} << (len % 64));
  return mask;
}

// Where a flag rises: high on a sample and low on the one before (`prev`
// before the first).
BlockMask rising(const BlockMask& level, bool prev) noexcept {
  BlockMask edge{};
  std::uint64_t carry = prev ? 1u : 0u;
  for (std::size_t w = 0; w < level.size(); ++w) {
    edge[w] = level[w] & ~((level[w] << 1) | carry);
    carry = level[w] >> 63;
  }
  return edge;
}

// The first sample in [from, end) whose bit is set, or `end`.
std::size_t next_set(const BlockMask& m, std::size_t from,
                     std::size_t end) noexcept {
  for (std::size_t w = from / 64; w * 64 < end; ++w) {
    std::uint64_t word = m[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word != 0)
      return std::min(end, w * 64 + std::size_t(std::countr_zero(word)));
  }
  return end;
}

}  // namespace

struct DspCore::SubBlock {
  std::span<const dsp::IQ16> rx;
  std::array<std::uint32_t, kMetricBlock> metric;
  BlockMask xcorr;  // metric > threshold
  EnergyBlock energy;
};

void DspCore::latch(const SubBlock& b, std::size_t n) noexcept {
  prev_xcorr_ = mask_test(b.xcorr, n);
  prev_high_ = mask_test(b.energy.high, n);
  prev_low_ = mask_test(b.energy.low, n);
}

template <bool kTraced>
void DspCore::clock_sample(const SubBlock& b, std::size_t n,
                           SamplePeriodOutput& rec) noexcept {
  const dsp::IQ16 sample = b.rx[n];
  rec = SamplePeriodOutput{};

  // --- Strobe clock: edge logic on the sub-block's detector outputs (same
  // body as strobe_tick, with the event latch kept in a local so
  // held_events_ stays clear).
  jammer_.record_rx(sample);
  DetectorEvents ev;
  ev.xcorr = mask_test(b.xcorr, n) && !prev_xcorr_;
  ev.energy_high = mask_test(b.energy.high, n) && !prev_high_;
  ev.energy_low = mask_test(b.energy.low, n) && !prev_low_;
  latch(b, n);

  if (ev.xcorr) ++feedback_.xcorr_detections;
  if (ev.energy_high) ++feedback_.energy_high_detections;
  if (ev.energy_low) ++feedback_.energy_low_detections;

  // When the FSM is disengaged and no event is asserted, clock() cannot
  // change state or fire, so the call is skipped outright.
  bool jam = false;
  if (fsm_.engaged() || ev.any()) jam = fsm_.clock(ev);
  if (jam) {
    ++feedback_.jam_triggers;
    feedback_.last_trigger_vita = vita_ticks_;
  }
  // Mid-burst with the FSM disengaged, the period's four clocks are all
  // on the air, issue one TX sample and change nothing else (a trigger on
  // the strobe clock is ignored by the busy jammer), so they run as one
  // step. `tx` is then the strobe clock's view: the sample lands on it
  // only when the jammer's strobe phase is 0 there.
  const bool period_step = !fsm_.engaged() && jammer_.mid_burst();
  JammerController::TxOut tx;
  if (period_step) {
    tx.rf_active = true;
    tx.sample_strobe = jammer_.strobe_due();
    tx.sample = jammer_.jam_period();
    rec = SamplePeriodOutput{tx.sample, true, true};
  } else if (jam || jammer_.busy()) {
    // An idle jammer ignores a false trigger; skip the clocking.
    tx = jammer_.clock(jam);
    fold(rec, tx);
  }

  if constexpr (kTraced) {
    const StrobeTap tap{sample, b.metric[n], b.energy.energy_sum(n)};
    publish(ev, jam, tx, &tap);
    // A period-step sample that lands on an idle clock reaches the
    // probe after the strobe snapshot, as it does clock by clock.
    if (period_step) probe_tx_ = tx.sample;
  }
  ++vita_ticks_;
  if (period_step) {
    vita_ticks_ += kClocksPerSample - 1;
    return;
  }

  // --- Idle clocks: detector outputs hold low; only the FSM window
  // countdown and the jammer's cycle timers can advance. With no events
  // asserted the FSM can time out but never fire, so jam_trigger is
  // provably false here. With neither running, the idle clocks change no
  // state and put nothing on the air: only VITA time moves, and the ring
  // owes a jam_end if a burst stopped on the strobe clock.
  if (!fsm_.engaged() && !jammer_.busy()) {
    if constexpr (kTraced)
      publish(DetectorEvents{}, false, JammerController::TxOut{}, nullptr);
    vita_ticks_ += kClocksPerSample - 1;
    return;
  }
  for (std::uint32_t c = 1; c < kClocksPerSample; ++c) {
    JammerController::TxOut t;
    if (fsm_.engaged()) (void)fsm_.clock(DetectorEvents{});
    if (jammer_.busy()) t = jammer_.clock(false);
    fold(rec, t);
    if constexpr (kTraced) publish(DetectorEvents{}, false, t, nullptr);
    ++vita_ticks_;
  }
}

// rjf: realtime
void DspCore::publish_stretch(const SubBlock& b, std::size_t from,
                              std::size_t to, const SamplePeriodOutput* rec,
                              bool tx_on_strobe) noexcept {
  obs::EventRing& ring = *ring_;
  const std::size_t n = to - from;
  std::size_t k = ring.strobe_gate_quiet(n);
  if (k >= n) return;
  // Pushed a batch at a time, so a 1-in-1 sampled run costs one ring index
  // update per batch, and a sparse one initialises few slots.
  std::array<obs::FabricSignals, 32> snapshots;
  std::size_t count = 0;
  for (; k < n; k += ring.strobe_sample_period()) {
    if (count == snapshots.size()) {
      ring.push_strobes(snapshots);
      count = 0;
    }
    const std::size_t m = from + k;
    obs::FabricSignals& s = snapshots[count++];
    s = obs::FabricSignals{};
    s.vita_ticks = vita_ticks_ + k * kClocksPerSample;
    s.rx = b.rx[m];
    s.xcorr_metric = b.metric[m];
    s.energy_sum = b.energy.energy_sum(m);
    if (rec == nullptr) {
      s.tx = probe_tx_;
    } else {
      s.rf_active = true;
      s.tx = tx_on_strobe ? rec[m].tx : k == 0 ? probe_tx_ : rec[m - 1].tx;
    }
  }
  ring.push_strobes(std::span(snapshots).first(count));
}

template <bool kTraced>
void DspCore::quiet_stretch(const SubBlock& b, std::size_t from,
                            std::size_t to,
                            std::span<SamplePeriodOutput> rec) noexcept {
  std::ranges::fill(rec.subspan(from, to - from), SamplePeriodOutput{});
  jammer_.record_rx_block(b.rx.subspan(from, to - from));
  latch(b, to - 1);
  if constexpr (kTraced) publish_stretch(b, from, to, nullptr, false);
  vita_ticks_ += (to - from) * kClocksPerSample;
}

template <bool kTraced>
void DspCore::jam_stretch(const SubBlock& b, std::size_t from, std::size_t to,
                          std::span<SamplePeriodOutput> rec) noexcept {
  // The strobe phase does not move in a period step, so whether each
  // sample lands on the strobe clock holds for the whole stretch.
  const bool tx_on_strobe = jammer_.strobe_due();
  jammer_.jam_periods(b.rx.subspan(from, to - from),
                      rec.subspan(from, to - from));
  latch(b, to - 1);
  if constexpr (kTraced) {
    publish_stretch(b, from, to, rec.data(), tx_on_strobe);
    probe_tx_ = rec[to - 1].tx;
  }
  vita_ticks_ += (to - from) * kClocksPerSample;
}

template <bool kTraced>
void DspCore::run_block_body(std::span<const dsp::IQ16> rx,
                             std::span<SamplePeriodOutput> out) noexcept {
  // The detectors run a sub-block at a time through their batched kernels;
  // nothing inside a run_block call changes their coefficients or
  // thresholds (settings-bus writes land between calls).
  const std::uint32_t threshold = correlator_.threshold();
  // above() reads whole groups of eight, so metrics past a short last
  // sub-block must hold values.
  SubBlock b{};
  for (std::size_t base = 0; base < rx.size(); base += kMetricBlock) {
    const std::size_t len = std::min(kMetricBlock, rx.size() - base);
    b.rx = rx.subspan(base, len);
    const std::span<SamplePeriodOutput> rec = out.subspan(base, len);
    correlator_.metrics(b.rx, b.metric);
    energy_.block(b.rx, b.energy);
    b.xcorr = above(b.metric, len, threshold);
    // The edges all come from the levels and the latches the sub-block
    // starts with: clocking a sample sets the latches to its own levels.
    const BlockMask x_edge = rising(b.xcorr, prev_xcorr_);
    const BlockMask h_edge = rising(b.energy.high, prev_high_);
    const BlockMask l_edge = rising(b.energy.low, prev_low_);
    BlockMask edge{};
    for (std::size_t w = 0; w < edge.size(); ++w)
      edge[w] = x_edge[w] | h_edge[w] | l_edge[w];

    // Between edges, with the FSM disengaged, an idle jammer makes a quiet
    // stretch and a mid-burst one a jam stretch. A traced run also needs
    // the ring's stage and RF latches settled, or it owes an event first.
    for (std::size_t n = 0; n < len;) {
      if (!fsm_.engaged() && (!kTraced || prev_stage_ == 0)) {
        const std::size_t next_edge = next_set(edge, n, len);
        if (!jammer_.busy() && (!kTraced || !prev_rf_) && next_edge > n) {
          quiet_stretch<kTraced>(b, n, next_edge, rec);
          n = next_edge;
          continue;
        }
        const std::size_t jam_end =
            n + std::min<std::uint64_t>(next_edge - n,
                                        jammer_.mid_burst_periods());
        if ((!kTraced || prev_rf_) && jam_end > n) {
          jam_stretch<kTraced>(b, n, jam_end, rec);
          n = jam_end;
          continue;
        }
      }
      clock_sample<kTraced>(b, n, rec[n]);
      ++n;
    }
  }
  feedback_.vita_ticks = vita_ticks_;
}

// rjf: realtime
void DspCore::run_block(std::span<const dsp::IQ16> rx,
                        std::span<SamplePeriodOutput> out) noexcept {
  if (out.size() < rx.size()) rx = rx.first(out.size());

  if (strobe_phase_ != 0) {
    // Misaligned entry (a caller interleaved raw tick()s): replay the exact
    // per-tick cadence and fold it. Bit-identical to the straight-line pass.
    for (std::size_t m = 0; m < rx.size(); ++m) {
      SamplePeriodOutput& rec = out[m];
      rec = SamplePeriodOutput{};
      fold(rec, tick(rx[m]).tx);
      for (std::uint32_t c = 1; c < kClocksPerSample; ++c)
        fold(rec, tick(std::nullopt).tx);
    }
    // Inline drain is the single-thread consumer seam: it runs at the block
    // boundary, outside the wait-free producer window.
    if (ring_ != nullptr) ring_->drain_if_inline();  // rjf-analyze: allow(realtime.call)
    return;
  }

  if (ring_ != nullptr) {
    run_block_body<true>(rx, out);
    ring_->drain_if_inline();  // rjf-analyze: allow(realtime.call)
  } else {
    run_block_body<false>(rx, out);
  }
}

void DspCore::fast_forward(std::uint64_t samples) noexcept {
  jammer_.fast_forward(samples);
  correlator_.reset();
  energy_.reset();
  fsm_.reset();
  held_events_ = DetectorEvents{};
  prev_xcorr_ = prev_high_ = prev_low_ = false;
  vita_ticks_ += samples * kClocksPerSample;
  feedback_.vita_ticks = vita_ticks_;
  strobe_phase_ = hw::UInt<2>();
  if (ring_ != nullptr) {
    // A jam burst whose edge fell inside the skipped air time still needs
    // that edge; the exact tick is unobservable here, so stamp it at the
    // end of the gap (duty-cycle error bounded by the skip length).
    if (prev_rf_ != jammer_.rf_active()) {
      prev_rf_ = jammer_.rf_active();
      ring_->push_event(prev_rf_ ? obs::EventKind::kJamStart
                                 : obs::EventKind::kJamEnd,
                        vita_ticks_, 0);
    }
    prev_stage_ = fsm_.stage();
  }
}

void DspCore::reset() noexcept {
  correlator_.reset();
  energy_.reset();
  fsm_.reset();
  jammer_.reset();
  feedback_ = HostFeedback{};
  vita_ticks_ = 0;
  strobe_phase_ = hw::UInt<2>();
  held_events_ = DetectorEvents{};
  prev_xcorr_ = prev_high_ = prev_low_ = false;
  probe_tx_ = dsp::IQ16{};
  prev_rf_ = false;
  prev_stage_ = 0;
}

}  // namespace rjf::fpga
