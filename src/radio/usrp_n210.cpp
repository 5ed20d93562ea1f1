#include "radio/usrp_n210.h"

#include <algorithm>
#include <chrono>

#include "radio/fault_hooks.h"

namespace rjf::radio {

namespace {

// Samples per run_block() chunk. Bounds the scratch buffer of per-sample
// records (one 6-byte SamplePeriodOutput per baseband sample, 48 KiB at
// this size) while keeping the inner loop long enough to amortise the
// chunking overhead.
constexpr std::size_t kChunkSamples = 8192;

}  // namespace

UsrpN210::UsrpN210() : periods_(kChunkSamples) {}

void UsrpN210::write_register(fpga::Reg addr, std::uint32_t value) {
  bus_.write(addr, value, now_ticks());
}

void UsrpN210::write_register_now(fpga::Reg addr, std::uint32_t value) {
  core_.registers().write(addr, value);
  core_.apply_registers();
}

UsrpN210::StreamResult UsrpN210::stream_fabric(std::span<const dsp::IQ16> rx) {
  StreamResult result;
  result.tx.assign(rx.size(), dsp::cfloat{});

  // Wall time is measured here on the producer side: once records are
  // drained after the fact, dispatch time no longer says anything about
  // how long the stream call took.
  const auto wall_start = std::chrono::steady_clock::now();
  if (ring_ != nullptr)
    ring_->push_event(obs::EventKind::kStreamStart, now_ticks(), rx.size());

  const auto before = core_.feedback();
  const float g_tx = frontend_.tx_amplitude();

  // Receive-overflow gaps declared by the fault hook for this block,
  // converted to block-relative sample indices. The host never saw those
  // samples, so the core skips them with exact VITA accounting
  // (fast_forward) instead of processing stale data.
  std::vector<OverflowGap> gaps;
  if (rx_fault_ != nullptr) {
    std::vector<OverflowGap> declared;
    rx_fault_->overflow_gaps(rx_cursor_, rx.size(), declared);
    for (const OverflowGap& g : declared) {
      // Clip to this block; a gap may straddle either block boundary.
      const std::uint64_t lo = std::max(g.start_sample, rx_cursor_);
      const std::uint64_t hi =
          std::min(g.start_sample + g.length, rx_cursor_ + rx.size());
      if (hi > lo) gaps.push_back(OverflowGap{lo - rx_cursor_, hi - lo});
    }
  }
  std::size_t gap_next = 0;

  bool burst_open = false;
  std::size_t n = 0;
  while (n < rx.size()) {
    // Service any in-flight settings-bus writes; re-latch on application.
    if (!bus_.idle() && bus_.service(core_.registers(), now_ticks()) > 0)
      core_.apply_registers();

    // An overflow gap starting at (or spilling over) this sample: flush the
    // skipped span through the core without samples. The burst scan cannot
    // observe RF state across the gap, so any open burst ends here.
    if (gap_next < gaps.size() && gaps[gap_next].start_sample <= n) {
      const std::uint64_t gap_end = std::min<std::uint64_t>(
          gaps[gap_next].start_sample + gaps[gap_next].length, rx.size());
      ++gap_next;
      if (gap_end > n) {
        const std::uint64_t lost = gap_end - n;
        if (ring_ != nullptr)
          ring_->push_event(obs::EventKind::kOverflowGap, now_ticks(), lost);
        core_.fast_forward(lost);
        if (ring_ != nullptr)
          ring_->push_event(obs::EventKind::kDetectorFlush, now_ticks(),
                            lost * fpga::kClocksPerSample);
        ++result.overflow_gaps;
        result.samples_lost += lost;
        burst_open = false;
        n = static_cast<std::size_t>(gap_end);
      }
      continue;
    }

    // Run up to a full chunk, but never across the fabric tick where the
    // next pending register write lands: the per-sample model serviced the
    // bus before every sample, so the block model must re-check exactly at
    // the first sample whose start tick reaches the completion time.
    std::size_t end = std::min(rx.size(), n + kChunkSamples);
    if (!bus_.idle()) {
      const std::uint64_t due = *bus_.next_completion();
      const std::uint64_t base = now_ticks();
      if (due > base) {
        const std::uint64_t ahead = (due - base + fpga::kClocksPerSample - 1) /
                                    fpga::kClocksPerSample;
        end = std::min<std::uint64_t>(end, n + std::max<std::uint64_t>(ahead, 1));
      } else {
        end = n + 1;  // unreachable after service(); stay exact regardless
      }
    }
    // ... and never across the start of the next overflow gap.
    if (gap_next < gaps.size())
      end = std::min<std::uint64_t>(end, gaps[gap_next].start_sample);

    const std::size_t len = end - n;
    const auto chunk = std::span(periods_).first(len);
    core_.run_block(rx.subspan(n, len), chunk);

    // Scan the per-sample records one run at a time. A TX sample is only
    // ever issued on the air, so an idle record just closes the open
    // burst, and each on-air run converts its TX samples, applies the TX
    // gain to them and adds its length to the burst once.
    for (std::size_t m = 0; m < len;) {
      if (!chunk[m].rf_active) {
        burst_open = false;
        ++m;
        continue;
      }
      const std::size_t run_start = m;
      for (; m < len && chunk[m].rf_active; ++m)
        if (chunk[m].tx_strobe)
          result.tx[n + m] = dac_.sample(chunk[m].tx) * g_tx;
      if (!burst_open) {
        result.bursts.push_back(JamBurst{n + run_start, 0});
        burst_open = true;
      }
      result.bursts.back().length += m - run_start;
    }
    n = end;
  }
  rx_cursor_ += rx.size();

  const auto after = core_.feedback();
  result.jam_triggers = after.jam_triggers - before.jam_triggers;
  result.xcorr_detections = after.xcorr_detections - before.xcorr_detections;
  result.energy_high_detections =
      after.energy_high_detections - before.energy_high_detections;
  result.energy_low_detections =
      after.energy_low_detections - before.energy_low_detections;
  result.last_trigger_vita = after.last_trigger_vita;

  if (ring_ != nullptr) {
    ring_->push_event(
        obs::EventKind::kStreamWall, now_ticks(),
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count()));
    ring_->push_event(obs::EventKind::kStreamEnd, now_ticks(), rx.size());
    // In inline-drain mode the consumer has now seen the whole stream.
    ring_->drain_if_inline();
  }
  return result;
}

UsrpN210::StreamResult UsrpN210::stream(std::span<const dsp::cfloat> rx) {
  if (iq_.size() < rx.size()) iq_.resize(rx.size());
  const auto iq = std::span(iq_).first(rx.size());
  if (rx_fault_ == nullptr) {
    adc_.convert(rx, frontend_.rx_amplitude(), iq);
  } else {
    if (gained_.size() < rx.size()) gained_.resize(rx.size());
    const auto gained = std::span(gained_).first(rx.size());
    frontend_.apply_rx(rx, gained);
    rx_fault_->mutate_rx(gained, rx_cursor_);
    if (ring_ != nullptr) {
      // Annotate the trace with each fault applied in this block, stamped
      // at the fabric tick of the fault's first sample.
      std::vector<RxFaultView> views;
      rx_fault_->applied_faults(rx_cursor_, rx.size(), views);
      const std::uint64_t base_vita = now_ticks();
      for (const RxFaultView& v : views)
        ring_->push_event(obs::EventKind::kFaultInjected,
                          base_vita + (v.at_sample - rx_cursor_) *
                                          fpga::kClocksPerSample,
                          v.kind_id);
    }
    // The gain is already in: x * 1.0f == x, so this is the same
    // quantiser over the same products.
    adc_.convert(gained, 1.0f, iq);
  }
  StreamResult result = stream_fabric(iq);
  result.adc_clipped = adc_.clipped();
  return result;
}

}  // namespace rjf::radio
