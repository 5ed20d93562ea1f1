#include "fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "dsp/rng.h"
#include "fpga/dsp_core.h"

namespace rjf::fault {

namespace {

// Substream tag separating per-write bus draws from the timeline kinds
// (which use derive_seed(seed, kind) with kind in [0, 6)).
constexpr std::uint64_t kBusStreamTag = 0xB5;

// First event index that could overlap a range starting at `start`, given
// the plan's longest run. Events are sorted by at_sample.
std::size_t first_candidate(const std::vector<FaultEvent>& events,
                            std::uint64_t start, std::uint32_t max_run) {
  const std::uint64_t floor = start > max_run ? start - max_run : 0;
  const auto it = std::lower_bound(
      events.begin(), events.end(), floor,
      [](const FaultEvent& ev, std::uint64_t v) { return ev.at_sample < v; });
  return static_cast<std::size_t>(it - events.begin());
}

}  // namespace

void FaultInjector::mutate_rx(std::span<dsp::cfloat> rx,
                              std::uint64_t start_sample) {
  const auto& events = plan_.events();
  const std::uint64_t end_sample = start_sample + rx.size();
  for (std::size_t k = first_candidate(events, start_sample, plan_.max_run());
       k < events.size() && events[k].at_sample < end_sample; ++k) {
    const FaultEvent& ev = events[k];
    const std::uint64_t ev_end = ev.at_sample + ev.length;
    if (ev_end <= start_sample) continue;

    // Count each event once: when its first sample enters a block. Blocks
    // never overlap (the cursor is monotonic), so this is exact.
    if (ev.at_sample >= start_sample)
      ++injected_[static_cast<std::size_t>(ev.kind)];
    if (ev.kind == FaultKind::kOverflowRun)
      continue;  // applied by the stream loop via overflow_gaps()

    const std::uint64_t lo = std::max(ev.at_sample, start_sample);
    const std::uint64_t hi = std::min(ev_end, end_sample);
    for (std::uint64_t s = lo; s < hi; ++s) {
      dsp::cfloat& x = rx[static_cast<std::size_t>(s - start_sample)];
      switch (ev.kind) {
        case FaultKind::kAdcClip:
        case FaultKind::kGainGlitch:
          x *= static_cast<float>(ev.magnitude);
          break;
        case FaultKind::kDcOffset:
          x += dsp::cfloat{static_cast<float>(ev.magnitude),
                           static_cast<float>(ev.magnitude)};
          break;
        case FaultKind::kSampleDrop:
          x = dsp::cfloat{};
          break;
        case FaultKind::kTuneGlitch: {
          // Progressive rotation from the glitch onset, like a PLL pulling
          // off frequency and back.
          const double w = 2.0 * std::numbers::pi * ev.magnitude /
                           fpga::kBasebandRateHz;
          const double phase = std::remainder(
              w * static_cast<double>(s - ev.at_sample),
              2.0 * std::numbers::pi);
          x *= dsp::cfloat{static_cast<float>(std::cos(phase)),
                           static_cast<float>(std::sin(phase))};
          break;
        }
        case FaultKind::kOverflowRun:
        case FaultKind::kBusStall:
        case FaultKind::kBusDrop:
          break;  // not amplitude faults
      }
    }
  }
}

void FaultInjector::overflow_gaps(std::uint64_t start_sample,
                                  std::uint64_t length,
                                  std::vector<radio::OverflowGap>& out) const {
  const auto& events = plan_.events();
  const std::uint64_t end_sample = start_sample + length;
  for (std::size_t k = first_candidate(events, start_sample, plan_.max_run());
       k < events.size() && events[k].at_sample < end_sample; ++k) {
    const FaultEvent& ev = events[k];
    if (ev.kind != FaultKind::kOverflowRun) continue;
    if (ev.at_sample + ev.length <= start_sample) continue;
    out.push_back(radio::OverflowGap{ev.at_sample, ev.length});
  }
}

void FaultInjector::applied_faults(std::uint64_t start_sample,
                                   std::uint64_t length,
                                   std::vector<radio::RxFaultView>& out) const {
  const auto& events = plan_.events();
  const std::uint64_t end_sample = start_sample + length;
  for (std::size_t k = first_candidate(events, start_sample, 0);
       k < events.size() && events[k].at_sample < end_sample; ++k) {
    const FaultEvent& ev = events[k];
    if (ev.at_sample < start_sample) continue;
    out.push_back(radio::RxFaultView{
        ev.at_sample, ev.length, static_cast<std::uint32_t>(ev.kind)});
  }
}

FaultInjector::WriteFault FaultInjector::on_write(fpga::Reg /*addr*/,
                                                  std::uint64_t /*now_ticks*/) {
  WriteFault out;
  const FaultPlanConfig& c = plan_.config();
  const std::uint64_t index = write_index_++;
  if (c.bus_drop_rate <= 0.0 && c.bus_stall_rate <= 0.0) return out;
  // One substream per write ordinal: the decision for write N is the same
  // whether writes are issued in one burst or across reconfigurations.
  dsp::Xoshiro256 rng(
      dsp::derive_seed(dsp::derive_seed(c.seed, kBusStreamTag), index));
  if (rng.uniform() < c.bus_drop_rate) {
    out.dropped = true;
    ++injected_[static_cast<std::size_t>(FaultKind::kBusDrop)];
  } else if (rng.uniform() < c.bus_stall_rate) {
    out.extra_latency_cycles = fault_shape(FaultKind::kBusStall).run;
    ++injected_[static_cast<std::size_t>(FaultKind::kBusStall)];
  }
  return out;
}

std::uint64_t FaultInjector::injected_total() const noexcept {
  return std::accumulate(injected_.begin(), injected_.end(),
                         std::uint64_t{0});
}

}  // namespace rjf::fault
