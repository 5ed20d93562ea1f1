// Event-ring consumer for the fast-path differentials: keeps every record
// a ring drains, in order, so a block-path run can be compared record by
// record against a per-tick reference run.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/event_ring.h"

namespace rjf::test {

struct RingRecord {
  bool strobe = false;
  obs::EventKind kind = obs::EventKind::kXcorrTrigger;
  obs::FabricSignals signals;  // strobe records
  std::uint64_t vita_ticks = 0;
  std::uint64_t value = 0;
};

class RecordingSink final : public obs::FabricSink {
 public:
  void on_event(obs::EventKind kind, std::uint64_t vita_ticks,
                std::uint64_t value) override {
    // The wall-clock payload is the one nondeterministic field.
    if (kind == obs::EventKind::kStreamWall) value = 0;
    seen.push_back(RingRecord{false, kind, {}, vita_ticks, value});
  }
  void on_strobe(const obs::FabricSignals& s) override {
    seen.push_back(
        RingRecord{true, obs::EventKind::kXcorrTrigger, s, s.vita_ticks, 0});
  }
  std::vector<RingRecord> seen;
};

inline void expect_same_records(const std::vector<RingRecord>& got,
                                const std::vector<RingRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    const RingRecord& a = got[k];
    const RingRecord& b = want[k];
    ASSERT_EQ(a.strobe, b.strobe) << "record " << k;
    ASSERT_EQ(a.vita_ticks, b.vita_ticks) << "record " << k;
    if (!a.strobe) {
      ASSERT_EQ(a.kind, b.kind) << "record " << k;
      ASSERT_EQ(a.value, b.value) << "record " << k;
      continue;
    }
    const obs::FabricSignals& s = a.signals;
    const obs::FabricSignals& t = b.signals;
    ASSERT_EQ(s.rx, t.rx) << "record " << k;
    ASSERT_EQ(s.xcorr_metric, t.xcorr_metric) << "record " << k;
    ASSERT_EQ(s.energy_sum, t.energy_sum) << "record " << k;
    ASSERT_EQ(s.fsm_stage, t.fsm_stage) << "record " << k;
    ASSERT_EQ(s.xcorr_trigger, t.xcorr_trigger) << "record " << k;
    ASSERT_EQ(s.energy_high, t.energy_high) << "record " << k;
    ASSERT_EQ(s.energy_low, t.energy_low) << "record " << k;
    ASSERT_EQ(s.jam_trigger, t.jam_trigger) << "record " << k;
    ASSERT_EQ(s.rf_active, t.rf_active) << "record " << k;
    ASSERT_EQ(s.tx, t.tx) << "record " << k;
  }
}

}  // namespace rjf::test
