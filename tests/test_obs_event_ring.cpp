// EventRing transport tests (DESIGN.md "Observability"): FIFO delivery
// across index wraparound, drop accounting when the ring fills, the
// deterministic 1-in-N strobe decimator with its interesting-strobe bypass,
// a strobe snapshot's push/drain round trip, a threaded producer/consumer
// stress run (the suite
// name contains "EventRing" so the TSan CI job's test filter picks it up),
// and the drain-mode equivalence contract: a run consumed by a
// RingDrainThread exports a byte-identical Chrome trace to the same run
// drained inline at block boundaries.
#include "obs/event_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/reactive_jammer.h"
#include "core/presets.h"
#include "dsp/noise.h"
#include "obs/telemetry.h"

namespace rjf::obs {
namespace {

// Sink that records every dispatched event/strobe in arrival order.
struct CollectingSink final : FabricSink {
  struct Event {
    EventKind kind;
    std::uint64_t vita;
    std::uint64_t value;
  };
  std::vector<Event> events;
  std::vector<FabricSignals> strobes;

  void on_event(EventKind kind, std::uint64_t vita_ticks,
                std::uint64_t value) override {
    events.push_back({kind, vita_ticks, value});
  }
  void on_strobe(const FabricSignals& signals) override {
    strobes.push_back(signals);
  }
};

RingConfig tiny_ring(std::size_t capacity) {
  RingConfig config;
  config.capacity = capacity;
  return config;
}

TEST(EventRing, FifoOrderAcrossWraparound) {
  EventRing ring(tiny_ring(16));
  CollectingSink sink;

  // Several fill/drain rounds push the head index far past the capacity,
  // so the slot arithmetic wraps repeatedly.
  std::uint64_t next_value = 0;
  std::vector<std::uint64_t> delivered;
  for (int round = 0; round < 10; ++round) {
    // 11 per round never fills the 16-slot ring.
    for (int k = 0; k < 11; ++k, ++next_value)
      ASSERT_TRUE(ring.push_event(EventKind::kJamTrigger, next_value,
                                  next_value))
          << "round " << round << " k " << k;
    EXPECT_EQ(ring.drain_into(sink), 11u);
  }

  ASSERT_EQ(sink.events.size(), 110u);
  for (std::size_t k = 0; k < sink.events.size(); ++k) {
    EXPECT_EQ(sink.events[k].value, k) << "out-of-order at " << k;
    EXPECT_EQ(sink.events[k].kind, EventKind::kJamTrigger);
  }
  EXPECT_EQ(ring.pushed(), 110u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.empty());
}

TEST(EventRing, FullRingDropsAreCountedAndPushResumesAfterDrain) {
  EventRing ring(tiny_ring(16));
  ASSERT_EQ(ring.capacity(), 16u);
  CollectingSink sink;

  for (std::uint64_t k = 0; k < 40; ++k) {
    const bool accepted = ring.push_event(EventKind::kEnergyRise, k, k);
    EXPECT_EQ(accepted, k < 16) << "k=" << k;
  }
  EXPECT_EQ(ring.pushed(), 16u);
  EXPECT_EQ(ring.dropped(), 24u);

  // The oldest records survive; the overflow was dropped at the producer.
  EXPECT_EQ(ring.drain_into(sink), 16u);
  ASSERT_EQ(sink.events.size(), 16u);
  for (std::uint64_t k = 0; k < 16; ++k) EXPECT_EQ(sink.events[k].value, k);

  // Draining freed every slot: pushes succeed again and drops stop rising.
  EXPECT_TRUE(ring.push_event(EventKind::kEnergyFall, 100, 100));
  EXPECT_EQ(ring.dropped(), 24u);
  EXPECT_EQ(ring.drain_into(sink), 1u);
  EXPECT_EQ(sink.events.back().value, 100u);
}

TEST(EventRing, StrobeSamplingIsDeterministicAndBypassKeepsPhase) {
  RingConfig config = tiny_ring(64);
  config.strobe_sample_period = 4;
  EventRing ring(config);

  // Boring strobes pass exactly once per period, starting with the first.
  std::vector<bool> pattern;
  for (int k = 0; k < 12; ++k) pattern.push_back(ring.strobe_gate(false));
  const std::vector<bool> expected = {true,  false, false, false,
                                      true,  false, false, false,
                                      true,  false, false, false};
  EXPECT_EQ(pattern, expected);
  EXPECT_EQ(ring.sampled_out(), 9u);

  // An interesting strobe in a suppressed phase passes WITHOUT resetting
  // the countdown: the next 1-in-N keeper is the same strobe index it
  // would have been anyway, so the decimation phase stays a pure function
  // of the strobe sequence.
  EXPECT_TRUE(ring.strobe_gate(true));    // index 12: keeper anyway
  EXPECT_TRUE(ring.strobe_gate(true));    // index 13: bypass
  EXPECT_FALSE(ring.strobe_gate(false));  // index 14: still suppressed
  EXPECT_FALSE(ring.strobe_gate(false));  // index 15
  EXPECT_TRUE(ring.strobe_gate(false));   // index 16: periodic keeper
  // Bypassed strobes are not "sampled out": only genuinely suppressed
  // idle strobes count.
  EXPECT_EQ(ring.sampled_out(), 11u);
}

TEST(EventRing, QuietStrobeGateMatchesStrobeGateLoop) {
  // Runs of n quiet strobes, gated in one step on one ring and one by one
  // on another: the passing offsets, the countdown they leave (seen by the
  // next run) and the sampled-out count must agree.
  for (const std::uint32_t period : {1u, 3u, 16u, 1000u}) {
    RingConfig config = tiny_ring(64);
    config.strobe_sample_period = period;
    EventRing bulk(config);
    EventRing one_by_one(config);
    for (const std::size_t n : {0, 1, 2, 5, 16, 17, 255, 256, 999, 1001, 3}) {
      std::vector<std::size_t> want;
      for (std::size_t k = 0; k < n; ++k)
        if (one_by_one.strobe_gate(false)) want.push_back(k);
      std::vector<std::size_t> got;
      for (std::size_t k = bulk.strobe_gate_quiet(n); k < n; k += period)
        got.push_back(k);
      ASSERT_EQ(got, want) << "period " << period << ", run of " << n;
      ASSERT_EQ(bulk.sampled_out(), one_by_one.sampled_out());
    }
    // An interesting strobe after the runs sees the same phase.
    EXPECT_EQ(bulk.strobe_gate(true), one_by_one.strobe_gate(true));
    EXPECT_EQ(bulk.strobe_gate(false), one_by_one.strobe_gate(false));
  }
}

TEST(EventRing, PushStrobesKeepsOrderAndCountsDrops) {
  EventRing ring(tiny_ring(16));
  EXPECT_TRUE(ring.push_event(EventKind::kJamStart, 1, 1));
  std::vector<FabricSignals> batch(20);
  for (std::size_t k = 0; k < batch.size(); ++k) batch[k].vita_ticks = 10 + k;
  // 15 slots are left: the batch's first 15 land in order, 5 drop.
  EXPECT_EQ(ring.push_strobes(batch), 15u);
  EXPECT_EQ(ring.pushed(), 16u);
  EXPECT_EQ(ring.dropped(), 5u);
  CollectingSink sink;
  EXPECT_EQ(ring.drain_into(sink), 16u);
  ASSERT_EQ(sink.strobes.size(), 15u);
  for (std::size_t k = 0; k < sink.strobes.size(); ++k)
    EXPECT_EQ(sink.strobes[k].vita_ticks, 10 + k);
  // Drained, the ring takes a whole batch again.
  EXPECT_EQ(ring.push_strobes(std::span(batch).first(16)), 16u);
  EXPECT_EQ(ring.dropped(), 5u);
}

// The level gates are compile-time (tests/compile_time/obs_ceiling.cpp
// pins them at every ceiling); the default build emits everything.
TEST(EventRing, StrobeSnapshotRoundTripsThroughDrain) {
  EventRing probes(tiny_ring(64));
  EXPECT_TRUE(probes.push_event(EventKind::kJamStart, 1, 1));

  FabricSignals signals;
  signals.vita_ticks = 7;
  signals.xcorr_metric = 9;
  signals.energy_sum = 11;
  ASSERT_TRUE(probes.strobe_gate(true));
  EXPECT_TRUE(probes.push_strobe(signals));
  CollectingSink sink;
  EXPECT_EQ(probes.drain_into(sink), 2u);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kJamStart);
  ASSERT_EQ(sink.strobes.size(), 1u);
  EXPECT_EQ(sink.strobes[0].vita_ticks, 7u);
  EXPECT_EQ(sink.strobes[0].xcorr_metric, 9u);
  EXPECT_EQ(sink.strobes[0].energy_sum, 11u);
}

// SPSC stress: one producer pushing flat out, one consumer draining
// concurrently. Run under TSan this exercises the acquire/release pairing
// on head_/tail_; in any build it checks that no record is reordered,
// duplicated or silently lost (accepted + dropped == offered).
TEST(EventRing, ThreadedProducerConsumerStress) {
  EventRing ring(tiny_ring(1024));
  CollectingSink sink;
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (ring.drain_into(sink) == 0) std::this_thread::yield();
    }
    (void)ring.drain_into(sink);  // final sweep after the producer stops
  });

  constexpr std::uint64_t kOffered = 200000;
  std::uint64_t accepted = 0;
  for (std::uint64_t k = 0; k < kOffered; ++k)
    if (ring.push_event(EventKind::kXcorrTrigger, k, k)) ++accepted;
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(accepted, ring.pushed());
  EXPECT_EQ(kOffered - accepted, ring.dropped());
  ASSERT_EQ(sink.events.size(), accepted);
  // FIFO with drops = the delivered values are a strictly increasing
  // subsequence of the offered sequence.
  std::uint64_t prev = 0;
  bool have_prev = false;
  for (const auto& e : sink.events) {
    if (have_prev) {
      EXPECT_GT(e.value, prev);
    }
    prev = e.value;
    have_prev = true;
  }
  EXPECT_TRUE(ring.empty());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Run one deterministic jam scenario through a Telemetry bundle and export
// its Chrome trace. `drain_thread` selects the consumer mode.
std::string trace_for_drain_mode(bool drain_thread, const std::string& path) {
  TelemetryConfig config;
  config.probe_enabled = false;
  config.drain_thread = drain_thread;
  config.drain_poll_us = 50;
  Telemetry telemetry(config);

  core::ReactiveJammer jammer(core::energy_reactive_preset(1e-4, 10.0));
  jammer.attach_trace(&telemetry);

  // A noise-floor lead-in, a strong burst (energy rise -> jam), silence
  // (fall), then a second burst: several spans and detector edges.
  dsp::cvec rx(16384, dsp::cfloat{});
  dsp::NoiseSource noise(1e-9, 1234);
  noise.add_to(rx);
  for (std::size_t k = 2048; k < 4096; ++k) rx[k] += dsp::cfloat{0.3f, -0.2f};
  for (std::size_t k = 9000; k < 11000; ++k) rx[k] += dsp::cfloat{-0.25f, 0.25f};
  const auto result = jammer.observe(rx);
  jammer.attach_trace(nullptr);
  EXPECT_GT(result.jam_triggers, 0u);

  EXPECT_TRUE(telemetry.write_chrome_trace(path));  // flushes first
  return read_file(path);
}

TEST(EventRing, DrainThreadTraceIsByteIdenticalToInlineDrain) {
  const std::string inline_path =
      ::testing::TempDir() + "rjf_ring_inline_trace.json";
  const std::string threaded_path =
      ::testing::TempDir() + "rjf_ring_threaded_trace.json";

  const std::string inline_trace = trace_for_drain_mode(false, inline_path);
  const std::string threaded_trace = trace_for_drain_mode(true, threaded_path);

  ASSERT_FALSE(inline_trace.empty());
  EXPECT_EQ(inline_trace, threaded_trace);
  std::remove(inline_path.c_str());
  std::remove(threaded_path.c_str());
}

}  // namespace
}  // namespace rjf::obs
