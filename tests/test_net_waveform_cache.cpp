// WaveformCache contract: clear() drops entries but preserves the
// hit/miss/eviction counters; reset_counters() zeroes the counters but
// preserves the entries. Pre-split, clear() did both at once, so any rig
// that dropped stale entries mid-run also silently erased its cumulative
// cache statistics and hits()/misses() under-reported.
//
// The cache is process-wide, so each test snapshots and restores the
// enabled flag and leaves the store cleared; the tests read counter DELTAS
// from their own operations, never absolute values, so they are immune to
// other tests (or each other) having used the cache first.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/waveform_cache.h"

namespace rjf::net {
namespace {

std::vector<std::uint8_t> psdu_of(std::uint8_t fill) {
  return std::vector<std::uint8_t>(64, fill);
}

TEST(WaveformCache, ClearDropsEntriesButKeepsCounters) {
  auto& cache = WaveformCache::instance();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(true);
  cache.clear();

  const auto psdu = psdu_of(0x11);
  const std::uint64_t misses0 = cache.misses();
  const std::uint64_t hits0 = cache.hits();
  const auto a =
      cache.get_or_build(psdu, phy80211::Rate::kMbps54, 0x5D, 1e-3, 0);
  const auto b =
      cache.get_or_build(psdu, phy80211::Rate::kMbps54, 0x5D, 1e-3, 0);
  ASSERT_EQ(a.get(), b.get());  // second call was a hit
  EXPECT_EQ(cache.misses() - misses0, 1u);
  EXPECT_EQ(cache.hits() - hits0, 1u);
  ASSERT_GE(cache.size(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u) << "clear() must drop the entries";
  EXPECT_EQ(cache.misses() - misses0, 1u)
      << "clear() must not reset the miss counter";
  EXPECT_EQ(cache.hits() - hits0, 1u)
      << "clear() must not reset the hit counter";

  // The dropped entry rebuilds on next use (a miss, not a hit).
  const auto c =
      cache.get_or_build(psdu, phy80211::Rate::kMbps54, 0x5D, 1e-3, 0);
  EXPECT_EQ(cache.misses() - misses0, 2u);
  EXPECT_EQ(c->w20.size(), a->w20.size());

  cache.clear();
  cache.set_enabled(was_enabled);
}

TEST(WaveformCache, ResetCountersZeroesCountersButKeepsEntries) {
  auto& cache = WaveformCache::instance();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(true);
  cache.clear();

  const auto psdu = psdu_of(0x22);
  const auto a =
      cache.get_or_build(psdu, phy80211::Rate::kMbps24, 0x5D, 1e-3, 0);
  const std::size_t entries = cache.size();
  ASSERT_GE(entries, 1u);

  cache.reset_counters();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), entries)
      << "reset_counters() must not drop the entries";

  // The surviving entry still serves: the very next lookup is a pure hit.
  const auto b =
      cache.get_or_build(psdu, phy80211::Rate::kMbps24, 0x5D, 1e-3, 0);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);

  cache.clear();
  cache.set_enabled(was_enabled);
}

}  // namespace
}  // namespace rjf::net
