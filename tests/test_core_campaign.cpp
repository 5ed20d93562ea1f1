// Campaign runner: grid indexing, shard-store durability (torn tails,
// corrupt records and headers, unreadable files, identity mismatch),
// progress scopes, the no-store mode, single-trial replay, and the headline
// guarantee — a campaign killed at any shard boundary and resumed, at any
// thread count and any shard granularity, merges to a report
// byte-identical to an uninterrupted single-process run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/templates.h"
#include "fault/fault_experiment.h"
#include "fpga/dsp_core.h"
#include "obs/telemetry.h"
#include "phy80211/preamble.h"

namespace rjf::core {
namespace {

std::string temp_store(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Short frames (16-byte PSDU at 54 Mbps ≈ 700 fabric samples) and short
/// noise flanks keep even the 10^5-trial acceptance grid tractable.
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.jammer.detection = DetectionMode::kCrossCorrelator;
  spec.jammer.xcorr_template = wifi_long_preamble_template();
  spec.jammer.xcorr_threshold = 9000;
  spec.tap = DetectorTap::kXcorr;
  spec.psdu_bytes = 16;
  spec.base.lead_in = 64;
  spec.base.tail = 64;
  spec.seed = 0xCA4;
  spec.grid.snrs_db = {0.0, 6.0};
  spec.grid.trials_per_point = 48;
  spec.shard_trials = 16;
  spec.threads = 1;
  return spec;
}

TEST(CampaignGrid, CoordsAndPointOfRoundTrip) {
  CampaignGrid grid;
  grid.rate_indices = {0, 7};  // wifi_ofdm: 6 and 54 Mb/s
  grid.fault_scales = {0.0, 1.0, 2.0};
  grid.snrs_db = {-4.0, 0.0, 4.0, 8.0};
  ASSERT_EQ(grid.num_points(), 24u);
  for (std::size_t p = 0; p < grid.num_points(); ++p) {
    const auto c = grid.coords(p);
    EXPECT_LT(c.rate_index, grid.rate_indices.size());
    EXPECT_LT(c.scale_index, grid.fault_scales.size());
    EXPECT_LT(c.snr_index, grid.snrs_db.size());
    EXPECT_EQ(grid.point_of(c), p);
  }
  // Rate-major, SNR fastest: point 0..3 walk the SNR axis of (rate 0,
  // scale 0), point 4 starts (rate 0, scale 1).
  EXPECT_EQ(grid.coords(3).snr_index, 3u);
  EXPECT_EQ(grid.coords(4).scale_index, 1u);
  EXPECT_EQ(grid.coords(12).rate_index, 1u);
  EXPECT_EQ(grid.total_trials(), 24u * 1000u);
}

TEST(ShardStore, RecordsRoundTripThroughCreateAppendLoad) {
  const std::string path = temp_store("rjf_store_roundtrip.rjfc");
  ShardStoreHeader header;
  header.fingerprint = 0xF00D;
  header.campaign_seed = 7;
  header.num_points = 3;
  header.trials_per_point = 100;
  header.shard_trials = 25;
  header.num_shards = 12;
  {
    auto store = ShardStore::create(path, header);
    ASSERT_NE(store, nullptr);
    for (std::uint64_t i = 0; i < 5; ++i) {
      ShardRecord r;
      r.point = i % 3;
      r.shard_index = i;
      r.first_trial = 25 * (i / 3);
      r.trials = 25;
      r.frames_detected = 20 + i;
      r.total_detections = 40 + i;
      r.faults_injected = i;
      r.trigger_latency_sum = 1000 * i;
      r.trigger_latency_count = 20 + i;
      ASSERT_TRUE(store->append(r));
    }
  }
  const auto loaded = ShardStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.fingerprint, 0xF00Du);
  EXPECT_EQ(loaded->header.campaign_seed, 7u);
  EXPECT_EQ(loaded->header.num_points, 3u);
  EXPECT_EQ(loaded->header.trials_per_point, 100u);
  EXPECT_EQ(loaded->header.shard_trials, 25u);
  EXPECT_EQ(loaded->header.num_shards, 12u);
  EXPECT_EQ(loaded->dropped_bytes, 0u);
  ASSERT_EQ(loaded->records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const ShardRecord& r = loaded->records[i];
    EXPECT_EQ(r.shard_index, i);
    EXPECT_EQ(r.frames_detected, 20 + i);
    EXPECT_EQ(r.total_detections, 40 + i);
    EXPECT_EQ(r.checksum, r.compute_checksum());
  }
  std::remove(path.c_str());
}

TEST(ShardStore, TornTrailingRecordIsDroppedNotFatal) {
  const std::string path = temp_store("rjf_store_torn.rjfc");
  ShardStoreHeader header;
  header.num_shards = 4;
  {
    auto store = ShardStore::create(path, header);
    ASSERT_NE(store, nullptr);
    ShardRecord a;
    a.shard_index = 0;
    a.trials = 10;
    ShardRecord b;
    b.shard_index = 1;
    b.trials = 10;
    ASSERT_TRUE(store->append(a));
    ASSERT_TRUE(store->append(b));
  }
  // Simulate a SIGKILL mid-append: chop the second record in half.
  const std::uintmax_t full = std::filesystem::file_size(path);
  const std::uintmax_t record_bytes =
      ShardRecord::kWords * sizeof(std::uint64_t);
  std::filesystem::resize_file(path, full - record_bytes / 2);

  const auto loaded = ShardStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->records[0].shard_index, 0u);
  EXPECT_EQ(loaded->dropped_bytes, record_bytes / 2);
  std::remove(path.c_str());
}

TEST(ShardStore, CorruptRecordInvalidatesItselfAndEverythingAfter) {
  const std::string path = temp_store("rjf_store_corrupt.rjfc");
  ShardStoreHeader header;
  header.num_shards = 4;
  {
    auto store = ShardStore::create(path, header);
    ASSERT_NE(store, nullptr);
    for (std::uint64_t i = 0; i < 3; ++i) {
      ShardRecord r;
      r.shard_index = i;
      r.trials = 10;
      ASSERT_TRUE(store->append(r));
    }
  }
  // Flip one byte inside the SECOND record's payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff header_bytes = 8 * sizeof(std::uint64_t);
    const std::streamoff record_bytes =
        ShardRecord::kWords * sizeof(std::uint64_t);
    f.seekp(header_bytes + record_bytes + 3 * sizeof(std::uint64_t));
    const char junk = 0x5A;
    f.write(&junk, 1);
  }
  const auto loaded = ShardStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  // Only the record before the corruption survives; the checksum rejects
  // the damaged one and nothing after it is trusted.
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->records[0].shard_index, 0u);
  EXPECT_GT(loaded->dropped_bytes, 0u);
  std::remove(path.c_str());
}

TEST(Campaign, MismatchedStoreIsRejectedNotMerged) {
  const std::string path = temp_store("rjf_campaign_mismatch.rjfc");
  CampaignSpec spec = small_spec();
  spec.max_shards_this_run = 1;
  (void)run_campaign(spec, path);

  CampaignSpec other = small_spec();
  other.seed = spec.seed + 1;  // different campaign identity
  EXPECT_THROW((void)run_campaign(other, path), std::runtime_error);

  other = small_spec();
  other.grid.snrs_db.push_back(12.0);  // different grid
  EXPECT_THROW((void)run_campaign(other, path), std::runtime_error);

  other = small_spec();
  other.jammer.xcorr_threshold = 12345;  // retuned detector
  EXPECT_THROW((void)run_campaign(other, path), std::runtime_error);
  std::remove(path.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Golden value of small_spec()'s fingerprint. Any change to what a trial
// synthesises must bump kTrialSynthesisVersion, which moves this value on
// purpose; a change that moves it by accident fails here first.
constexpr std::uint64_t kSmallSpecFingerprint = 0xf4877ab2c08deb54ull;
// The same spec's fingerprint under trial synthesis version 2 (float noise
// and CFO kernels, continuous-phase resampler): what every store written
// before the exact rational resampler phases carries.
constexpr std::uint64_t kSmallSpecFingerprintV2 = 0xbad60500370a11a5ull;
// The same spec's fingerprint before the version word existed (libm noise
// and CFO phasor): what every store written by that generator carries.
constexpr std::uint64_t kSmallSpecFingerprintLibmSynthesis =
    0x773fb0df8e4a3437ull;

TEST(Campaign, FingerprintIsPinnedToTrialSynthesisVersion) {
  static_assert(kTrialSynthesisVersion == 3,
                "re-pin kSmallSpecFingerprint with the new version");
  EXPECT_EQ(small_spec().fingerprint(), kSmallSpecFingerprint);
}

TEST(Campaign, StoreFromOlderTrialSynthesisIsRejected) {
  // A partial store exactly as an older generator left it: same seed, grid
  // and shard cut, one completed shard. Resuming must not merge its counts
  // with trials drawn from the new noise and CFO streams or frame variants,
  // and must leave the store byte-identical.
  const std::string path = temp_store("rjf_campaign_old_synthesis.rjfc");
  const CampaignSpec spec = small_spec();
  const auto write_partial_store = [&](std::uint64_t fingerprint) {
    ShardStoreHeader header;
    header.fingerprint = fingerprint;
    header.campaign_seed = spec.seed;
    header.num_points = spec.grid.num_points();
    header.trials_per_point = spec.grid.trials_per_point;
    header.shard_trials = spec.shard_trials;
    header.num_shards = header.num_points *
                        (spec.grid.trials_per_point / spec.shard_trials);
    auto store = ShardStore::create(path, header);
    ASSERT_NE(store, nullptr);
    ShardRecord record;
    record.trials = spec.shard_trials;
    record.frames_detected = 7;
    ASSERT_TRUE(store->append(record));
  };
  for (const std::uint64_t older :
       {kSmallSpecFingerprintLibmSynthesis, kSmallSpecFingerprintV2}) {
    write_partial_store(older);
    const std::string written = file_bytes(path);
    EXPECT_THROW((void)run_campaign(spec, path), std::runtime_error) << older;
    EXPECT_EQ(file_bytes(path), written) << older;
  }
  // Control: the same store stamped with the current fingerprint resumes.
  write_partial_store(spec.fingerprint());
  EXPECT_NO_THROW((void)run_campaign(spec, path));
  std::remove(path.c_str());
}

/// Overwrite 64-bit word `word` of the store file (header words 0..7, then
/// records of ShardRecord::kWords each).
void poke_word(const std::string& path, std::size_t word, std::uint64_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(word * sizeof(std::uint64_t)));
  f.write(reinterpret_cast<const char*>(&value), sizeof value);
}

// Regression: resume trusted the header's shard_trials as is. A header
// whose shard_trials read 20 instead of 16 cut a schedule whose shard 0
// covered trials 0..19 while the stored record covered 0..15, so the
// resumed report claimed complete=1 with 40 of point 0's 48 trials
// (P_det 1.000 where the uninterrupted run reads 0.979). Both a
// granularity and a shard count the recomputed schedule disagrees with
// must reject the store, not merge it — and so must every identity word
// (fingerprint, campaign seed, point count, trials per point). A rejected
// store is left byte-identical.
TEST(Campaign, CorruptHeaderIsRejectedNotMerged) {
  const std::string path = temp_store("rjf_campaign_bad_header.rjfc");
  CampaignSpec spec = small_spec();
  spec.max_shards_this_run = 2;
  (void)run_campaign(spec, path);
  spec.max_shards_this_run = 0;

  const auto loaded = ShardStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  const ShardStoreHeader::Words original = loaded->header.to_words();
  const auto expect_rejected_untouched = [&](std::size_t word,
                                             std::uint64_t value,
                                             const char* what) {
    poke_word(path, word, value);
    const std::string poked = file_bytes(path);
    EXPECT_THROW((void)run_campaign(spec, path), std::runtime_error) << what;
    EXPECT_EQ(file_bytes(path), poked) << what;
    poke_word(path, word, original[word]);
  };
  expect_rejected_untouched(2, original[2] ^ 1, "fingerprint");
  expect_rejected_untouched(3, original[3] + 1, "campaign_seed");
  expect_rejected_untouched(4, 3, "num_points 2 -> 3");
  expect_rejected_untouched(5, 47, "trials_per_point 48 -> 47");
  expect_rejected_untouched(6, 20, "shard_trials 16 -> 20 (still 6 shards)");
  expect_rejected_untouched(7, 7, "num_shards 6 -> 7");

  // Restored: resumes to the uninterrupted result.
  const std::string ref_path = temp_store("rjf_campaign_bad_header_ref.rjfc");
  EXPECT_EQ(run_campaign(spec, path).to_csv(),
            run_campaign(spec, ref_path).to_csv());
  std::remove(ref_path.c_str());
  std::remove(path.c_str());
}

// Regression: a file at the store path that ShardStore::load could not read
// (wrong magic, another version, a short header, not a store at all) was
// taken for "no store" and truncated by ShardStore::create. Only a missing
// path may create a store; anything else is rejected and left untouched.
TEST(Campaign, UnreadableStoreIsRejectedAndLeftByteIdentical) {
  const std::string path = temp_store("rjf_campaign_unreadable.rjfc");
  CampaignSpec spec = small_spec();
  spec.max_shards_this_run = 1;
  (void)run_campaign(spec, path);
  const std::string valid = file_bytes(path);
  ASSERT_EQ(valid.size(), (ShardStoreHeader::kWords + ShardRecord::kWords) *
                              sizeof(std::uint64_t));

  const auto expect_rejected_untouched = [&](const std::string& bytes,
                                             const char* what) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_FALSE(ShardStore::load(path).has_value()) << what;
    EXPECT_THROW((void)run_campaign(spec, path), std::runtime_error) << what;
    EXPECT_EQ(file_bytes(path), bytes) << what;
  };
  std::string wrong_magic = valid;
  wrong_magic[0] ^= 0x01;
  expect_rejected_untouched(wrong_magic, "wrong magic");
  std::string wrong_version = valid;
  wrong_version[sizeof(std::uint64_t)] ^= 0x02;  // kVersion 1 -> 3
  expect_rejected_untouched(wrong_version, "wrong version");
  expect_rejected_untouched(valid.substr(0, 7 * sizeof(std::uint64_t) + 3),
                            "header shorter than 8 words");
  expect_rejected_untouched("", "empty file");
  expect_rejected_untouched("rate_mbps,fault_scale,snr_db\n6,0,0\n",
                            "a CSV given as --store");

  // Control: the valid bytes restored resume as before.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << valid;
  EXPECT_NO_THROW((void)run_campaign(spec, path));
  std::remove(path.c_str());
}

// Store words are native-endian (campaign.h): a store written on a host of
// the other byte order reads as every word byte-swapped. Its magic word
// then fails the check, so the store is rejected as unreadable and left
// byte-identical, never taken for a store to resume or truncate.
TEST(Campaign, ByteSwappedStoreIsRejectedAndLeftByteIdentical) {
  const std::string path = temp_store("rjf_campaign_byteswapped.rjfc");
  CampaignSpec spec = small_spec();
  spec.max_shards_this_run = 2;
  (void)run_campaign(spec, path);
  std::string swapped = file_bytes(path);
  ASSERT_EQ(swapped.size() % sizeof(std::uint64_t), 0u);
  ASSERT_GT(swapped.size(), ShardStoreHeader::kWords * sizeof(std::uint64_t));
  for (std::size_t w = 0; w < swapped.size(); w += sizeof(std::uint64_t))
    std::reverse(swapped.begin() + static_cast<std::ptrdiff_t>(w),
                 swapped.begin() +
                     static_cast<std::ptrdiff_t>(w + sizeof(std::uint64_t)));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << swapped;

  EXPECT_FALSE(ShardStore::load(path).has_value());
  spec.max_shards_this_run = 0;
  EXPECT_THROW((void)run_campaign(spec, path), std::runtime_error);
  EXPECT_EQ(file_bytes(path), swapped);
  std::remove(path.c_str());
}

// Regression: a record passes its checksum but covers trials its schedule
// entry does not (first_trial off by one). Pre-fix it merged silently.
TEST(Campaign, RecordOutsideItsScheduleEntryIsRejected) {
  const std::string path = temp_store("rjf_campaign_bad_record.rjfc");
  const CampaignSpec spec = small_spec();
  const auto write_store = [&](std::uint64_t first_trial) {
    ShardStoreHeader header;
    header.fingerprint = spec.fingerprint();
    header.campaign_seed = spec.seed;
    header.num_points = spec.grid.num_points();
    header.trials_per_point = spec.grid.trials_per_point;
    header.shard_trials = spec.shard_trials;
    header.num_shards = 6;
    auto store = ShardStore::create(path, header);
    ASSERT_NE(store, nullptr);
    ShardRecord record;
    record.shard_index = 1;  // point 0, trials 16..31
    record.first_trial = first_trial;
    record.trials = spec.shard_trials;
    ASSERT_TRUE(store->append(record));
  };
  write_store(17);
  EXPECT_THROW((void)run_campaign(spec, path), std::runtime_error);
  write_store(16);  // control: the schedule's own range resumes
  EXPECT_NO_THROW((void)run_campaign(spec, path));
  std::remove(path.c_str());
}

// Progress after a resume counts the whole campaign in both pairs: with 4
// of 8 16-trial shards durable, the first report of the resumed run reads
// shards 5/8 and trials 80/128. Pre-fix the trial pair counted only this
// run (16/64) while the shard pair counted the campaign.
TEST(Campaign, ResumedProgressCountsTheWholeCampaign) {
  const std::string path = temp_store("rjf_campaign_progress.rjfc");
  CampaignSpec spec = small_spec();
  spec.grid.trials_per_point = 64;  // 2 points x 4 shards of 16
  spec.max_shards_this_run = 4;
  (void)run_campaign(spec, path);

  spec.max_shards_this_run = 0;
  spec.progress_every_shards = 1;
  std::vector<SweepProgress> progress;
  spec.progress = [&](const SweepProgress& p) { progress.push_back(p); };
  const CampaignReport resumed = run_campaign(spec, path);
  EXPECT_TRUE(resumed.complete);
  ASSERT_EQ(progress.size(), 4u);
  EXPECT_EQ(progress[0].shards_done, 5u);
  EXPECT_EQ(progress[0].shards_total, 8u);
  EXPECT_EQ(progress[0].trials_done, 80u);
  EXPECT_EQ(progress[0].trials_total, 128u);
  EXPECT_EQ(progress.back().shards_done, 8u);
  EXPECT_EQ(progress.back().trials_done, 128u);
  std::remove(path.c_str());
}

// An empty store path runs with no store: the report folds in memory, is
// byte-identical to the file-backed run, and nothing lands on disk.
TEST(Campaign, NoStoreRunMatchesFileBackedRunAndWritesNothing) {
  const CampaignSpec spec = small_spec();
  const std::string path = temp_store("rjf_campaign_filed.rjfc");
  const CampaignReport filed = run_campaign(spec, path);
  std::remove(path.c_str());

  // Run from an empty directory, so any file the run created shows up.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rjf_campaign_nostore";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  CampaignReport in_memory;
  try {
    in_memory = run_campaign(spec, "");
  } catch (...) {
    std::filesystem::current_path(cwd);
    throw;
  }
  std::filesystem::current_path(cwd);

  EXPECT_TRUE(in_memory.complete);
  EXPECT_EQ(in_memory.to_csv(), filed.to_csv());
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);

  // A batch window without a store could never resume.
  CampaignSpec windowed = spec;
  windowed.max_shards_this_run = 1;
  EXPECT_THROW((void)run_campaign(windowed, ""), std::invalid_argument);
}

// The headline guarantee. One uninterrupted single-thread run is the
// reference; each variant runs a window of shards (the deterministic kill
// switch), "dies", and resumes with a DIFFERENT thread count — the merged
// CSV must match the reference byte for byte. Shard granularity varies
// per variant too, so the split itself is proven irrelevant.
TEST(Campaign, KilledAndResumedRunsAreByteIdenticalToUninterrupted) {
  CampaignSpec reference_spec = small_spec();
  const std::string ref_path = temp_store("rjf_campaign_ref.rjfc");
  const CampaignReport reference = run_campaign(reference_spec, ref_path);
  EXPECT_TRUE(reference.complete);
  EXPECT_EQ(reference.trials_replayed, 0u);
  const std::string golden = reference.to_csv();
  std::remove(ref_path.c_str());

  struct Variant {
    unsigned threads_a, threads_b;
    std::size_t shard_trials;
    std::size_t kill_after;
  };
  for (const auto [threads_a, threads_b, shard_trials, kill_after] :
       {Variant{1, 2, 16, 3}, Variant{2, 4, 7, 5}, Variant{4, 1, 32, 1}}) {
    const std::string path = temp_store("rjf_campaign_resume.rjfc");
    CampaignSpec spec = small_spec();
    spec.shard_trials = shard_trials;

    spec.threads = threads_a;
    spec.max_shards_this_run = kill_after;
    const CampaignReport partial = run_campaign(spec, path);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.shards_run, kill_after);

    spec.threads = threads_b;
    spec.max_shards_this_run = 0;
    const CampaignReport resumed = run_campaign(spec, path);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.shards_already_complete, kill_after);
    EXPECT_EQ(resumed.trials_replayed, 0u)
        << "resume re-ran shards that were already durable";
    // Resume runs exactly the outstanding work, nothing twice.
    EXPECT_EQ(resumed.shards_run, resumed.shards_total - kill_after);
    EXPECT_EQ(resumed.trials_run,
              spec.grid.num_points() * spec.grid.trials_per_point -
                  partial.trials_run);
    EXPECT_EQ(resumed.to_csv(), golden)
        << "shard=" << shard_trials << " threads=" << threads_a << "->"
        << threads_b;
    std::remove(path.c_str());
  }
}

// Resume must not pay point-preparation costs for finished points: with one
// shard per point, a run that completed point 0 leaves exactly point 1's
// plan to build on resume.
TEST(Campaign, ResumePreparesOnlyOutstandingPoints) {
  const std::string path = temp_store("rjf_campaign_lazy.rjfc");
  CampaignSpec spec = small_spec();
  spec.shard_trials = spec.grid.trials_per_point;  // 1 shard per point
  spec.max_shards_this_run = 1;

  const CampaignReport first = run_campaign(spec, path);
  EXPECT_EQ(first.plans_built, 1u);
  EXPECT_EQ(first.shards_run, 1u);
  EXPECT_EQ(first.points[0].trials_done, spec.grid.trials_per_point);
  EXPECT_EQ(first.points[1].trials_done, 0u);

  spec.max_shards_this_run = 0;
  const CampaignReport second = run_campaign(spec, path);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.plans_built, 1u)
      << "resume rebuilt plans for already-completed points";
  EXPECT_EQ(second.points[0].trials_done, spec.grid.trials_per_point);
  EXPECT_EQ(second.points[1].trials_done, spec.grid.trials_per_point);
  std::remove(path.c_str());
}

// Fault axis: the scale-0.0 row of a hooked campaign must be byte-for-byte
// the row a hookless campaign produces (zero-fault inertness), while a
// heavy scale visibly injects.
TEST(Campaign, FaultAxisZeroScaleRowIsInertAndHeavyScaleInjects) {
  CampaignSpec clean = small_spec();
  clean.grid.snrs_db = {3.0};
  const std::string clean_path = temp_store("rjf_campaign_clean.rjfc");
  const CampaignReport clean_report = run_campaign(clean, clean_path);
  std::remove(clean_path.c_str());

  CampaignSpec hooked = small_spec();
  hooked.grid.snrs_db = {3.0};
  hooked.grid.fault_scales = {0.0, 8.0};
  fault::FaultPlanConfig fault_base;
  fault_base.seed = 0xFA;
  fault_base.clip_rate = 2e-4;
  fault_base.drop_rate = 2e-4;
  fault_base.overflow_rate = 2e-4;
  hooked.make_trial_hook = fault::campaign_fault_hook_factory(fault_base);
  const std::string hooked_path = temp_store("rjf_campaign_fault.rjfc");
  const CampaignReport hooked_report = run_campaign(hooked, hooked_path);
  std::remove(hooked_path.c_str());

  ASSERT_EQ(hooked_report.points.size(), 2u);
  const CampaignPointResult& zero = hooked_report.points[0];
  const CampaignPointResult& heavy = hooked_report.points[1];
  EXPECT_EQ(zero.faults_injected, 0u);
  EXPECT_EQ(zero.result.frames_detected,
            clean_report.points[0].result.frames_detected);
  EXPECT_EQ(zero.result.total_detections,
            clean_report.points[0].result.total_detections);
  EXPECT_GT(heavy.faults_injected, 0u);
  EXPECT_GT(heavy.overflow_gaps + heavy.samples_lost, 0u);
}

// Acceptance grid: >= 10^5 trials, killed mid-run, resumed, byte-compared
// to the uninterrupted run. Deliberately outside the "Campaign." prefix the
// sanitizer jobs filter on — at TSan's slowdown this would dominate the CI
// wall clock without adding coverage beyond the small variants above.
TEST(BigGridResume, HundredThousandTrialKillResumeByteIdentical) {
  CampaignSpec spec = small_spec();
  spec.grid.snrs_db = {-2.0, 2.0};
  spec.grid.trials_per_point = 50000;  // 10^5 total
  spec.shard_trials = 0;               // adaptive granularity
  spec.threads = 2;

  const std::string full_path = temp_store("rjf_campaign_full.rjfc");
  const CampaignReport full = run_campaign(spec, full_path);
  EXPECT_TRUE(full.complete);
  std::remove(full_path.c_str());

  const std::string path = temp_store("rjf_campaign_bigresume.rjfc");
  CampaignSpec windowed = spec;
  windowed.threads = 4;
  windowed.max_shards_this_run = 13;  // "killed" mid-grid
  const CampaignReport partial = run_campaign(windowed, path);
  EXPECT_FALSE(partial.complete);

  windowed.threads = 2;
  windowed.max_shards_this_run = 0;
  const CampaignReport resumed = run_campaign(windowed, path);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.trials_replayed, 0u);
  EXPECT_EQ(resumed.to_csv(), full.to_csv());
  std::remove(path.c_str());
}

/// The report's counts for one point, summed from replay_trial over every
/// trial of the point.
struct ReplayedPoint {
  std::uint64_t frames_detected = 0;
  std::uint64_t total_detections = 0;
  std::uint64_t overflow_gaps = 0;
  std::uint64_t samples_lost = 0;
  std::uint64_t trigger_latency_sum = 0;
  std::uint64_t trigger_latency_count = 0;
};

/// Replay every trial of `spec` alone, once bare and once with telemetry
/// attached; the two outcomes must agree.
std::vector<ReplayedPoint> replay_every_trial(
    const CampaignSpec& spec, std::span<const dsp::cvec> frames) {
  const std::uint64_t lead_ticks =
      static_cast<std::uint64_t>(spec.base.lead_in) * fpga::kClocksPerSample;
  obs::TelemetryConfig tc;
  tc.trace_capacity = 4096;
  tc.probe_enabled = false;
  std::vector<ReplayedPoint> out(spec.grid.num_points());
  for (std::size_t p = 0; p < out.size(); ++p) {
    for (std::size_t t = 0; t < spec.grid.trials_per_point; ++t) {
      const DetectionTrialOutcome o = replay_trial(spec, frames, p, t, nullptr);
      obs::Telemetry telemetry(tc);
      const DetectionTrialOutcome traced =
          replay_trial(spec, frames, p, t, &telemetry);
      EXPECT_EQ(traced.events, o.events) << "p=" << p << " t=" << t;
      EXPECT_EQ(traced.jam_triggers, o.jam_triggers);
      EXPECT_EQ(traced.last_trigger_vita, o.last_trigger_vita);
      EXPECT_EQ(traced.overflow_gaps, o.overflow_gaps);
      EXPECT_EQ(traced.samples_lost, o.samples_lost);
      EXPECT_GT(telemetry.ring().pushed(), 0u);

      ReplayedPoint& r = out[p];
      r.total_detections += o.events;
      if (o.events > 0) ++r.frames_detected;
      r.overflow_gaps += o.overflow_gaps;
      r.samples_lost += o.samples_lost;
      if (o.jam_triggers > 0 && o.last_trigger_vita >= lead_ticks) {
        r.trigger_latency_sum += o.last_trigger_vita - lead_ticks;
        ++r.trigger_latency_count;
      }
    }
  }
  return out;
}

void expect_report_reproduced(const CampaignReport& report,
                              const std::vector<ReplayedPoint>& replayed,
                              unsigned threads) {
  ASSERT_EQ(report.points.size(), replayed.size());
  for (std::size_t p = 0; p < replayed.size(); ++p) {
    const CampaignPointResult& row = report.points[p];
    const ReplayedPoint& r = replayed[p];
    EXPECT_EQ(row.result.frames_detected, r.frames_detected)
        << "threads=" << threads << " p=" << p;
    EXPECT_EQ(row.result.total_detections, r.total_detections)
        << "threads=" << threads << " p=" << p;
    EXPECT_EQ(row.overflow_gaps, r.overflow_gaps)
        << "threads=" << threads << " p=" << p;
    EXPECT_EQ(row.samples_lost, r.samples_lost)
        << "threads=" << threads << " p=" << p;
    EXPECT_EQ(row.trigger_latency_count, r.trigger_latency_count)
        << "threads=" << threads << " p=" << p;
    if (r.trigger_latency_count > 0) {
      EXPECT_EQ(row.trigger_latency_mean_ticks,
                static_cast<double>(r.trigger_latency_sum) /
                    static_cast<double>(r.trigger_latency_count))
          << "threads=" << threads << " p=" << p;
    }
  }
}

/// 2 SNRs x fault scales {0, 1}, with the fault hook on the scale axis.
CampaignSpec replay_spec() {
  CampaignSpec spec = small_spec();
  spec.grid.snrs_db = {0.0, 6.0};
  spec.grid.fault_scales = {0.0, 1.0};
  spec.grid.trials_per_point = 24;
  spec.shard_trials = 8;
  fault::FaultPlanConfig fault_base;
  fault_base.seed = 0xFA;
  fault_base.clip_rate = 1e-3;
  fault_base.drop_rate = 1e-3;
  fault_base.overflow_rate = 1e-3;
  spec.make_trial_hook = fault::campaign_fault_hook_factory(fault_base);
  return spec;
}

// A trial is a pure function of (campaign seed, point, trial): replaying
// each trial alone, with or without telemetry, and summing per point
// reproduces the campaign's rows at any thread count.
TEST(CampaignReplay, TrialSumsReproduceRunCampaignReport) {
  CampaignSpec spec = replay_spec();
  const std::vector<ReplayedPoint> replayed = replay_every_trial(spec, {});
  // The fault rows must actually lose samples, or the comparison of the
  // fault counters proves nothing.
  EXPECT_GT(replayed[2].overflow_gaps + replayed[3].overflow_gaps, 0u);
  EXPECT_EQ(replayed[0].overflow_gaps + replayed[1].overflow_gaps, 0u);
  EXPECT_GT(replayed[3].frames_detected, 0u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    expect_report_reproduced(run_campaign(spec, ""), replayed, threads);
  }
}

TEST(CampaignReplay, TrialSumsReproduceRunCampaignFramesReport) {
  CampaignSpec spec = replay_spec();
  spec.base.lead_in = 32;
  const dsp::cvec frames[] = {phy80211::long_training_symbol()};
  const std::vector<ReplayedPoint> replayed = replay_every_trial(spec, frames);
  EXPECT_GT(replayed[2].overflow_gaps + replayed[3].overflow_gaps, 0u);
  EXPECT_GT(replayed[3].frames_detected, 0u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    expect_report_reproduced(run_campaign_frames(spec, frames), replayed,
                             threads);
  }
}

TEST(CampaignReplay, RejectsTrialsOutsideTheGrid) {
  const CampaignSpec spec = replay_spec();
  EXPECT_THROW((void)replay_trial(spec, {}, 4, 0, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)replay_trial(spec, {}, 0, 24, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace rjf::core
