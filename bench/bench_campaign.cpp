// Campaign-runner bench: checkpoint/resume cost and determinism.
//
// Runs the same small {rate, SNR} grid twice — once uninterrupted, once as
// two process-style windows against one shard store (the first window stops
// after half the shards, the second resumes and finishes) — and byte-
// compares the merged CSVs. Emits BENCH_campaign.json (override path with
// RJF_BENCH_JSON):
//
//   campaign_deterministic            resumed CSV == uninterrupted CSV (0/1)
//   campaign_resume_overhead          (window1 + window2 wall) / full wall
//   campaign_resume_replayed_trials   durable trials a resume redid (must be 0)
//   campaign_trials_per_s             full-run merged trial rate
//
// CI gates the determinism flag, a resume-overhead ceiling, and the
// zero-replay invariant via tools/check_bench_regression.py.
//
//   RJF_BENCH_FRAMES   trials per grid point (default 400)
//   RJF_BENCH_THREADS  worker threads (default: host_cores())
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "core/campaign.h"
#include "core/templates.h"

using namespace rjf;

namespace {

core::CampaignSpec bench_spec() {
  core::CampaignSpec spec;
  spec.jammer.detection = core::DetectionMode::kCrossCorrelator;
  spec.jammer.xcorr_template = core::wifi_long_preamble_template();
  spec.jammer.xcorr_threshold = 9000;
  spec.tap = core::DetectorTap::kXcorr;
  spec.psdu_bytes = 64;
  spec.base.lead_in = 128;
  spec.base.tail = 128;
  spec.seed = 0xBE9C;
  spec.grid.rate_indices = {0, 7};  // wifi_ofdm: 6 and 54 Mb/s
  spec.grid.snrs_db = {-2.0, 2.0, 6.0};
  spec.grid.trials_per_point = bench::frames_per_point();
  spec.threads = bench::resolved_sweep_threads();
  return spec;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_campaign — checkpointable campaign runner",
      "overnight-scale P_det grids with kill/resume durability (§3.2 at "
      "campaign scale)");

  core::CampaignSpec spec = bench_spec();
  std::printf("grid: %zu points x %zu trials, threads %u\n\n",
              spec.grid.num_points(), spec.grid.trials_per_point,
              bench::resolved_sweep_threads());

  // Uninterrupted reference. Store paths carry the process id: two runs
  // of this bench share a spec and so a fingerprint, and a shared path
  // would let one silently resume the other's store.
  const std::string full_path =
      bench::process_temp_path("bench_campaign_full", ".rjfc");
  std::remove(full_path.c_str());
  const core::CampaignReport full = core::run_campaign(spec, full_path);
  std::remove(full_path.c_str());
  const std::string golden = full.to_csv();
  std::printf("%-22s %10.2fs  %8.0f trials/s  %zu shards\n", "uninterrupted",
              full.wall_seconds,
              static_cast<double>(full.trials_run) / full.wall_seconds,
              full.shards_total);

  // Window 1: half the shards, then "die". Window 2: resume and finish.
  const std::string resume_path =
      bench::process_temp_path("bench_campaign_resume", ".rjfc");
  std::remove(resume_path.c_str());
  core::CampaignSpec windowed = spec;
  windowed.max_shards_this_run = full.shards_total / 2;
  const core::CampaignReport window1 = core::run_campaign(windowed, resume_path);
  windowed.max_shards_this_run = 0;
  const core::CampaignReport window2 = core::run_campaign(windowed, resume_path);
  std::remove(resume_path.c_str());
  const double resumed_wall = window1.wall_seconds + window2.wall_seconds;
  std::printf("%-22s %10.2fs  (%zu + %zu shards across two windows)\n",
              "killed + resumed", resumed_wall, window1.shards_run,
              window2.shards_run);

  const bool deterministic =
      window2.complete && !window1.complete && window2.to_csv() == golden;
  const double overhead =
      full.wall_seconds > 0.0 ? resumed_wall / full.wall_seconds : 0.0;
  std::printf(
      "\nresumed CSV byte-identical to uninterrupted: %s\n"
      "resume overhead: %.3fx, replayed trials: %llu\n",
      deterministic ? "yes" : "NO — DETERMINISM VIOLATION", overhead,
      static_cast<unsigned long long>(window2.trials_replayed));

  bench::JsonWriter json;
  json.set("campaign_points", static_cast<std::uint64_t>(spec.grid.num_points()));
  json.set("campaign_trials_per_point",
           static_cast<std::uint64_t>(spec.grid.trials_per_point));
  json.set("campaign_shards", static_cast<std::uint64_t>(full.shards_total));
  json.set("campaign_threads", static_cast<std::uint64_t>(full.threads_used));
  json.set("campaign_wall_s", full.wall_seconds);
  json.set("campaign_trials_per_s",
           full.wall_seconds > 0.0
               ? static_cast<double>(full.trials_run) / full.wall_seconds
               : 0.0);
  json.set("campaign_resume_overhead", overhead);
  json.set("campaign_resume_replayed_trials", window2.trials_replayed);
  json.set("campaign_deterministic",
           static_cast<std::uint64_t>(deterministic ? 1 : 0));
  bench::write_json(json, "BENCH_campaign.json");

  bench::print_footer();
  return deterministic ? 0 : 1;
}
