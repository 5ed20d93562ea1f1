// Extension: multi-standard claim for 802.11b DSSS ("WiFi (802.11 a/b/g)",
// paper §1). Detection probability of 802.11b long-preamble frames using
// the deterministic scrambled-SYNC template, across DSSS rates — the same
// methodology as Figs. 6-7 applied to the DSSS leg of the standard. Runs
// as a four-rate wifi_dsss grid on the campaign executor (core/campaign.h),
// so any cell can be replayed trial by trial with core::replay_trial.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/calibration.h"
#include "core/campaign.h"
#include "core/templates.h"

using namespace rjf;

int main() {
  bench::print_header(
      "bench_ext_80211b — 802.11b DSSS preamble detection (extension)",
      "the multi-standard claim of Section 1 applied to 802.11b");

  core::CampaignSpec spec;
  spec.target = "wifi_dsss";
  spec.grid.rate_indices = {0, 1, 2, 3};  // 1, 2, 5.5 and 11 Mb/s
  spec.grid.snrs_db = {-9.0, -6.0, -3.0, 0.0, 3.0, 8.0};
  spec.grid.trials_per_point = bench::frames_per_point(300);
  spec.psdu_bytes = 60;
  spec.psdu_fill = 0xC3;
  const auto tpl = core::wifi_dsss_preamble_template();
  spec.jammer.detection = core::DetectionMode::kCrossCorrelator;
  spec.jammer.xcorr_template = tpl;
  spec.jammer.xcorr_threshold =
      core::XcorrNoiseModel(tpl).threshold_for_rate(0.059);
  spec.tap = core::DetectorTap::kXcorr;
  spec.threads = bench::resolved_sweep_threads();
  spec.seed = 0xB0B;

  std::printf("frames per point: %zu, FA target 0.059/s, threshold %u\n\n",
              spec.grid.trials_per_point, spec.jammer.xcorr_threshold);
  const auto report = core::run_campaign(spec, "");

  const core::CampaignGrid& grid = spec.grid;
  std::printf("%10s", "SNR(dB)");
  for (std::size_t r = 0; r < grid.rate_indices.size(); ++r)
    std::printf("   P_det@%4.1fM",
                report.points[grid.point_of({r, 0, 0})].rate_mbps);
  std::printf("\n");
  for (std::size_t s = 0; s < grid.snrs_db.size(); ++s) {
    std::printf("%10.1f", grid.snrs_db[s]);
    for (std::size_t r = 0; r < grid.rate_indices.size(); ++r)
      std::printf(" %13.3f",
                  report.points[grid.point_of({r, 0, s})].result.probability);
    std::printf("\n");
  }
  std::printf(
      "\nAll rates share the 192 us DSSS long preamble, so detection is\n"
      "rate-independent — one template covers the whole 802.11b family,\n"
      "which is what makes the jammer \"protocol aware\" rather than\n"
      "\"rate aware\". The 128 scrambled SYNC symbols give the correlator\n"
      "dozens of trigger opportunities per frame (compare Fig. 7).\n");
  bench::print_footer();
  return 0;
}
