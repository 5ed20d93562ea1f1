// Fig. 8 — energy differentiator detection of full WiFi frames vs SNR at a
// 10 dB threshold. Paper shape: no detection below the floor, a band of
// MULTIPLE detections per frame where OFDM dynamic-range variations
// straddle the threshold, then exactly one clean detection per frame.
// Runs as a one-rate grid on the deterministic campaign executor
// (core/campaign.h).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/presets.h"
#include "core/campaign.h"
#include "phy80211/transmitter.h"

using namespace rjf;

int main() {
  bench::print_header(
      "bench_fig8_energy — energy differentiator P_det vs SNR",
      "Fig. 8 (full WiFi frames, 10 dB energy threshold, FA = 0/s)");

  core::CampaignSpec spec;
  spec.jammer = core::energy_reactive_preset(1e-4, 10.0);

  std::vector<std::uint8_t> psdu(310, 0xA5);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec full_frame = tx.transmit(psdu);

  const std::size_t frames = bench::frames_per_point();
  std::printf("frames per point: %zu (paper used 10000), %u worker threads\n\n",
              frames, bench::resolved_sweep_threads());

  const std::vector<double> snrs = {0.0, 3.0,  6.0,  7.0,  8.0, 9.0,
                                    10.0, 11.0, 12.0, 15.0, 20.0};
  spec.tap = core::DetectorTap::kEnergyHigh;
  spec.grid.snrs_db = snrs;
  spec.grid.trials_per_point = frames;
  spec.threads = bench::resolved_sweep_threads();
  spec.seed = 0xF18;
  const auto report = core::run_campaign_frames(spec, {&full_frame, 1});

  std::printf("%8s %12s %18s\n", "SNR(dB)", "P_det", "detections/frame");
  for (const auto& point : report.points)
    std::printf("%8.1f %12.3f %18.2f\n", point.snr_db,
                point.result.probability, point.result.detections_per_frame);
  std::printf("\nsweep wall time: %.2f s (%.0f trials/s, %zu shards)\n",
              report.wall_seconds, report.trials_per_second(),
              report.shards_total);
  std::printf(
      "\nexpected shape (paper): zero detection below the threshold region,\n"
      "an over-triggering band (detections/frame > 1) where signal+noise\n"
      "dynamic range straddles the 10 dB threshold, settling to exactly one\n"
      "detection per frame above it. Our detector turns on near the\n"
      "configured 10 dB (physically consistent); the paper observed the\n"
      "band at lower SNR — see EXPERIMENTS.md for the discussion.\n");
  bench::print_footer();
  return 0;
}
