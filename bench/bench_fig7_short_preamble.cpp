// Fig. 7 — cross-correlation detection of full WiFi frames using the SHORT
// preamble template, at a constant false-alarm rate of 0.059 triggers/s.
// Paper: >90% at -3 dB SNR, >99% above 3 dB. Runs as a one-rate grid on
// the deterministic campaign executor (core/campaign.h).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/presets.h"
#include "core/campaign.h"
#include "phy80211/transmitter.h"

using namespace rjf;

int main() {
  bench::print_header(
      "bench_fig7_short_preamble — P_det vs SNR, WiFi short preamble",
      "Fig. 7 (full frames, FA = 0.059 triggers/s)");

  core::CampaignSpec spec;
  spec.jammer = core::wifi_reactive_preset(1e-4, 0.059);

  std::vector<std::uint8_t> psdu(310, 0xA5);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec full_frame = tx.transmit(psdu);

  const std::size_t frames = bench::frames_per_point();
  std::printf("frames per point: %zu (paper used 10000), %u worker threads\n",
              frames, bench::resolved_sweep_threads());
  std::printf("threshold: %u (calibrated to 0.059 triggers/s on noise)\n\n",
              spec.jammer.xcorr_threshold);

  const std::vector<double> snrs = {-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 10.0, 15.0};
  spec.grid.snrs_db = snrs;
  spec.grid.trials_per_point = frames;
  spec.threads = bench::resolved_sweep_threads();
  spec.seed = 0xF17;
  const auto report = core::run_campaign_frames(spec, {&full_frame, 1});

  std::printf("%8s %12s %18s\n", "SNR(dB)", "P_det", "detections/frame");
  for (const auto& point : report.points)
    std::printf("%8.1f %12.3f %18.2f\n", point.snr_db,
                point.result.probability, point.result.detections_per_frame);
  std::printf("\nsweep wall time: %.2f s (%.0f trials/s, %zu shards)\n",
              report.wall_seconds, report.trials_per_second(),
              report.shards_total);
  std::printf(
      "\nexpected shape (paper): high detection well below 0 dB SNR thanks\n"
      "to 10 cyclic STS repetitions per frame (multiple trigger chances);\n"
      "saturates >99%% by ~3 dB.\n");
  bench::print_footer();
  return 0;
}
