// Fig. 6 — cross-correlation detection of the WiFi LONG preamble vs SNR,
// for full WiFi frames and single-preamble pseudo-frames, at the paper's
// two false-alarm operating points (0.52/s and 0.083/s).
//
// Methodology mirrors §3.2: thresholds are calibrated against terminated
// (noise-only) input to the target false-alarm rates, then 10000 frames
// (RJF_BENCH_FRAMES here) are sent per SNR point and detections counted.
// The SNR sweep is a one-rate grid on the deterministic campaign executor
// (core/campaign.h): trials shard across RJF_BENCH_THREADS workers with
// the same counts a sequential run would produce.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/calibration.h"
#include "core/presets.h"
#include "core/campaign.h"
#include "core/templates.h"
#include "phy80211/ofdm.h"
#include "phy80211/preamble.h"
#include "phy80211/transmitter.h"

using namespace rjf;

int main() {
  bench::print_header(
      "bench_fig6_long_preamble — P_det vs SNR, WiFi long preamble",
      "Fig. 6 (cross-correlator, full frames vs single preambles, two FA rates)");

  const auto tpl = core::wifi_long_preamble_template();
  const core::XcorrNoiseModel model(tpl);

  // Full WiFi frame (310-byte payload at 54 Mbps) and the single-long-
  // preamble pseudo-frame of §3.2.
  std::vector<std::uint8_t> psdu(310, 0xA5);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec full_frame = tx.transmit(psdu);
  const dsp::cvec single = phy80211::long_training_symbol();

  const std::size_t frames = bench::frames_per_point();
  std::printf("frames per point: %zu (paper used 10000), %u worker threads\n\n",
              frames, bench::resolved_sweep_threads());

  const std::vector<double> snrs = {-6, -3, 0, 3, 5, 8, 12, 16, 20};
  double wall = 0.0;
  for (const double fa : {0.52, 0.083}) {
    core::CampaignSpec spec;
    spec.jammer.detection = core::DetectionMode::kCrossCorrelator;
    spec.jammer.xcorr_template = tpl;
    spec.jammer.xcorr_threshold = model.threshold_for_rate(fa);
    spec.grid.snrs_db = snrs;
    spec.grid.trials_per_point = frames;
    spec.threads = bench::resolved_sweep_threads();

    spec.seed = 0xF16;
    const auto full = core::run_campaign_frames(spec, {&full_frame, 1});
    spec.seed = 0xF16 ^ 0x5555;
    const auto one = core::run_campaign_frames(spec, {&single, 1});
    wall += full.wall_seconds + one.wall_seconds;

    std::printf("false alarm rate %.3f triggers/s  (threshold %u)\n", fa,
                spec.jammer.xcorr_threshold);
    std::printf("%8s %18s %22s\n", "SNR(dB)", "P_det full frames",
                "P_det single preamble");
    for (std::size_t p = 0; p < snrs.size(); ++p)
      std::printf("%8.1f %18.3f %22.3f\n", snrs[p],
                  full.points[p].result.probability,
                  one.points[p].result.probability);
    std::printf("\n");
  }
  std::printf("sweep wall time: %.2f s\n\n", wall);
  std::printf(
      "expected shape (paper): full frames > single preambles (two LTS\n"
      "copies per frame give two chances); lower FA target -> lower P_det.\n"
      "Our wired-sim impairments are milder than the authors' RF chain, so\n"
      "the curves transition at lower SNR; see EXPERIMENTS.md.\n");
  bench::print_footer();
  return 0;
}
