// Protocol-target registry bench: paper-style detection curves (Figs. 6-8
// methodology) for every registered target, driven entirely through the
// scenario layer (core/scenario.h): each curve is a one-rate run_campaign
// against the target, with no store. Emits BENCH_scenarios.json (override
// path with RJF_BENCH_JSON):
//
//   scenario_targets                     registry size
//   scenario_<name>_pdet_high_snr        min over swept rates of P_det at
//                                        the top SNR point (CI floor)
//   scenario_<name>_duty_cycle           victim duty cycle at the default
//                                        rate and bench PSDU size
//   scenarios_deterministic              per-point counts bit-identical at
//                                        1 vs 2 worker threads (0/1)
//
// CI gates the per-target high-SNR floors and the determinism flag via
// tools/check_bench_regression.py.
//
//   RJF_BENCH_FRAMES   trials per (rate, SNR) point (default 300)
//   RJF_BENCH_THREADS  worker threads (default: host_cores())
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/campaign.h"
#include "core/scenario.h"

using namespace rjf;

namespace {

/// Rate indices a target contributes to the bench grid: every rate for
/// small tables (802.11b's four), first + default for wide ones (OFDM's
/// eight would triple the wall clock without changing the story — the
/// preamble, and therefore detection, is rate-independent).
std::vector<std::size_t> bench_rates(const core::ProtocolTarget& target) {
  if (target.rates.size() <= 4) {
    std::vector<std::size_t> all(target.rates.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  return {0, target.default_rate_index};
}

bool same_counts(const core::CampaignReport& a,
                 const core::CampaignReport& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    if (a.points[p].result.frames_detected !=
            b.points[p].result.frames_detected ||
        a.points[p].result.total_detections !=
            b.points[p].result.total_detections)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_scenarios — per-target detection curves via the registry",
      "Figs. 6-8 methodology applied to every registered protocol target");

  const double snrs[] = {-9.0, -6.0, -3.0, 0.0, 3.0, 8.0};
  const std::size_t kNumSnrs = sizeof(snrs) / sizeof(snrs[0]);
  const std::size_t psdu_bytes = 60;

  // One single-rate grid per curve, so each rate's point seeds are
  // derive_seed(0x5CE9, snr_index) whichever rates the bench sweeps.
  core::CampaignSpec spec;
  spec.grid.snrs_db.assign(std::begin(snrs), std::end(snrs));
  spec.grid.trials_per_point = bench::frames_per_point(300);
  spec.threads = bench::resolved_sweep_threads();
  spec.shard_trials = 250;
  spec.seed = 0x5CE9;
  spec.psdu_bytes = psdu_bytes;
  spec.psdu_fill = 0xC3;
  spec.tap = core::DetectorTap::kXcorr;
  spec.base.lead_in = 256;
  spec.base.tail = 256;

  std::printf("trials per point: %zu, threads %u, psdu %zu bytes\n",
              spec.grid.trials_per_point, bench::resolved_sweep_threads(),
              psdu_bytes);

  bench::JsonWriter json;
  json.set("scenario_targets",
           static_cast<std::uint64_t>(core::protocol_targets().size()));

  double total_wall = 0.0;
  for (const core::ProtocolTarget& target : core::protocol_targets()) {
    spec.target = target.name;
    spec.jammer = core::target_reactive_preset(target, 100e-6);
    std::printf("\n%s — %s\n", target.name.c_str(),
                target.description.c_str());
    std::printf("  xcorr threshold %u (FA 0.059/s), native rate %.1f MHz\n",
                spec.jammer.xcorr_threshold, target.native_rate_hz / 1e6);
    std::printf("%10s", "SNR(dB)");
    const std::vector<std::size_t> rates = bench_rates(target);
    for (const std::size_t r : rates)
      std::printf("   P_det@%4.1fM", target.rates[r].mbps);
    std::printf("\n");

    // One sweep per rate; curves print SNR-major like the paper's figures.
    std::vector<core::CampaignReport> curves;
    curves.reserve(rates.size());
    for (const std::size_t r : rates) {
      spec.grid.rate_indices = {r};
      curves.push_back(core::run_campaign(spec, ""));
      total_wall += curves.back().wall_seconds;
    }
    for (std::size_t k = 0; k < kNumSnrs; ++k) {
      std::printf("%10.1f", snrs[k]);
      for (const core::CampaignReport& curve : curves)
        std::printf(" %13.3f", curve.points[k].result.probability);
      std::printf("\n");
    }

    double pdet_floor = 1.0;
    for (const core::CampaignReport& curve : curves)
      pdet_floor =
          std::min(pdet_floor, curve.points[kNumSnrs - 1].result.probability);
    json.set("scenario_" + target.name + "_pdet_high_snr", pdet_floor);
    json.set("scenario_" + target.name + "_duty_cycle",
             target.duty_cycle(target.default_rate_index, psdu_bytes));
  }

  // Determinism across thread counts, end-to-end through the target path:
  // the 802.11b leg (new code) at its default rate, 1 vs 2 workers.
  const core::ProtocolTarget& dsss = core::target_or_throw("wifi_dsss");
  spec.target = dsss.name;
  spec.jammer = core::target_reactive_preset(dsss, 100e-6);
  spec.grid.rate_indices = {dsss.default_rate_index};
  spec.threads = 1;
  const core::CampaignReport one = core::run_campaign(spec, "");
  spec.threads = 2;
  const core::CampaignReport two = core::run_campaign(spec, "");
  const bool deterministic = same_counts(one, two);
  std::printf("\nper-point counts identical at 1 vs 2 threads: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  json.set("scenarios_deterministic",
           static_cast<std::uint64_t>(deterministic ? 1 : 0));
  json.set("scenario_wall_s", total_wall);

  bench::write_json(json, "BENCH_scenarios.json");

  bench::print_footer();
  return deterministic ? 0 : 1;
}
