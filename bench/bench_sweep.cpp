// Sweep scaling bench: a Fig. 6-style P_det-vs-SNR grid, run by the
// campaign executor (run_campaign_frames) at 1, 2 and N worker threads.
//
// Emits BENCH_sweep.json (override path with RJF_BENCH_JSON) with the
// single-thread and N-thread trial rates, the measured speedup, the
// parallel efficiency, and a sweep_deterministic flag proving that every
// thread count produced bit-identical aggregate counts — the engine's core
// guarantee. CI gates the flag and the efficiency floor via
// tools/check_bench_regression.py.
//
// Honesty rule: the measured thread count is clamped to the host's core
// count. Running 8 software threads on a 1-core box measures scheduler
// interleaving, not scaling — an earlier revision did exactly that and
// committed "speedup 1.06 at 8 threads" from a single-core runner, which
// read as an efficiency collapse. The JSON now records both the requested
// and the effective thread count, and the gated figure is
//   sweep_parallel_efficiency = speedup / effective_threads
// which is meaningful on any machine (≈1.0 on one core, where speedup at
// one effective thread is trivially ≈1).
//
//   RJF_BENCH_FRAMES   trials per SNR point (default 400)
//   RJF_BENCH_THREADS  N for the parallel run (default 8)
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "core/calibration.h"
#include "core/campaign.h"
#include "core/templates.h"
#include "phy80211/transmitter.h"

using namespace rjf;

namespace {

bool same_counts(const core::CampaignReport& a,
                 const core::CampaignReport& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const auto& ra = a.points[p].result;
    const auto& rb = b.points[p].result;
    if (ra.frames_detected != rb.frames_detected ||
        ra.total_detections != rb.total_detections ||
        ra.frames_sent != rb.frames_sent)
      return false;
  }
  return a.metrics.counter_value("sweep.detections") ==
         b.metrics.counter_value("sweep.detections");
}

}  // namespace

int main() {
  bench::print_header(
      "bench_sweep — parallel sweep engine scaling",
      "experiment layer for Figs. 6-8 (P_det vs SNR at paper trial counts)");

  const auto tpl = core::wifi_long_preamble_template();
  const core::XcorrNoiseModel model(tpl);
  core::CampaignSpec spec;
  spec.jammer.detection = core::DetectionMode::kCrossCorrelator;
  spec.jammer.xcorr_template = tpl;
  spec.jammer.xcorr_threshold = model.threshold_for_rate(0.52);
  spec.grid.snrs_db = {-3, 0, 3, 8, 12};
  spec.grid.trials_per_point = bench::frames_per_point();
  spec.seed = 0xF16;

  std::vector<std::uint8_t> psdu(310, 0xA5);
  phy80211::Transmitter tx({phy80211::Rate::kMbps54, 0x5D});
  const dsp::cvec full_frame = tx.transmit(psdu);

  const unsigned host_cores = bench::host_cores();
  const unsigned requested_threads = bench::sweep_threads(8);
  // Clamp the measurement to real cores: oversubscribed threads time-slice
  // one core and produce a meaningless "speedup" (see header comment).
  const unsigned n_threads = std::min(requested_threads, host_cores);
  std::printf(
      "trials per point: %zu, %zu points; host cores: %u; threads: %u "
      "(requested %u)\n\n",
      spec.grid.trials_per_point, spec.grid.snrs_db.size(), host_cores,
      n_threads, requested_threads);

  std::printf("%8s %14s %12s %10s\n", "threads", "trials/s", "wall(s)",
              "speedup");
  double rate_1t = 0.0;
  double rate_nt = 0.0;
  double wall_nt = 0.0;
  bool deterministic = true;
  core::CampaignReport reference;
  // RJF_BENCH_THREADS of 1 or 2 would duplicate a count and make rate_nt /
  // the JSON's sweep_speedup come from a redundant run; the ordered set
  // runs each count once, 1-thread reference first.
  const std::set<unsigned> thread_counts{1u, 2u, n_threads};
  for (const unsigned threads : thread_counts) {
    spec.threads = threads;
    const auto report = core::run_campaign_frames(spec, {&full_frame, 1});
    if (threads == 1) {
      reference = report;
      rate_1t = report.trials_per_second();
    } else {
      deterministic = deterministic && same_counts(reference, report);
    }
    if (threads == n_threads) {
      rate_nt = report.trials_per_second();
      wall_nt = report.wall_seconds;
    }
    std::printf("%8u %14.0f %12.2f %9.2fx\n", threads,
                report.trials_per_second(), report.wall_seconds,
                report.trials_per_second() / rate_1t);
  }
  std::printf("\naggregates bit-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  bench::JsonWriter json;
  json.set("sweep_trials_per_point",
           static_cast<std::uint64_t>(spec.grid.trials_per_point));
  json.set("sweep_points", static_cast<std::uint64_t>(spec.grid.snrs_db.size()));
  json.set("sweep_threads_requested", static_cast<std::uint64_t>(requested_threads));
  json.set("sweep_threads", static_cast<std::uint64_t>(n_threads));
  json.set("host_cores", static_cast<std::uint64_t>(host_cores));
  json.set("sweep_trials_per_s_1t", rate_1t);
  json.set("sweep_trials_per_s_nt", rate_nt);
  json.set("sweep_wall_s_nt", wall_nt);
  const double speedup = rate_1t > 0.0 ? rate_nt / rate_1t : 0.0;
  json.set("sweep_speedup", speedup);
  // The gated scaling figure: speedup per effective core. n_threads is
  // already clamped to host_cores, so this is well-defined everywhere.
  json.set("sweep_parallel_efficiency",
           n_threads > 0 ? speedup / static_cast<double>(n_threads) : 0.0);
  // A sweep that ran no trials proves nothing: leave the flag out, so the
  // CI gate on it fails instead of passing vacuously.
  const std::uint64_t trials_run =
      reference.metrics.counter_value("sweep.trials");
  if (trials_run > 0)
    json.set("sweep_deterministic",
             static_cast<std::uint64_t>(deterministic ? 1 : 0));
  bench::write_json(json, "BENCH_sweep.json");

  bench::print_footer();
  return deterministic ? 0 : 1;
}
