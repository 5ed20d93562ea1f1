// run_campaign: checkpointable detection campaign over a {target rate,
// fault scale, SNR} grid for any registered protocol target (core/
// scenario.h). The shard store at --store makes the run durable: kill it at
// any point (SIGKILL included) and rerunning the same command resumes from
// the last completed shard; the merged CSV is byte-identical to an
// uninterrupted single-process run. --max-shards bounds one invocation for
// batch windows ("run two hours per night") — the overnight recipe is in
// EXPERIMENTS.md.
//
// Usage:
//   run_campaign --store campaign.rjfc --csv out.csv
//     --target wifi_dsss --snrs -4,-2,0,2,4 --rates 1,2,5.5,11
//     --fault-scales 0,1 --trials 100000 [--threads N] [--shard-trials N]
//     [--max-shards N] [--seed S] [--psdu-bytes N] [--quiet]
//   run_campaign --list-targets
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/scenario.h"
#include "dsp/rng.h"
#include "fault/fault_experiment.h"
#include "fault/fault_plan.h"

namespace {

using rjf::core::CampaignGrid;
using rjf::core::CampaignReport;
using rjf::core::CampaignSpec;
using rjf::core::ProtocolTarget;

/// Strict integer flag value: decimal digits only (no sign, space or
/// suffix), at most `max`, and at least `min` (1 where 0 means nothing).
/// Anything else exits 2 naming the flag, instead of wrapping "-1" or
/// reading "abc" as 0 and "10k" as 10.
unsigned long long parse_count(const char* flag, const char* text,
                               unsigned long long min,
                               unsigned long long max) {
  const std::size_t len = std::strlen(text);
  errno = 0;
  const unsigned long long v = std::strtoull(text, nullptr, 10);
  if (len == 0 || std::strspn(text, "0123456789") != len || errno == ERANGE ||
      v < min || v > max) {
    std::fprintf(stderr,
                 "run_campaign: %s needs an integer in [%llu, %llu], got "
                 "'%s'\n",
                 flag, min, max, text);
    std::exit(2);
  }
  return v;
}

/// Strict number list: comma-separated finite values, each fully consumed
/// by strtod (and not negative when `non_negative`); no empty element, no
/// trailing comma. Anything else ("nan", "inf", "1e400", "0,", "-1" for a
/// scale) exits 2 naming the flag, before the store is touched.
std::vector<double> parse_doubles(const char* flag, const char* arg,
                                  bool non_negative = false) {
  std::vector<double> out;
  const char* p = arg;
  for (;;) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(p, &end);
    if (end == p || (*end != ',' && *end != '\0') || errno == ERANGE ||
        !std::isfinite(v) || (non_negative && v < 0.0)) {
      std::fprintf(stderr,
                   "run_campaign: %s needs a comma-separated list of finite%s "
                   "numbers, got '%s'\n",
                   flag, non_negative ? ", non-negative" : "", arg);
      std::exit(2);
    }
    out.push_back(v);
    if (*end == '\0') return out;
    p = end + 1;
  }
}

std::vector<std::size_t> parse_rates(const char* arg,
                                     const ProtocolTarget& target) {
  std::vector<std::size_t> out;
  for (const double mbps : parse_doubles("--rates", arg)) {
    bool found = false;
    for (std::size_t i = 0; i < target.rates.size(); ++i) {
      if (target.rates[i].mbps == mbps) {
        out.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "run_campaign: --rates: target '%s' has no %g Mbps rate\n",
                   target.name.c_str(), mbps);
      std::exit(2);
    }
  }
  return out;
}

int list_targets() {
  for (const ProtocolTarget& t : rjf::core::protocol_targets()) {
    std::string rates;
    for (const rjf::core::TargetRate& r : t.rates) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%g", rates.empty() ? "" : ",", r.mbps);
      rates += buf;
    }
    std::printf("%-12s rates %s Mbps  %s\n", t.name.c_str(), rates.c_str(),
                t.description.c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: run_campaign --store FILE [--csv FILE] [--target NAME]\n"
      "    [--snrs a,b,...] [--rates mbps,...] [--fault-scales s,...]\n"
      "    [--trials N] [--threads N] [--shard-trials N] [--max-shards N]\n"
      "    [--seed S] [--psdu-bytes N] [--quiet]\n"
      "   or: run_campaign --list-targets\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_path;
  std::string csv_path;
  CampaignSpec spec;
  spec.grid.snrs_db = {-4.0, -2.0, 0.0, 2.0, 4.0};
  spec.grid.trials_per_point = 10000;
  bool quiet = false;
  bool fault_axis = false;
  const char* rates_arg = nullptr;
  bool rates_given = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "run_campaign: %s needs a value\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--store") == 0) {
      store_path = next();
    } else if (std::strcmp(a, "--csv") == 0) {
      csv_path = next();
    } else if (std::strcmp(a, "--target") == 0) {
      spec.target = next();
    } else if (std::strcmp(a, "--list-targets") == 0) {
      return list_targets();
    } else if (std::strcmp(a, "--snrs") == 0) {
      spec.grid.snrs_db = parse_doubles(a, next());
    } else if (std::strcmp(a, "--rates") == 0) {
      rates_arg = next();
      rates_given = true;
    } else if (std::strcmp(a, "--fault-scales") == 0) {
      spec.grid.fault_scales = parse_doubles(a, next(), /*non_negative=*/true);
      fault_axis = true;
    } else if (std::strcmp(a, "--trials") == 0) {
      spec.grid.trials_per_point = parse_count(a, next(), 1, SIZE_MAX);
    } else if (std::strcmp(a, "--threads") == 0) {
      spec.threads =
          static_cast<unsigned>(parse_count(a, next(), 0, UINT_MAX));
    } else if (std::strcmp(a, "--shard-trials") == 0) {
      spec.shard_trials = parse_count(a, next(), 0, SIZE_MAX);
    } else if (std::strcmp(a, "--max-shards") == 0) {
      spec.max_shards_this_run = parse_count(a, next(), 0, SIZE_MAX);
    } else if (std::strcmp(a, "--seed") == 0) {
      spec.seed = parse_count(a, next(), 0, UINT64_MAX);
    } else if (std::strcmp(a, "--psdu-bytes") == 0) {
      spec.psdu_bytes = parse_count(a, next(), 1, SIZE_MAX);
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      return usage();
    }
  }
  const ProtocolTarget* target = rjf::core::find_target(spec.target);
  if (target == nullptr) {
    std::fprintf(stderr,
                 "run_campaign: unknown target '%s' (try --list-targets)\n",
                 spec.target.c_str());
    return 2;
  }
  spec.grid.rate_indices = rates_given ? parse_rates(rates_arg, *target)
                                       : std::vector<std::size_t>{
                                             target->default_rate_index};
  if (store_path.empty() || spec.grid.num_points() == 0) return usage();

  // Paper Fig. 7 personality, retargeted: the target's own preamble
  // correlator at the calibrated false-alarm threshold, 100 us jam bursts.
  spec.jammer = rjf::core::target_reactive_preset(*target, 100e-6);
  spec.tap = rjf::core::DetectorTap::kXcorr;

  if (fault_axis) {
    // Scale-1.0 rates match bench_fault_robustness's degradation curve; the
    // grid's fault_scales multiply them per point.
    rjf::fault::FaultPlanConfig fault_base;
    fault_base.seed = rjf::dsp::derive_seed(spec.seed, 0x0fa7u);
    fault_base.clip_rate = 2e-4;
    fault_base.dc_rate = 2e-4;
    fault_base.drop_rate = 2e-4;
    fault_base.overflow_rate = 1e-4;
    spec.make_trial_hook = rjf::fault::campaign_fault_hook_factory(fault_base);
  }

  if (!quiet) {
    spec.progress_every_shards = 25;
    spec.progress = [](const rjf::core::SweepProgress& p) {
      std::fprintf(stderr,
                   "[campaign] shards %zu/%zu  trials %llu/%llu  %.0f "
                   "trials/s  eta %.0fs\n",
                   p.shards_done, p.shards_total,
                   static_cast<unsigned long long>(p.trials_done),
                   static_cast<unsigned long long>(p.trials_total),
                   p.trials_per_second, p.eta_seconds);
    };
  }

  try {
    const CampaignReport report = rjf::core::run_campaign(spec, store_path);
    const std::string csv = report.to_csv();
    if (!csv_path.empty()) {
      std::FILE* f = std::fopen(csv_path.c_str(), "wb");
      if (f == nullptr ||
          std::fwrite(csv.data(), 1, csv.size(), f) != csv.size()) {
        std::fprintf(stderr, "run_campaign: cannot write '%s'\n",
                     csv_path.c_str());
        if (f != nullptr) std::fclose(f);
        return 1;
      }
      std::fclose(f);
    } else {
      std::fwrite(csv.data(), 1, csv.size(), stdout);
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "[campaign] %s: %zu/%zu shards durable (%zu run now, "
                   "%zu resumed), %llu trials this run, %zu/%zu plans "
                   "built, %.1fs\n",
                   report.complete ? "complete" : "PARTIAL",
                   report.shards_already_complete + report.shards_run,
                   report.shards_total, report.shards_run,
                   report.shards_already_complete,
                   static_cast<unsigned long long>(report.trials_run),
                   report.plans_built, report.points.size(),
                   report.wall_seconds);
    }
    // Partial runs (a --max-shards window closed early) exit 3 so batch
    // scripts know to rerun; the store already holds everything durable.
    return report.complete ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_campaign: %s\n", e.what());
    return 1;
  }
}
