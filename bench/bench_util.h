// Shared helpers for the reproduction benches: consistent table printing
// and environment-variable knobs so CI can run quick passes while a full
// reproduction uses paper-scale trial counts.
//
//   RJF_BENCH_FRAMES    frames per detection point   (default 400;  paper 10000)
//   RJF_BENCH_DURATION  seconds per iperf test point (default 0.12; paper 60)
//   RJF_BENCH_THREADS   sweep-engine worker threads  (default: host_cores())
//   RJF_BENCH_JSON      path of the bench's JSON results
//                       (default BENCH_<name>.json in the working directory)
//
// A knob that is set must hold a positive number: anything else (empty,
// non-numeric, trailing junk, zero, negative) stops the bench with exit
// status 2 and a message naming the variable, rather than running a
// zero-trial sweep whose flags pass vacuously.
#pragma once

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json_writer.h"

namespace rjf::bench {

/// JSON result emission lives in the library now (src/obs/json_writer.h) so
/// library code never includes from bench/. The bench name stays for the
/// existing call sites.
using JsonWriter = rjf::obs::JsonWriter;

[[noreturn]] inline void bad_knob(const char* name, const char* value,
                                  const char* expected) {
  std::fprintf(stderr, "error: %s=\"%s\" is not %s\n", name, value, expected);
  std::exit(2);
}

/// Positive integer from environment variable `name`, at most `max`;
/// `fallback` when unset.
inline unsigned long long env_positive_integer(const char* name,
                                               unsigned long long fallback,
                                               unsigned long long max =
                                                   ULLONG_MAX) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  // Digits only: strtoull alone would accept "-1" (wrapped) and " 7".
  const std::string text(env);
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    bad_knob(name, env, "a positive integer");
  errno = 0;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  if (errno == ERANGE || v == 0 || v > max)
    bad_knob(name, env, "a positive integer");
  return v;
}

/// Positive finite number from environment variable `name`; `fallback`
/// when unset.
inline double env_positive_double(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(v) || v <= 0.0)
    bad_knob(name, env, "a positive number");
  return v;
}

inline std::size_t frames_per_point(std::size_t fallback = 400) {
  return static_cast<std::size_t>(
      env_positive_integer("RJF_BENCH_FRAMES", fallback));
}

inline double iperf_duration_s(double fallback = 0.12) {
  return env_positive_double("RJF_BENCH_DURATION", fallback);
}

/// Cores this process may run on: its sched_getaffinity mask, which on a
/// shared host or in a cpuset can be far smaller than the machine's count
/// that std::thread::hardware_concurrency() reports. At least 1.
inline unsigned host_cores() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 1;
  return static_cast<unsigned>(std::max(CPU_COUNT(&mask), 1));
}

/// Worker threads for the parallel sweep engine; 0 lets the engine pick.
inline unsigned sweep_threads(unsigned fallback = 0) {
  return static_cast<unsigned>(
      env_positive_integer("RJF_BENCH_THREADS", fallback, UINT_MAX));
}

/// Resolved thread count: RJF_BENCH_THREADS, else host_cores(). Pass it to
/// the engine too, so the count printed is the count that runs.
inline unsigned resolved_sweep_threads() {
  const unsigned requested = sweep_threads();
  return requested != 0 ? requested : host_cores();
}

/// `$TMPDIR/<stem>.<pid><ext>` (TMPDIR defaults to /tmp): a scratch file
/// no concurrently running bench process shares.
inline std::string process_temp_path(const std::string& stem,
                                     const std::string& ext) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + stem + "." +
         std::to_string(static_cast<long long>(getpid())) + ext;
}

/// Write `json` to $RJF_BENCH_JSON, or to `default_path` when unset, and
/// say where it went.
inline void write_json(const JsonWriter& json, const char* default_path) {
  const char* env = std::getenv("RJF_BENCH_JSON");
  const std::string path = env != nullptr ? env : default_path;
  if (json.write_file(path))
    std::printf("wrote %s\n", path.c_str());
  else
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void print_footer() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace rjf::bench
