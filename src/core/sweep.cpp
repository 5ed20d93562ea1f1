#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "dsp/rng.h"

namespace rjf::core {

std::size_t resolve_shard_trials(std::size_t num_points,
                                 std::size_t trials_per_point,
                                 unsigned threads) {
  if (num_points == 0 || trials_per_point == 0) return 1;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t total =
      static_cast<std::uint64_t>(num_points) * trials_per_point;
  // ~8 shards per worker keeps the dynamic claim loop balanced even when
  // per-shard cost varies (long frames, over-triggering points); never fewer
  // shards than points, since a shard cannot span two points.
  const std::uint64_t target_shards = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(threads) * 8, num_points);
  std::uint64_t shard = total / target_shards;
  shard = std::clamp<std::uint64_t>(shard, kMinAutoShardTrials,
                                    kMaxAutoShardTrials);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(shard, trials_per_point));
}

std::vector<ShardTask> make_shard_schedule(std::size_t num_points,
                                           const SweepConfig& config) {
  const std::size_t shard_trials =
      config.shard_trials > 0
          ? config.shard_trials
          : resolve_shard_trials(num_points, config.trials_per_point,
                                 config.threads);
  std::vector<ShardTask> tasks;
  std::size_t index = 0;
  for (std::size_t p = 0; p < num_points; ++p) {
    for (std::size_t first = 0; first < config.trials_per_point;
         first += shard_trials) {
      ShardTask task;
      task.point = p;
      task.index = index;
      task.seed = dsp::derive_seed(config.seed, index);
      task.first_trial = first;
      task.trials = std::min(shard_trials, config.trials_per_point - first);
      tasks.push_back(task);
      ++index;
    }
  }
  return tasks;
}

unsigned run_shards(std::span<const ShardTask> tasks, unsigned threads,
                    const std::function<void(const ShardTask&)>& kernel) {
  if (tasks.empty()) return 0;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, tasks.size()));

  if (threads <= 1) {
    for (const ShardTask& task : tasks) kernel(task);
    return 1;
  }

  // Dynamic work-stealing off one atomic cursor: workers pull the next
  // unclaimed shard, so a slow shard (long frame, high-SNR over-triggering)
  // never stalls the rest of the schedule. Result placement is by
  // task.index, so claim order cannot affect the merged report.
  //
  // The abort flag makes a kernel exception fatal to the whole pool: once a
  // shard throws, no worker claims another shard (in-flight shards finish),
  // so an early failure in a huge campaign cannot silently burn the rest of
  // the grid before the rethrow at join.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&]() {
    for (;;) {
      if (abort.load(std::memory_order_acquire)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      try {
        kernel(tasks[i]);
      } catch (...) {
        abort.store(true, std::memory_order_release);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return threads;
}

}  // namespace rjf::core
