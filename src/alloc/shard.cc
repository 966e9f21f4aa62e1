#include "alloc/shard.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "obs/perf.h"

namespace ncdrf {

double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// One worker per shard, but never more than the host's hardware threads.
int pool_threads(int num_shards) {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return std::min(num_shards, std::max(1, hardware));
}

}  // namespace

std::unique_ptr<ShardRuntime> ShardRuntime::create(
    const SchedulerOptions& options) {
  NCDRF_CHECK(options.shards >= 1, "shard count must be positive");
  if (options.shards <= 1) return nullptr;
  return std::make_unique<ShardRuntime>(options.shards);
}

ShardRuntime::ShardRuntime(int num_shards)
    : num_shards_(num_shards), pool_(pool_threads(num_shards)) {
  NCDRF_CHECK(num_shards >= 2, "a shard runtime needs at least two shards");
}

void ShardRuntime::parallel_blocks(
    std::size_t n,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  const auto blocks = static_cast<std::size_t>(num_shards_);
  task_seconds_.assign(blocks, 0.0);
  pool_.run(num_shards_, [&](int block) {
    const auto b = static_cast<std::size_t>(block);
    const std::size_t begin = n * b / blocks;
    const std::size_t end = n * (b + 1) / blocks;
    if (begin >= end) return;
    const double start = thread_cpu_seconds();
    fn(block, begin, end);
    task_seconds_[b] = thread_cpu_seconds() - start;
  });
  double max_seconds = 0.0;
  for (const double s : task_seconds_) {
    busy_seconds_ += s;
    max_seconds = std::max(max_seconds, s);
  }
  critical_seconds_ += max_seconds;
  regions_ += 1;
}

void ShardRuntime::drain_timers(SchedPerf& perf) {
  perf.shard_regions += regions_;
  perf.shard_busy_seconds += busy_seconds_;
  perf.shard_critical_seconds += critical_seconds_;
  regions_ = 0;
  busy_seconds_ = 0.0;
  critical_seconds_ = 0.0;
}

}  // namespace ncdrf
