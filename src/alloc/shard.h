// Block-parallel execution context for the DRF family: the DemandCache
// refresh and the P* reduction of drf_allocate split the snapshot's
// coflows into contiguous blocks and run them on a scheduler-owned thread
// pool. Each block writes only its own per-coflow slots (and its own load
// partial), so drf@N and hug@N agree with the serial path up to the
// block-order grouping of the P* sums.
//
// Timing contract: every parallel region measures each block task's
// thread-CPU time. The per-region maximum accumulates into
// SchedPerf::shard_critical_seconds — the modeled parallel wall-clock of
// the block work on an unloaded multi-core host — and the sum into
// shard_busy_seconds. bench_scale combines the calling thread's CPU time
// (the serial fraction) with the critical path into a machine-independent
// events/s metric, so the CI speedup gate does not depend on how many
// cores the runner happens to schedule the pool on.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "runner/thread_pool.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct SchedPerf;

// Current thread's consumed CPU time in seconds (CLOCK_THREAD_CPUTIME_ID
// where available, monotonic wall-clock otherwise). The basis of the
// block layer's machine-independent critical-path accounting.
double thread_cpu_seconds();

// Scheduler-owned block execution context: a private ThreadPool (its own
// pool handle, so a block-parallel allocate() nested inside a sweep cell
// never contends with the sweep's dispatcher) and the per-region
// critical-path timers.
class ShardRuntime {
 public:
  // Honors the SchedulerOptions contract: shards <= 1 yields no runtime
  // at all, so the serial path stays literally the serial code.
  static std::unique_ptr<ShardRuntime> create(const SchedulerOptions& options);

  // The pool gets min(num_shards, hardware threads) workers; block tasks
  // beyond that queue on it, so any block count costs bounded threads.
  explicit ShardRuntime(int num_shards);

  int num_shards() const { return num_shards_; }
  int num_threads() const { return pool_.num_threads(); }

  // Splits [0, n) into num_shards contiguous blocks, runs
  // fn(block, begin, end) for every non-empty block on the pool and
  // blocks; each task's thread-CPU time is measured, the region's maximum
  // extends the critical path and the sum extends the busy total.
  void parallel_blocks(
      std::size_t n,
      const std::function<void(int, std::size_t, std::size_t)>& fn);

  // Folds the regions/busy/critical counters gathered since the last
  // drain into `perf` and resets them.
  void drain_timers(SchedPerf& perf);

 private:
  int num_shards_;
  ThreadPool pool_;
  std::vector<double> task_seconds_;  // per-block scratch, one region
  long long regions_ = 0;
  double busy_seconds_ = 0.0;
  double critical_seconds_ = 0.0;
};

}  // namespace ncdrf
