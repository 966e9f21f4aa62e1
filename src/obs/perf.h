// Scheduler performance counters — the allocation hot path's own plain-
// data telemetry (moved here from metrics/ when src/obs/ became the
// observability layer; the JSON shape is unchanged plus the backfill
// counters).
//
// The online loop recomputes the allocation on every coflow event, so
// allocation cost bounds how fast a cluster can churn coflows. These
// counters separate the two cost regimes of the event-driven schedulers
// (full snapshot rescans vs O(links touched) delta updates), split out the
// backfilling stage, and accumulate wall-clock time inside allocate() via
// std::chrono::steady_clock — cheap enough to stay on in production
// builds (two clock reads per allocate).
//
// The struct is plain data: schedulers own one, drivers and benches read
// it, run_sweep aggregates per-cell copies with operator+=, and
// metrics/export.cc serializes it as JSON for the perf-trajectory
// artifacts (BENCH_*.json). merge_sched_perf() folds one into a
// MetricsRegistry so the registry export subsumes the ad-hoc perf JSON.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.h"

namespace ncdrf {

struct SchedPerf {
  // allocate() invocations, split by how the per-coflow state was obtained.
  long long allocate_calls = 0;
  long long incremental_allocs = 0;  // served from event-maintained state
  long long full_rebuilds = 0;       // required an O(K·(F+L)) snapshot rescan

  // Delta notifications delivered by an event-driven driver.
  long long arrival_events = 0;
  long long flow_finish_events = 0;
  long long departure_events = 0;

  // Per-link state updates applied by delta notifications — the work the
  // event-driven path does *instead of* full rescans.
  long long links_touched = 0;

  // Debug cross-checks (event-maintained state vs a rebuild) that ran.
  long long consistency_checks = 0;

  // Work-conservation stage: rounds actually executed (a round that finds
  // no spare capacity is not counted) and the wall-clock of the
  // backfill-only work. For NC-DRF that is the residual→share prep and
  // rounds ≥ 2; round one's per-flow adds ride the base-rate pass and are
  // not in it.
  long long backfill_rounds = 0;
  double backfill_seconds = 0.0;

  // Total wall-clock spent inside allocate().
  double allocate_seconds = 0.0;

  // Sharded-path accounting (alloc/shard.h). One "region" is one parallel
  // dispatch over the shard pool; busy is the summed thread-CPU of every
  // shard task and critical is the per-region maximum summed over regions
  // — the modeled parallel wall-clock of the shard work, independent of
  // how many cores the host actually has. bench_scale gates its speedup
  // floor on serial CPU + critical, so the guard holds on single-core CI
  // runners too.
  long long shard_regions = 0;
  double shard_busy_seconds = 0.0;
  double shard_critical_seconds = 0.0;

  long long events() const {
    return arrival_events + flow_finish_events + departure_events;
  }

  void reset() { *this = SchedPerf{}; }
  SchedPerf& operator+=(const SchedPerf& other);
};

// Compact single-object JSON with one key per counter (deterministic key
// order, so outputs diff cleanly between runs).
std::string to_json(const SchedPerf& perf);

// Folds the counters into `registry` as "<prefix><counter>" counters and
// gauges (seconds totals become gauges) — the bridge that lets the
// registry's JSON export subsume the ad-hoc SchedPerf JSON.
void merge_sched_perf(obs::MetricsRegistry& registry, const SchedPerf& perf,
                      const std::string& prefix = "sched.");

// RAII accumulator for SchedPerf::allocate_seconds; optionally feeds the
// same duration into a latency histogram (obs::MetricsRegistry).
class AllocateTimer {
 public:
  explicit AllocateTimer(SchedPerf& perf, obs::Histogram* latency = nullptr)
      : perf_(perf),
        latency_(latency),
        start_(std::chrono::steady_clock::now()) {}
  ~AllocateTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    perf_.allocate_seconds += seconds;
    if (latency_ != nullptr) latency_->observe(seconds);
  }

  AllocateTimer(const AllocateTimer&) = delete;
  AllocateTimer& operator=(const AllocateTimer&) = delete;

 private:
  SchedPerf& perf_;
  obs::Histogram* latency_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ncdrf
