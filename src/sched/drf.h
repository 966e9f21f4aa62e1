// DRF baseline (Ghodsi et al., NSDI'11), as used for coflows by HUG:
// clairvoyant, isolation-optimal fair sharing (paper Sec. II-B, Eq. 2).
//
// At every event the correlation vector c_k is recomputed from each
// coflow's *remaining* demand and every coflow's progress is raised to the
// common maximum P* = min_i C_i / Σ_k c_k^i (Eq. 2 with unit capacities).
// Intra-coflow, each flow is given rate ∝ its remaining size so that all
// of a coflow's flows — and all links it uses — finish simultaneously;
// this keeps the instantaneous progress of every coflow exactly equal
// (disparity 1, the Fig. 5a reference line).
//
// Demand vectors come from the kernel layer's DemandCache: one
// remaining-demand computation per coflow per call instead of the two the
// legacy implementation paid (P* pass + rate pass).
#pragma once

#include <memory>

#include "alloc/demand_cache.h"
#include "alloc/shard.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace ncdrf {

class DrfScheduler : public Scheduler {
 public:
  explicit DrfScheduler(SchedulerOptions sched_options = {})
      : runtime_(ShardRuntime::create(sched_options)) {}

  std::string name() const override { return "DRF"; }
  bool clairvoyant() const override { return true; }
  Allocation allocate(const ScheduleInput& input) override;
  const SchedPerf* perf_counters() const override { return &perf_; }

  // The optimal isolation guarantee P* (Eq. 2) for the snapshot, in
  // progress units (bps on the bottleneck of a unit-correlation coflow).
  // Exposed for tests and for HUG's second stage.
  static double optimal_progress(const ScheduleInput& input);

 private:
  DemandCache cache_;
  std::unique_ptr<ShardRuntime> runtime_;  // null on the serial path
  SchedPerf perf_;
};

}  // namespace ncdrf
