// Per-flow fairness ("TCP") baseline: network-wide max-min fair sharing
// over individual flows, agnostic to the coflow abstraction (paper
// Sec. II-B / III-B). This is the fluid-model steady state of many TCP
// flows sharing the fabric edge links: highest utilization of all policies
// (Fig. 5b) but no application-level isolation — a coflow with more flows
// grabs proportionally more bandwidth.
#pragma once

#include <vector>

#include "alloc/kernel_scratch.h"
#include "alloc/waterfill.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace ncdrf {

class PerFlowScheduler : public Scheduler {
 public:
  std::string name() const override { return "TCP"; }
  bool clairvoyant() const override { return false; }
  Allocation allocate(const ScheduleInput& input) override;
  const SchedPerf* perf_counters() const override { return &perf_; }

 private:
  // Water-filling kernel plus scratch, reused across allocate() calls so
  // the hot path performs no per-call vector growth once warmed up; the
  // solve runs directly over the gathered SoA columns.
  WaterfillKernel kernel_;
  KernelScratch scratch_;
  std::vector<double> capacities_;
  SchedPerf perf_;
};

}  // namespace ncdrf
