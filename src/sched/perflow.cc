#include "sched/perflow.h"

#include <chrono>

namespace ncdrf {

Allocation PerFlowScheduler::allocate(const ScheduleInput& input) {
  const auto start = std::chrono::steady_clock::now();
  perf_.allocate_calls += 1;
  const Fabric& fabric = *input.fabric;

  capacities_.resize(static_cast<std::size_t>(fabric.num_links()));
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  // Solve straight over the gathered columns — no per-flow record build,
  // no second endpoint resolution.
  Allocation alloc;
  const FlowTable& table =
      scratch_.gather(input, /*state=*/nullptr, GatherCounts::kNone);
  const WaterfillProblem problem{table.num_flows, table.up, table.dn,
                                 /*weight=*/nullptr};
  kernel_.solve(fabric, problem, capacities_, table.rate);
  KernelScratch::commit(table, alloc);
  perf_.allocate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return alloc;
}

}  // namespace ncdrf
