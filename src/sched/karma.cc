#include "sched/karma.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"

namespace ncdrf {

void KarmaScheduler::on_reset(const Fabric& fabric) {
  KernelScheduler::on_reset(fabric);
  live_.clear();
  credits_bits_.clear();
  used_bps_.clear();
  last_now_ = -1.0;
}

Allocation KarmaScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  const Fabric& fabric = *input.fabric;
  sync(input);

  // Active entities and their live-flow counts, from the snapshot (same
  // coflow-major order the gather below walks).
  live_.clear();
  for (const ActiveCoflow& coflow : input.coflows) {
    live_[key(coflow)] += static_cast<int>(coflow.flows.size());
  }

  Allocation alloc;
  if (live_.empty()) {
    last_now_ = input.now;
    used_bps_.clear();
    return alloc;
  }

  // Equal share on aggregate egress capacity — the reference rate credits
  // are earned and spent against.
  double total_cap = 0.0;
  for (MachineId m = 0; m < fabric.num_machines(); ++m) {
    total_cap += fabric.capacity(fabric.uplink(m));
  }
  const double fair_bps = total_cap / static_cast<double>(live_.size());
  const double cap_bits = options_.credit_cap_s * fair_bps;

  // Credit pass: donors (used < fair share since the last allocation)
  // bank the slack, borrowers pay it down; banks clamp to [0, cap].
  const double dt = last_now_ >= 0.0 ? std::max(input.now - last_now_, 0.0)
                                     : 0.0;
  if (dt > 0.0) {
    for (const auto& [k, n] : live_) {
      (void)n;
      const auto used = used_bps_.find(k);
      const double used_rate = used != used_bps_.end() ? used->second : 0.0;
      double& bank = credits_bits_[k];
      bank = std::clamp(bank + dt * (fair_bps - used_rate), 0.0, cap_bits);
    }
  }
  last_now_ = input.now;
  // Per-coflow fallback entities never return once their coflow leaves;
  // drop their banks so unattributed workloads cannot grow state forever.
  std::erase_if(credits_bits_, [&](const auto& entry) {
    return entry.first >= (1LL << 32) && !live_.contains(entry.first);
  });

  capacities_.resize(static_cast<std::size_t>(fabric.num_links()));
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  // Weight column: each flow claims W_t / n_t so the tenant's aggregate
  // claim is W_t — invariant under splitting demand across coflows/flows.
  const FlowTable& table =
      scratch_.gather(input, /*state=*/nullptr, GatherCounts::kNone);
  double* weight = scratch_.arena().alloc<double>(table.num_flows);
  std::size_t row = 0;
  for (const ActiveCoflow& coflow : input.coflows) {
    const long long k = key(coflow);
    const double bank =
        cap_bits > 0.0 ? credits_bits_[k] / cap_bits : 0.0;
    const double w = (1.0 + options_.borrow_boost * bank) /
                     static_cast<double>(live_.at(k));
    for (std::size_t f = 0; f < coflow.flows.size(); ++f) weight[row++] = w;
  }
  const WaterfillProblem problem{table.num_flows, table.up, table.dn,
                                 weight};
  kernel_.solve(fabric, problem, capacities_, table.rate);
  KernelScratch::commit(table, alloc);

  // Record realized per-entity rates for the next credit pass.
  used_bps_.clear();
  row = 0;
  for (const ActiveCoflow& coflow : input.coflows) {
    double sum = 0.0;
    for (std::size_t f = 0; f < coflow.flows.size(); ++f) {
      sum += table.rate[row++];
    }
    used_bps_[key(coflow)] += sum;
  }
  return alloc;
}

}  // namespace ncdrf
