#include "sched/allocation.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "sched/scheduler.h"

namespace ncdrf {

double Allocation::total_rate() const {
  double total = 0.0;
  for (const double rate : rates_) total += rate;
  return total;
}

void Allocation::rehash(std::size_t slots) {
  index_.assign(slots, -1);
  shift_ = 64 - std::countr_zero(slots);
  const std::size_t mask = slots - 1;
  for (std::size_t pos = 0; pos < ids_.size(); ++pos) {
    std::size_t slot = home(ids_[pos]);
    while (index_[slot] >= 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::int32_t>(pos);
  }
}

void link_usage(const ScheduleInput& input, const Allocation& alloc,
                std::vector<double>& out) {
  const Fabric& fabric = *input.fabric;
  out.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      const double r = alloc.rate(flow.id);
      out[static_cast<std::size_t>(fabric.uplink(flow.src))] += r;
      out[static_cast<std::size_t>(fabric.downlink(flow.dst))] += r;
    }
  }
}

std::vector<double> link_usage(const ScheduleInput& input,
                               const Allocation& alloc) {
  std::vector<double> usage;
  link_usage(input, alloc, usage);
  return usage;
}

void check_capacity(const ScheduleInput& input, const Allocation& alloc,
                    double relative_tolerance) {
  const Fabric& fabric = *input.fabric;
  const std::vector<double> usage = link_usage(input, alloc);
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const double cap = fabric.capacity(i);
    if (usage[static_cast<std::size_t>(i)] >
        cap * (1.0 + relative_tolerance)) {
      std::ostringstream os;
      os << "link " << i << " oversubscribed: usage "
         << usage[static_cast<std::size_t>(i)] << " > capacity " << cap;
      NCDRF_CHECK(false, os.str());
    }
  }
}

void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc,
                       std::vector<double>& scratch) {
  const Fabric& fabric = *input.fabric;
  link_usage(input, alloc, scratch);
  // Turn the usage vector into a scale vector in place; skip the per-flow
  // rescale pass when every link is already feasible.
  bool any_over = false;
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (scratch[idx] > fabric.capacity(i)) {
      scratch[idx] = fabric.capacity(i) / scratch[idx];
      any_over = true;
    } else {
      scratch[idx] = 1.0;
    }
  }
  if (!any_over) return;
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      const double r = alloc.rate(flow.id);
      if (r <= 0.0) continue;
      const double s = std::min(
          scratch[static_cast<std::size_t>(fabric.uplink(flow.src))],
          scratch[static_cast<std::size_t>(fabric.downlink(flow.dst))]);
      if (s < 1.0) alloc.set_rate(flow.id, r * s);
    }
  }
}

void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc) {
  std::vector<double> scratch;
  clamp_to_capacity(input, alloc, scratch);
}

}  // namespace ncdrf
