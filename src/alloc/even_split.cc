#include "alloc/even_split.h"

#include <algorithm>

#include "alloc/waterfill.h"
#include "common/check.h"

namespace ncdrf {

bool even_split_shares(const std::vector<int>& live_counts,
                       std::vector<double>& residual) {
  bool any_spare = false;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    const double unused = std::max(residual[i], 0.0);
    if (live_counts[i] > 0 && unused > 0.0) {
      residual[i] = unused / live_counts[i];
      any_spare = true;
    } else {
      residual[i] = 0.0;
    }
  }
  return any_spare;
}

int even_split_backfill(const ScheduleInput& input, Allocation& alloc,
                        int rounds, const std::vector<int>& live_counts,
                        std::vector<double>& scratch) {
  NCDRF_CHECK(rounds >= 0, "backfill rounds must be non-negative");
  const Fabric& fabric = *input.fabric;
  const auto links = static_cast<std::size_t>(fabric.num_links());
  NCDRF_CHECK(live_counts.size() == links, "live counts must cover all links");
  for (int round = 0; round < rounds; ++round) {
    residual_capacity(input, alloc, scratch);
    if (!even_split_shares(live_counts, scratch)) return round;
    for (const ActiveCoflow& coflow : input.coflows) {
      for (const ActiveFlow& flow : coflow.flows) {
        const auto u = static_cast<std::size_t>(fabric.uplink(flow.src));
        const auto d = static_cast<std::size_t>(fabric.downlink(flow.dst));
        const double w = std::min(scratch[u], scratch[d]);
        if (w > 0.0) alloc.add_rate(flow.id, w);
      }
    }
  }
  return rounds;
}

}  // namespace ncdrf
