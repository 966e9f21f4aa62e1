// The paper's work-conserving backfilling stage (Sec. IV-B, "Retaining Work
// Conservation"): unused bandwidth on each link is divided evenly among all
// active flows on that link, and each flow receives the minimum of its
// uplink and downlink shares:
//
//   w_k^{ij} = min( u^i / Σ_k n_k^i ,  u^j / Σ_k n_k^j )
//
// where u^i is the unused bandwidth on link i. This is an even split, not
// the max-min ResidualBackfill the priority schedulers use. One round is
// what Algorithm 1 describes; additional rounds converge toward full
// utilization and are exposed for the ablation bench.
#pragma once

#include <vector>

#include "sched/scheduler.h"

namespace ncdrf {

// Turns per-link residual capacity into per-flow shares in place:
// share_i = max(residual_i, 0) / live_counts_i where both are positive,
// else 0. Returns false when no link has a positive share (nothing to
// backfill). Both vectors are indexed by LinkId and equally sized.
bool even_split_shares(const std::vector<int>& live_counts,
                       std::vector<double>& residual);

// Runs up to `rounds` even-split rounds on top of `alloc`, in place, each
// from the capacity the current rates leave unused. `live_counts` holds
// every link's active-flow total; `scratch` is reused across calls. Never
// oversubscribes a link. Returns the number of rounds that moved
// bandwidth: a round finding no spare capacity stops the loop and is not
// counted.
int even_split_backfill(const ScheduleInput& input, Allocation& alloc,
                        int rounds, const std::vector<int>& live_counts,
                        std::vector<double>& scratch);

}  // namespace ncdrf
