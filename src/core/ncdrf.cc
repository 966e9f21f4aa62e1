#include "core/ncdrf.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "alloc/even_split.h"
#include "common/check.h"
#include "obs/tracer.h"

namespace ncdrf {
namespace {

// Flow counts per link for one coflow (Algorithm 1 lines 4-5) — the
// from-scratch reference used by flow_count_progress.
std::vector<int> coflow_link_counts(const Fabric& fabric,
                                    const ActiveCoflow& coflow,
                                    bool count_finished) {
  std::vector<int> counts(static_cast<std::size_t>(fabric.num_links()), 0);
  for (const ActiveFlow& f : coflow.flows) {
    counts[static_cast<std::size_t>(fabric.uplink(f.src))] += 1;
    counts[static_cast<std::size_t>(fabric.downlink(f.dst))] += 1;
  }
  if (count_finished) {
    for (const ActiveFlow& f : coflow.finished_flows) {
      counts[static_cast<std::size_t>(fabric.uplink(f.src))] += 1;
      counts[static_cast<std::size_t>(fabric.downlink(f.dst))] += 1;
    }
  }
  return counts;
}

// Adds the wall-clock of its scope to SchedPerf::backfill_seconds.
class BackfillClock {
 public:
  explicit BackfillClock(SchedPerf& perf)
      : perf_(perf), start_(std::chrono::steady_clock::now()) {}
  ~BackfillClock() {
    perf_.backfill_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }
  BackfillClock(const BackfillClock&) = delete;
  BackfillClock& operator=(const BackfillClock&) = delete;

 private:
  SchedPerf& perf_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

NcDrfScheduler::NcDrfScheduler(NcDrfOptions options)
    : KernelScheduler(options.count_finished_flows), options_(options) {
  NCDRF_CHECK(options_.backfill_rounds >= 0,
              "backfill rounds must be non-negative");
}

double NcDrfScheduler::flow_count_progress(const ScheduleInput& input,
                                           bool count_finished_flows) {
  const Fabric& fabric = *input.fabric;
  // Σ_k ĉ_k^i per link (Algorithm 1 lines 3-8), then
  // P̂* = min_i C_i / Σ_k ĉ_k^i (line 9; Eq. 5 with unit capacities).
  std::vector<double> load(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    NCDRF_CHECK(coflow.weight > 0.0, "coflow weights must be positive");
    const std::vector<int> counts =
        coflow_link_counts(fabric, coflow, count_finished_flows);
    const int bottleneck = *std::max_element(counts.begin(), counts.end());
    if (bottleneck == 0) continue;
    for (std::size_t i = 0; i < load.size(); ++i) {
      load[i] += coflow.weight * counts[i] / bottleneck;
    }
  }
  double p_star = std::numeric_limits<double>::infinity();
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (load[idx] > 0.0) {
      p_star = std::min(p_star, fabric.capacity(i) / load[idx]);
    }
  }
  return std::isfinite(p_star) ? p_star : 0.0;
}

void NcDrfScheduler::set_observers(obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  // Allocate latencies span sub-microsecond (small snapshots) to
  // milliseconds (cold rebuilds at scale); the geometry keeps that whole
  // range in ~160 buckets at the default 10^(1/10) growth.
  alloc_latency_ =
      metrics != nullptr
          ? &metrics->histogram("sched.allocate_latency_s", 1e-8, 10.0,
                                1.2589254117941673)
          : nullptr;
}

void NcDrfScheduler::build_correlation(const ScheduleInput& input) {
  const auto links = static_cast<std::size_t>(input.fabric->num_links());
  load_.assign(links, 0.0);
  usage_.assign(links, 0.0);
  bottleneck_.clear();
  for (const ActiveCoflow& coflow : input.coflows) {
    // sync() has made the state cover every snapshot coflow.
    const LinkLoadState::CoflowLoad& cs = *state_.find(coflow.id);
    int n_bar = 0;
    for (const LinkId l : cs.touched) {
      n_bar = std::max(n_bar, cs.counted[static_cast<std::size_t>(l)]);
    }
    bottleneck_.push_back(n_bar);
    if (n_bar == 0) continue;
    for (const LinkId l : cs.touched) {
      const auto i = static_cast<std::size_t>(l);
      // Per-link division (not a precomputed w/n̄ factor) keeps load_
      // bitwise identical to flow_count_progress's full-scan sum. Live
      // counts equal counted ones unless flows finished under stale
      // counting, so the second division is usually the first.
      const double counted = cs.weight * cs.counted[i] / n_bar;
      load_[i] += counted;
      usage_[i] += cs.live[i] == cs.counted[i]
                       ? counted
                       : cs.weight * cs.live[i] / n_bar;
    }
  }
}

Allocation NcDrfScheduler::allocate(const ScheduleInput& input) {
  // Non-clairvoyance by construction: this function must compile and run
  // without ever touching input.clairvoyant.
  const AllocateTimer timer(perf_, alloc_latency_);
  ++perf_.allocate_calls;
  Allocation alloc;

  [[maybe_unused]] const bool rebuilt = sync(input);
#ifndef NDEBUG
  if (!rebuilt) {
    state_.check_consistent(input);
    ++perf_.consistency_checks;
  }
#endif
  NCDRF_TRACE_SPAN(tracer_, obs::EventKind::kNcDrfAlloc, input.now,
                   rebuilt ? 0 : 1,
                   static_cast<std::int64_t>(input.coflows.size()));
  {
    NCDRF_TRACE_SPAN(tracer_, obs::EventKind::kCorrelationBuild, input.now,
                     static_cast<std::int64_t>(input.coflows.size()));
    build_correlation(input);
  }

#if NCDRF_TRACE_ENABLED
  if (tracer_ != nullptr) {
    tracer_->begin(obs::EventKind::kPStarSearch, input.now);
  }
#endif
  // P̂* = min_i C_i / load_i over loaded links (Algorithm 1 line 9), and
  // its arg-min link for the trace.
  const Fabric& fabric = *input.fabric;
  double p_star = std::numeric_limits<double>::infinity();
  [[maybe_unused]] LinkId bottleneck_link = -1;
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const double load = load_[static_cast<std::size_t>(i)];
    if (load > 0.0 && fabric.capacity(i) / load < p_star) {
      p_star = fabric.capacity(i) / load;
      bottleneck_link = i;
    }
  }
  if (!std::isfinite(p_star)) p_star = 0.0;
#if NCDRF_TRACE_ENABLED
  if (tracer_ != nullptr) {
    tracer_->end(obs::EventKind::kPStarSearch, input.now, bottleneck_link,
                 0, p_star);
  }
#endif
  if (p_star <= 0.0) return alloc;

  // Backfilling round one needs only O(L) state available before any flow
  // is touched: residual_i = C_i − P̂*·usage_i, divided evenly among each
  // link's live flows. Converting it to the per-link share vector here
  // lets the base DRF rate and the first backfill round land in a single
  // O(flows) pass below — set_rate(r_k + w) is bitwise identical to
  // set_rate(r_k) followed by add_rate(w).
  bool any_spare = false;
  const bool backfilling =
      options_.work_conserving && options_.backfill_rounds > 0;
  if (backfilling) {
#if NCDRF_TRACE_ENABLED
    if (tracer_ != nullptr) {
      tracer_->begin(obs::EventKind::kBackfill, input.now);
    }
#endif
    const BackfillClock clock(perf_);
    residual_.resize(load_.size());
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      residual_[idx] = fabric.capacity(i) - p_star * usage_[idx];
    }
    any_spare = even_split_shares(state_.live_link_counts(), residual_);
  }

  // Algorithm 1 lines 10-15: every flow of coflow k runs at
  // r_k = w_k · P̂*/n̄_k, so the coflow's aggregate on link i is
  // w_k · ĉ_k^i · P̂* (weights default to 1, recovering the paper's form).
  alloc.reserve(static_cast<std::size_t>(live_flows_hint(input)));
  for (std::size_t k = 0; k < input.coflows.size(); ++k) {
    const ActiveCoflow& coflow = input.coflows[k];
    if (coflow.flows.empty()) continue;
    const double r_k = coflow.weight * p_star / bottleneck_[k];
    if (any_spare) {
      for (const ActiveFlow& f : coflow.flows) {
        const double w = std::min(
            residual_[static_cast<std::size_t>(fabric.uplink(f.src))],
            residual_[static_cast<std::size_t>(fabric.downlink(f.dst))]);
        alloc.set_rate(f.id, r_k + w);
      }
    } else {
      for (const ActiveFlow& f : coflow.flows) alloc.set_rate(f.id, r_k);
    }
  }

  // Rounds beyond the first work from actual usage (ablation configs
  // only).
  int rounds_done = any_spare ? 1 : 0;
  if (any_spare && options_.backfill_rounds > 1) {
    const BackfillClock clock(perf_);
    rounds_done += even_split_backfill(input, alloc,
                                       options_.backfill_rounds - 1,
                                       state_.live_link_counts(), residual_);
  }
  if (backfilling) {
    perf_.backfill_rounds += rounds_done;
#if NCDRF_TRACE_ENABLED
    if (tracer_ != nullptr) {
      tracer_->end(obs::EventKind::kBackfill, input.now, rounds_done);
    }
#endif
  }
  return alloc;
}

}  // namespace ncdrf
