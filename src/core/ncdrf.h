// NC-DRF — Non-Clairvoyant Dominant Resource Fairness.
//
// The paper's contribution (Sec. IV, Algorithm 1): a coflow scheduler that
// provides long-term isolation guarantees *without* knowing coflow sizes.
//
// Key idea: the per-link *flow count* n_k^i — observable a priori through
// the scheduler API (Aalo) or coflow identification (CODA) — is used in
// place of the unknown demand d_k^i. Because load-balanced data-parallel
// applications keep flow-size disparity within a coflow small, the
// flow-count correlation vector ĉ_k^i = n_k^i / n̄_k tracks the true
// demand correlation, and DRF can be run on it:
//
//   P̂* = 1 / max_i Σ_k ĉ_k^i            (Eq. 5; per-unit capacity)
//   every flow of coflow k gets rate r_k = P̂* / n̄_k
//
// so coflow k's aggregate on link i is ĉ_k^i · P̂* — proportional to its
// flow count, hence never mismatched across its coupled up/downlinks (the
// waste PS-P suffers in Fig. 4a cannot occur). A backfilling stage then
// redistributes any unused bandwidth evenly across active flows, capped by
// the coupled links (work conservation, Sec. IV-B).
//
// Guarantee (Theorem 1): offline, under the paper's assumptions, every
// coflow's CCT under NC-DRF is at most e_max times its CCT under
// clairvoyant DRF, where e_max is the largest intra-coflow demand
// disparity (Eq. 4).
//
// Online operation (NC-DRFOnline): the driver re-invokes allocate() on
// every coflow arrival/departure — and, in this implementation, on every
// flow completion, since finished flows leave the active snapshot and
// change the observable flow counts. The integer counts n_k^i and the
// per-link live totals live in the kernel layer's LinkLoadState, kept in
// sync by the driver's event hooks (KernelScheduler); a scheduler that
// never gets on_reset() rebuilds that state from every snapshot instead,
// with bitwise-identical results. Everything fractional (n̄_k, the load
// and usage vectors, P̂*) is derived afresh on each call, so nothing
// drifts between events.
#pragma once

#include <vector>

#include "alloc/kernel_scheduler.h"
#include "obs/perf.h"

namespace ncdrf {

struct NcDrfOptions {
  // Backfilling ("Retaining Work Conservation", Sec. IV-B). One round is
  // what the paper specifies; extra rounds are an ablation knob.
  bool work_conserving = true;
  int backfill_rounds = 1;

  // How n_k^i is counted in the online procedure.
  //
  // Default (true, "stale", Algorithm 1 read literally): NC-DRFOnline
  // reallocates on coflow arrival/departure, so a flow keeps counting
  // toward n_k^i until its whole coflow departs; the share reserved for
  // finished flows is recycled only by backfilling. This is the behaviour
  // that reproduces the paper's simulated results (the +68%-vs-DRF and
  // 1.7x-vs-PS-P headlines).
  //
  // When false ("live"), counts shrink as individual flows finish — the
  // adaptive variant the paper's EC2 prototype effectively implements
  // (slaves report completions, the master reallocates). It tracks
  // clairvoyant DRF almost exactly, answering the paper's future-work
  // question about shrinking the isolation ratio; available from the
  // registry as "ncdrf-live". bench_ablation_counting quantifies the gap.
  bool count_finished_flows = true;
};

class NcDrfScheduler : public KernelScheduler {
 public:
  explicit NcDrfScheduler(NcDrfOptions options = {});

  std::string name() const override { return "NC-DRF"; }

  // The whole point: NC-DRF never sees flow or coflow sizes.
  bool clairvoyant() const override { return false; }

  // Algorithm 1's allocBandwidth + backfilling for one snapshot. The
  // online procedure is this function re-run at every arrival/departure.
  // Debug builds audit the event-maintained counts against a rebuild of
  // the snapshot (LinkLoadState::check_consistent) on every call they
  // serve.
  Allocation allocate(const ScheduleInput& input) override;

  // P̂* (Eq. 5) for a snapshot, generalized to per-link capacities:
  // P̂* = min_i C_i / Σ_k ĉ_k^i. The from-scratch reference implementation,
  // exposed for tests and benches.
  static double flow_count_progress(const ScheduleInput& input,
                                    bool count_finished_flows = true);

  // Perf counters accumulated since construction; callers may reset().
  const SchedPerf& perf() const { return perf_; }
  SchedPerf& perf() { return perf_; }

  // Observability: allocate() emits nested spans (ncdrf_alloc →
  // correlation_build / p_star_search / backfill) to `tracer` and feeds
  // the allocate-latency histogram in `metrics`. Either may be null.
  void set_observers(obs::Tracer* tracer,
                     obs::MetricsRegistry* metrics) override;

 private:
  // Algorithm 1 lines 3-8 from the synced counts, in snapshot coflow
  // order: n̄_k into bottleneck_, Σ_k w_k·counted_k^i/n̄_k into load_ and
  // Σ_k w_k·live_k^i/n̄_k into usage_.
  void build_correlation(const ScheduleInput& input);

  NcDrfOptions options_;
  std::vector<int> bottleneck_;  // n̄_k, index-aligned with input.coflows
  std::vector<double> load_;     // the DRF load vector behind P̂* (Eq. 5)
  std::vector<double> usage_;    // × P̂* = link usage of the DRF stage
  std::vector<double> residual_;  // backfilling budget, then shares
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* alloc_latency_ = nullptr;
};

}  // namespace ncdrf
