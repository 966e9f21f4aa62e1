// Persistent per-coflow per-link flow-count state shared by NC-DRF and
// the kernel-backed baselines (the allocation-kernel layer's answer to the
// dense num_coflows × num_links matrices the policies used to rebuild on
// every allocate() call).
//
// The state tracks only integer quantities, so the incremental path is
// *exact*: a sequence of delta updates always reproduces what a
// from-scratch rebuild of the same snapshot would produce, bit for bit.
// Fractional quantities built on it (NC-DRF's n̄_k and load vectors) are
// derived per call by their policy, so they cannot drift either. Tracked
// per coflow k:
//
//   * counted[i] — flows of k on link i, including finished flows when
//     `count_finished_flows` (Algorithm 1's and PS-P's "stale"
//     semantics): NC-DRF's n_k^i;
//   * live[i]    — unfinished flows of k on link i (what HUG, Baraat,
//     Aalo and FIFO divide by);
//   * touched    — links where counted[i] ever became positive, so
//     per-coflow sweeps cost O(links the coflow uses), not O(links).
//
// Globally: per-link live-flow totals (the per-flow fairness and
// backfilling denominator) and the number of coflows with counted[i] > 0
// (PS-P's inter-coflow split denominator).
//
// Delta updates cost O(links touched by the event); rebuild() is the
// O(K·(F+L)) from-scratch reference, kept as the fallback for drivers
// that never deliver events and as the oracle for check_consistent().
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.h"

namespace ncdrf {

class LinkLoadState {
 public:
  // Per-coflow link loads, exposed read-only to the policies.
  struct CoflowLoad {
    double weight = 1.0;
    int live_flows = 0;     // |unfinished flows|
    int counted_flows = 0;  // flows contributing to `counted`
    std::vector<int> counted;     // includes finished flows when stale
    std::vector<int> live;        // unfinished flows only
    std::vector<LinkId> touched;  // links where counted ever became > 0
  };

  // `count_finished_flows` selects PS-P's presence semantics: when true,
  // finished flows keep contributing to `counted` (and to the per-link
  // coflow presence) until their coflow departs; when false, counted
  // tracks live flows only.
  explicit LinkLoadState(bool count_finished_flows);

  // Forgets all tracked coflows and binds the state to `fabric`.
  void reset(const Fabric& fabric);

  // Delta updates. Each returns the number of per-link state entries it
  // wrote — the "links touched" the perf layer reports.
  std::size_t add_coflow(const ActiveCoflow& coflow);
  std::size_t finish_flow(const ActiveFlow& flow);
  std::size_t remove_coflow(CoflowId id);

  // Full from-scratch rebuild; also adopts snapshots from drivers that
  // never deliver events.
  void rebuild(const ScheduleInput& input);

  // Cheap structural check (O(K) hash lookups) that the tracked state
  // covers `input`: same fabric, same coflow ids/weights, same live and
  // counted flow cardinalities. Policies trust the state only when this
  // passes, so stale state degrades to a rebuild, never to wrong shares.
  bool matches(const ScheduleInput& input) const;

  // Per-coflow loads; nullptr for untracked ids.
  const CoflowLoad* find(CoflowId id) const {
    const auto it = coflows_.find(id);
    return it == coflows_.end() ? nullptr : &it->second;
  }

  // Per-link live (unfinished) flow totals over all coflows.
  const std::vector<int>& live_link_counts() const {
    return live_link_counts_;
  }

  // Number of coflows with counted[i] > 0, per link (PS-P's
  // coflows_on_link).
  const std::vector<int>& counted_coflows_on_link() const {
    return counted_coflows_on_link_;
  }

  std::size_t num_coflows() const { return coflows_.size(); }
  bool bound() const { return fabric_ != nullptr; }
  bool count_finished_flows() const { return count_finished_flows_; }

  // Debug oracle: every tracked quantity must equal a fresh rebuild of
  // `input` exactly (all state is integral). Throws CheckError on
  // divergence.
  void check_consistent(const ScheduleInput& input) const;

 private:
  static std::size_t index(LinkId link) {
    return static_cast<std::size_t>(link);
  }

  // Counts one flow in (+1) or out (-1) of `cs`, maintaining the global
  // per-link vectors; `counted_delta` is 0 for finish events under stale
  // counting (the flow stays counted), else matches `sign`.
  void apply_flow(CoflowLoad& cs, MachineId src, MachineId dst, int sign,
                  int counted_delta);

  const Fabric* fabric_ = nullptr;
  bool count_finished_flows_;
  std::unordered_map<CoflowId, CoflowLoad> coflows_;
  std::vector<int> live_link_counts_;
  std::vector<int> counted_coflows_on_link_;
};

}  // namespace ncdrf
