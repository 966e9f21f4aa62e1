// Sorted-saturation water-filling: the allocation-kernel layer's weighted
// max-min solver (classic bottleneck algorithm, cf. Bertsekas & Gallager
// §6.5.2) shared by the per-flow/endpoint fairness policies and every
// priority scheduler's residual backfilling pass.
//
// The legacy solver ran a round loop — rescan all links for the smallest
// residual/weight, raise every unfrozen flow, rescan all flows for freeze
// candidates — which is O((F+L)·rounds) with up to L+1 rounds. The kernel
// pops links from a min-heap of saturation levels instead: each pop
// freezes that link's unfrozen flows at the current fill level Θ (their
// final rate is weight·Θ) and re-keys the one other link each frozen flow
// crosses.
//
// The heap is *indexed*: one slot per link with an in-place
// increase-key/remove (position map pos_), so it never holds more than L
// entries. The earlier lazy-invalidation variant pushed a fresh versioned
// entry on every re-key — one per flow freeze — growing the heap to ~F
// entries and making the solve O(F·log F); with F in the tens of
// thousands and L a few hundred, the indexed heap's O(F + L·log L) is the
// difference between the solver and the snapshot walk dominating a call.
// Valid keys are identical in both schemes and ties break on link id, so
// the pop order — and therefore every freeze and every rate — is bitwise
// unchanged.
//
// The core solve consumes a structure-of-arrays problem (parallel
// up/dn/weight columns, see alloc/kernel_scratch.h): the CSR build and
// freeze sweeps run over flat int32/double arrays with no per-flow Fabric
// checks, so the saturation updates vectorize. The AoS WaterfillFlow entry
// point remains as a thin adapter for the AoS backfill and the tests.
//
// Freeze semantics replicate the legacy solver's tolerance rule exactly
// (a link whose residual falls within 1e-9·max(avail, 1) of zero is
// saturated), so the two solvers freeze the same flows at the same fill
// levels and rates agree to floating-point accumulation order.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/kernel_scratch.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct WaterfillFlow {
  FlowId id = -1;
  MachineId src = -1;
  MachineId dst = -1;
  double weight = 1.0;  // must be positive
};

// One max-min problem in structure-of-arrays form: index-aligned endpoint
// columns (pre-validated LinkIds) and an optional weight column — null
// means unit weights, letting the backfill pass skip the weight loads
// entirely.
struct WaterfillProblem {
  std::size_t num_flows = 0;
  const std::int32_t* up = nullptr;
  const std::int32_t* dn = nullptr;
  const double* weight = nullptr;  // null = all 1.0; else all positive
};

class WaterfillKernel {
 public:
  // Computes weighted max-min rates for `flows` given per-link available
  // capacity `available_bps` (indexed by LinkId; entries may be 0), into
  // `rates_out` (resized; index-aligned with `flows`). The allocation
  // saturates every link that constrains any flow. All scratch buffers are
  // members, so steady-state calls allocate nothing.
  void solve(const Fabric& fabric, const std::vector<WaterfillFlow>& flows,
             const std::vector<double>& available_bps,
             std::vector<double>& rates_out);

  // SoA core the adapter above feeds. `rates_out` must hold
  // problem.num_flows entries; it is zero-filled and then written once
  // per flow at its freeze.
  void solve(const Fabric& fabric, const WaterfillProblem& problem,
             const std::vector<double>& available_bps, double* rates_out);

 private:
  // (key, link-id)-lexicographic min ordering — the same total order the
  // lazy heap's comparator induced on valid entries.
  bool heap_less(std::int32_t a, std::int32_t b) const {
    if (key_[static_cast<std::size_t>(a)] !=
        key_[static_cast<std::size_t>(b)]) {
      return key_[static_cast<std::size_t>(a)] <
             key_[static_cast<std::size_t>(b)];
    }
    return a < b;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(std::int32_t link);
  void heap_remove(std::int32_t link);
  std::int32_t heap_pop_root();

  // CSR adjacency: link → indices into the flow columns.
  std::vector<std::int32_t> csr_offsets_;
  std::vector<std::int32_t> csr_flows_;
  std::vector<std::int32_t> csr_cursor_;

  // Per-link solver state, indexed by LinkId.
  std::vector<double> weight_;      // unfrozen weight crossing the link
  std::vector<double> avail_;       // residual capacity at theta_last
  std::vector<double> theta_last_;  // fill level avail_/weight_ refer to
  std::vector<double> tol_;         // legacy freeze tolerance
  std::vector<double> key_;         // saturation level while heaped
  std::vector<std::int32_t> pos_;   // heap position; -1 = not in heap
  std::vector<std::int32_t> heap_;  // link ids, binary-heap ordered

  std::vector<char> frozen_flow_;

  // AoS adapter columns.
  std::vector<std::int32_t> up_;
  std::vector<std::int32_t> dn_;
  std::vector<double> w_;
};

// Writes capacity − usage per link into `out` (resized), accumulating the
// snapshot's flow rates in coflow-major order — the residual every
// backfilling pass starts from. Entries are not clamped; callers decide
// how to treat numerically negative residuals.
void residual_capacity(const ScheduleInput& input, const Allocation& alloc,
                       std::vector<double>& out);

// SoA twin: the same accumulation over a FlowTable's rate column (the
// table's rows are already coflow-major, so sums land in the same order).
void residual_capacity(const Fabric& fabric, const FlowTable& table,
                       std::vector<double>& out);

// Work-conserving last pass for the priority schedulers: water-fills the
// residual capacity left by the current rates max-min fairly (unit
// weights) across every active flow and adds the result in place.
// Equivalent to the legacy max_min_backfill; a persistent instance reuses
// all scratch.
class ResidualBackfill {
 public:
  void run(const ScheduleInput& input, Allocation& alloc);

  // SoA path: residual from (and fill added into) the table's rate
  // column; no Allocation traffic until the caller commits.
  void run(const Fabric& fabric, const FlowTable& table);

 private:
  WaterfillKernel kernel_;
  std::vector<WaterfillFlow> flows_;
  std::vector<double> residual_;
  std::vector<double> rates_;
};

}  // namespace ncdrf
