// Allocation: the result of one scheduling decision — a rate (bps) for each
// active flow — plus the validation helpers every policy's output must pass
// (capacity feasibility on all 2m links).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "coflow/flow.h"
#include "common/check.h"
#include "fabric/fabric.h"

namespace ncdrf {

struct ActiveFlow;
struct ScheduleInput;

// Rates are packed in insertion order (`ids_`, `rates_`), and an
// open-addressing index maps a FlowId to its position. Building, copying
// and freeing an allocation therefore costs O(flows written), not
// O(largest flow id): every allocate() returns a fresh one, and live ids
// on a long trace or a serving run sit far above the live-flow count.
// "Never mentioned" stays distinct from "explicitly rate 0" (has_rate).
//
// The index is a power-of-two table of int32 positions (-1 = empty) with
// linear probing, a Fibonacci hash and a load factor of at most 1/2. The
// multiplicative hash matters: traces number flows near-sequentially, and
// an identity hash (id & mask) makes such ids cluster into long probe runs.
//
// The accessors are defined inline: every policy's allocate(), the
// backfilling stages and the simulator engine each make one call per flow
// per event, so out-of-line call overhead here is measurable at trace
// scale (it showed up as ~20% of the engine replay profile).
class Allocation {
 public:
  // Sets the rate for a flow (replacing any previous value). Rates must be
  // non-negative and finite.
  void set_rate(FlowId flow, double rate_bps) {
    NCDRF_CHECK(std::isfinite(rate_bps) && rate_bps >= 0.0,
                "flow rate must be finite and non-negative");
    const auto [entry, inserted] = insert(flow, rate_bps);
    if (!inserted) *entry = rate_bps;
  }

  // Adds to the flow's current rate (used by backfilling stages).
  void add_rate(FlowId flow, double rate_bps) {
    NCDRF_CHECK(std::isfinite(rate_bps) && rate_bps >= 0.0,
                "flow rate increment must be finite and non-negative");
    const auto [entry, inserted] = insert(flow, rate_bps);
    if (!inserted) *entry += rate_bps;
  }

  // Sizes the columns and the index for `num_flows` distinct flows at
  // once, so the bulk set_rate pass in allocate() never rehashes.
  void reserve(std::size_t num_flows) {
    ids_.reserve(num_flows);
    rates_.reserve(num_flows);
    const std::size_t slots = index_slots(num_flows);
    if (slots > index_.size()) rehash(slots);
  }

  // Rate for a flow; 0 for flows never mentioned.
  double rate(FlowId flow) const {
    const std::int32_t pos = position(flow);
    return pos < 0 ? 0.0 : rates_[static_cast<std::size_t>(pos)];
  }

  // True once set_rate/add_rate has been called for the flow, even with 0.
  bool has_rate(FlowId flow) const { return position(flow) >= 0; }

  // Number of flows with an assigned rate.
  std::size_t num_flows() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  // Sum of all flow rates in insertion order (total fabric throughput
  // contribution; each flow counted once, so total link usage is twice
  // this).
  double total_rate() const;

 private:
  // Index slots for `n` entries at load factor <= 1/2 (0 for none).
  static std::size_t index_slots(std::size_t n) {
    if (n == 0) return 0;
    std::size_t slots = 16;
    while (slots < 2 * n) slots *= 2;
    return slots;
  }

  // Home slot of `flow`: the top log2(slots) bits of id * 2^64/phi.
  std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
  }

  // Position of `flow` in the columns, or -1 when it has no rate.
  std::int32_t position(FlowId flow) const {
    if (flow < 0 || ids_.empty()) return -1;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t slot = home(flow);; slot = (slot + 1) & mask) {
      const std::int32_t pos = index_[slot];
      if (pos < 0 || ids_[static_cast<std::size_t>(pos)] == flow) return pos;
    }
  }

  // The flow's rate entry, appended with `rate_bps` when it had none;
  // `inserted` says which.
  std::pair<double*, bool> insert(FlowId flow, double rate_bps) {
    NCDRF_CHECK(flow >= 0, "flow ids must be non-negative");
    if (2 * (ids_.size() + 1) > index_.size()) {
      rehash(index_slots(ids_.size() + 1));
    }
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = home(flow);
    for (;; slot = (slot + 1) & mask) {
      const std::int32_t pos = index_[slot];
      if (pos < 0) break;
      if (ids_[static_cast<std::size_t>(pos)] == flow) {
        return {&rates_[static_cast<std::size_t>(pos)], false};
      }
    }
    index_[slot] = static_cast<std::int32_t>(ids_.size());
    ids_.push_back(flow);
    rates_.push_back(rate_bps);
    return {&rates_.back(), true};
  }

  // Rebuilds the index with `slots` slots (a power of two >= 16).
  void rehash(std::size_t slots);

  std::vector<FlowId> ids_;          // insertion order
  std::vector<double> rates_;        // rates_[i] belongs to ids_[i]
  std::vector<std::int32_t> index_;  // slot -> position in ids_; -1 = empty
  int shift_ = 64;                   // 64 - log2(index_.size())
};

// Aggregate usage per link implied by `alloc` over the snapshot's flows,
// indexed by LinkId.
std::vector<double> link_usage(const ScheduleInput& input,
                               const Allocation& alloc);

// As above but accumulates into `out` (zero-filled to the link count), so
// per-event callers can reuse one buffer instead of allocating per call.
void link_usage(const ScheduleInput& input, const Allocation& alloc,
                std::vector<double>& out);

// Throws CheckError if any link's usage exceeds its capacity beyond a
// relative tolerance. Call after every allocate() in debug paths and tests.
void check_capacity(const ScheduleInput& input, const Allocation& alloc,
                    double relative_tolerance = 1e-6);

// Scales rates down (never up) so that no link exceeds capacity: each flow
// rate is multiplied by min over its two links of (capacity / usage, 1).
// Used to make numerically borderline allocations exactly feasible.
void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc);

// As above with a caller-owned scratch buffer for the usage/scale vector.
// When every link is within capacity (the common case for well-behaved
// policies) this is one accumulation pass and an O(links) check — the
// per-flow rescale pass is skipped entirely.
void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc,
                       std::vector<double>& scratch);

}  // namespace ncdrf
