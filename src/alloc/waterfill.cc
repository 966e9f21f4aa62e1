#include "alloc/waterfill.h"

#include <algorithm>

#include "common/check.h"

namespace ncdrf {
namespace {

// The legacy solver froze every flow crossing a link whose residual fell
// within this band of zero; the kernel replicates the rule so both freeze
// the same flows at the same fill levels.
double freeze_tolerance(double available_bps) {
  return 1e-9 * std::max(available_bps, 1.0);
}

}  // namespace

void WaterfillKernel::sift_up(std::size_t i) {
  const std::int32_t link = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(link, heap_[parent])) break;
    heap_[i] = heap_[parent];
    pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = link;
  pos_[static_cast<std::size_t>(link)] = static_cast<std::int32_t>(i);
}

void WaterfillKernel::sift_down(std::size_t i) {
  const std::int32_t link = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!heap_less(heap_[child], link)) break;
    heap_[i] = heap_[child];
    pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = link;
  pos_[static_cast<std::size_t>(link)] = static_cast<std::int32_t>(i);
}

void WaterfillKernel::heap_push(std::int32_t link) {
  heap_.push_back(link);
  pos_[static_cast<std::size_t>(link)] =
      static_cast<std::int32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void WaterfillKernel::heap_remove(std::int32_t link) {
  const auto i = static_cast<std::size_t>(pos_[static_cast<std::size_t>(link)]);
  pos_[static_cast<std::size_t>(link)] = -1;
  const std::int32_t moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = moved;
  pos_[static_cast<std::size_t>(moved)] = static_cast<std::int32_t>(i);
  sift_down(i);
  sift_up(static_cast<std::size_t>(pos_[static_cast<std::size_t>(moved)]));
}

std::int32_t WaterfillKernel::heap_pop_root() {
  const std::int32_t root = heap_[0];
  pos_[static_cast<std::size_t>(root)] = -1;
  const std::int32_t moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = moved;
    pos_[static_cast<std::size_t>(moved)] = 0;
    sift_down(0);
  }
  return root;
}

void WaterfillKernel::solve(const Fabric& fabric,
                            const std::vector<WaterfillFlow>& flows,
                            const std::vector<double>& available_bps,
                            std::vector<double>& rates_out) {
  const std::size_t n = flows.size();
  up_.resize(n);
  dn_.resize(n);
  w_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    up_[k] = fabric.uplink(flows[k].src);
    dn_[k] = fabric.downlink(flows[k].dst);
    w_[k] = flows[k].weight;
  }
  rates_out.resize(n);
  solve(fabric, WaterfillProblem{n, up_.data(), dn_.data(), w_.data()},
        available_bps, rates_out.data());
}

void WaterfillKernel::solve(const Fabric& fabric,
                            const WaterfillProblem& problem,
                            const std::vector<double>& available_bps,
                            double* rates_out) {
  NCDRF_CHECK(available_bps.size() ==
                  static_cast<std::size_t>(fabric.num_links()),
              "available-capacity vector must cover all links");
  const std::size_t n = problem.num_flows;
  const std::int32_t* up = problem.up;
  const std::int32_t* dn = problem.dn;
  const double* w = problem.weight;
  std::fill(rates_out, rates_out + n, 0.0);
  if (n == 0) return;

  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  weight_.assign(num_links, 0.0);
  avail_.resize(num_links);
  theta_last_.assign(num_links, 0.0);
  tol_.resize(num_links);
  key_.resize(num_links);
  pos_.assign(num_links, -1);
  frozen_flow_.assign(n, 0);
  heap_.clear();

  for (std::size_t i = 0; i < num_links; ++i) {
    avail_[i] = std::max(available_bps[i], 0.0);
    tol_[i] = freeze_tolerance(available_bps[i]);
  }

  // CSR adjacency (link → flow indices) and per-link unfrozen weight:
  // straight-line sweeps over the flat columns.
  csr_offsets_.assign(num_links + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const double wk = w != nullptr ? w[k] : 1.0;
    NCDRF_CHECK(wk > 0.0, "max-min weights must be positive");
    csr_offsets_[static_cast<std::size_t>(up[k]) + 1] += 1;
    csr_offsets_[static_cast<std::size_t>(dn[k]) + 1] += 1;
    weight_[static_cast<std::size_t>(up[k])] += wk;
    weight_[static_cast<std::size_t>(dn[k])] += wk;
  }
  for (std::size_t i = 0; i < num_links; ++i) {
    csr_offsets_[i + 1] += csr_offsets_[i];
  }
  csr_flows_.resize(static_cast<std::size_t>(csr_offsets_[num_links]));
  {
    std::vector<std::int32_t>& cursor = csr_cursor_;
    cursor.assign(csr_offsets_.begin(), csr_offsets_.end() - 1);
    for (std::size_t k = 0; k < n; ++k) {
      csr_flows_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(up[k])]++)] =
          static_cast<std::int32_t>(k);
      csr_flows_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(dn[k])]++)] =
          static_cast<std::int32_t>(k);
    }
  }

  for (std::size_t i = 0; i < num_links; ++i) {
    if (weight_[i] > 0.0) {
      key_[i] = theta_last_[i] + avail_[i] / weight_[i];
      heap_push(static_cast<std::int32_t>(i));
    }
  }

  // Freezes `link` at fill level theta: all its unfrozen flows get their
  // final rate weight·theta, and each such flow's other endpoint link is
  // advanced to theta and re-keyed in place with the flow's weight
  // removed. A link absent from the heap (pos < 0) is frozen or
  // weightless — both cases the update must skip.
  const auto freeze_link = [&](std::size_t link, double theta) {
    const auto begin = static_cast<std::size_t>(csr_offsets_[link]);
    const auto end = static_cast<std::size_t>(csr_offsets_[link + 1]);
    for (std::size_t c = begin; c < end; ++c) {
      const auto k = static_cast<std::size_t>(csr_flows_[c]);
      if (frozen_flow_[k]) continue;
      frozen_flow_[k] = 1;
      const double wk = w != nullptr ? w[k] : 1.0;
      rates_out[k] = wk * theta;
      const auto u = static_cast<std::size_t>(up[k]);
      const std::size_t other = (u == link) ? static_cast<std::size_t>(dn[k])
                                            : u;
      if (pos_[other] < 0) continue;
      avail_[other] = std::max(
          avail_[other] - (theta - theta_last_[other]) * weight_[other],
          0.0);
      theta_last_[other] = theta;
      weight_[other] -= wk;
      if (weight_[other] > 0.0) {
        key_[other] = theta_last_[other] + avail_[other] / weight_[other];
        // Removing weight never lowers a heaped link's saturation level,
        // but the heap repair is direction-agnostic anyway.
        const auto at = static_cast<std::size_t>(pos_[other]);
        sift_down(at);
        sift_up(static_cast<std::size_t>(pos_[other]));
      } else {
        weight_[other] = 0.0;  // no unfrozen flow left; never constrains
        heap_remove(static_cast<std::int32_t>(other));
      }
    }
  };

  double theta = 0.0;
  while (!heap_.empty()) {
    const auto link = static_cast<std::size_t>(heap_pop_root());
    theta = std::max(key_[link], theta);
    freeze_link(link, theta);

    // Legacy tolerance cascade: any link whose residual at this fill level
    // sits within its freeze band saturates now, not at its own key.
    while (!heap_.empty()) {
      const auto j = static_cast<std::size_t>(heap_[0]);
      const double resid =
          std::max(avail_[j] - (theta - theta_last_[j]) * weight_[j], 0.0);
      if (resid > tol_[j]) break;
      heap_pop_root();
      freeze_link(j, theta);
    }
  }
}

void residual_capacity(const ScheduleInput& input, const Allocation& alloc,
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
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = fabric.capacity(i) - out[idx];
  }
}

void residual_capacity(const Fabric& fabric, const FlowTable& table,
                       std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (std::size_t i = 0; i < table.num_flows; ++i) {
    const double r = table.rate[i];
    out[static_cast<std::size_t>(table.up[i])] += r;
    out[static_cast<std::size_t>(table.dn[i])] += r;
  }
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = fabric.capacity(i) - out[idx];
  }
}

void ResidualBackfill::run(const ScheduleInput& input, Allocation& alloc) {
  residual_capacity(input, alloc, residual_);
  for (double& r : residual_) r = std::max(r, 0.0);

  flows_.clear();
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      flows_.push_back({flow.id, flow.src, flow.dst, 1.0});
    }
  }
  kernel_.solve(*input.fabric, flows_, residual_, rates_);
  for (std::size_t k = 0; k < flows_.size(); ++k) {
    if (rates_[k] > 0.0) alloc.add_rate(flows_[k].id, rates_[k]);
  }
}

void ResidualBackfill::run(const Fabric& fabric, const FlowTable& table) {
  residual_capacity(fabric, table, residual_);
  for (double& r : residual_) r = std::max(r, 0.0);

  rates_.resize(table.num_flows);
  kernel_.solve(fabric,
                WaterfillProblem{table.num_flows, table.up, table.dn,
                                 /*weight=*/nullptr},
                residual_, rates_.data());
  for (std::size_t k = 0; k < table.num_flows; ++k) {
    if (rates_[k] > 0.0) table.rate[k] += rates_[k];
  }
}

}  // namespace ncdrf
