// WorkloadSource: the one arrival stream every execution plane consumes.
//
// Before this spine existed the repo had three divergent workload paths:
// the simulator iterated Trace::coflows, the cluster deployment driver
// replayed its own arrival loop over the same Trace, and the serving
// front-end pulled per-client LoadGenerator schedules — so any
// cross-cutting workload concern (tenant attribution, strategic-tenant
// rewrites, dense id assignment) had to be bolted onto each plane
// separately. A WorkloadSource is a pull-based stream of timestamped
// serve::Submission records with client attribution; DynamicSimulator,
// cluster::run_deployment and serve::ServeFront all consume it, and the
// adapters here wrap the legacy inputs (static Trace, the synthetic
// generators via their Trace output, per-client Submission schedules).
//
// Stream contract (what the planes rely on):
//   * submissions come out in nondecreasing (submit_time, client) order;
//   * coflow ids are dense [0, N) in exactly that order, flow ids are
//     dense [0, F) in the same global order (flows within a submission
//     consecutive) — the flat-array id contract TraceBuilder enforces;
//   * every flow carries its real size_bits > 0 (ground truth; drivers
//     strip sizes for non-clairvoyant policies), and flow.coflow equals
//     the submission's coflow id.
//
// assign_dense_ids() is the single id-assignment code path behind that
// contract: LoadGenerator::generate() stamps its per-client schedules
// with it, and materialize() turns any source back into a Trace through
// TraceBuilder (whose (arrival, insertion order) stable sort preserves
// the pull order, so ids round-trip unchanged).
//
// Everything in this header is header-only on purpose: sim, cluster and
// serve can consume the interface without a link-time dependency on the
// scenario library (which owns the strategy transformers and ScenarioSpec
// and *does* link against serve/sim/cluster).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "serve/submission_queue.h"
#include "trace/trace.h"

namespace ncdrf::scenario {

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  // Machine count the endpoints are valid against (>= 1).
  virtual int num_machines() const = 0;

  // The next submission in stream order without consuming it; nullptr
  // when the source is exhausted. The pointer stays valid until the next
  // next() call.
  virtual const serve::Submission* peek() = 0;

  // Consumes and returns the next submission. Requires peek() != nullptr.
  virtual serve::Submission next() = 0;

  bool exhausted() { return peek() == nullptr; }
};

// Stamps dense coflow and flow ids over per-client schedules in global
// (submit_time, client) order — the same order TraceBuilder sorts into,
// so ids survive a round trip through materialize(). Each schedule must
// already be time-sorted; ids are stamped in place (vector layout is
// untouched). Returns the total number of coflows.
inline int assign_dense_ids(std::vector<std::vector<serve::Submission>>& per_client) {
  struct Slot {
    double time;
    int client;
    std::size_t index;
  };
  std::vector<Slot> order;
  for (std::size_t client = 0; client < per_client.size(); ++client) {
    const auto& sched = per_client[client];
    for (std::size_t i = 0; i < sched.size(); ++i) {
      NCDRF_CHECK(i == 0 || sched[i].submit_time >= sched[i - 1].submit_time,
                  "per-client schedule not time-sorted");
      order.push_back(Slot{sched[i].submit_time, static_cast<int>(client), i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Slot& a, const Slot& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.client != b.client) return a.client < b.client;
    return a.index < b.index;  // same-instant submissions keep stream order
  });
  CoflowId next_coflow = 0;
  FlowId next_flow = 0;
  for (const Slot& slot : order) {
    serve::Submission& s =
        per_client[static_cast<std::size_t>(slot.client)][slot.index];
    s.coflow = next_coflow++;
    for (Flow& f : s.flows) {
      f.id = next_flow++;
      f.coflow = s.coflow;
    }
  }
  return static_cast<int>(next_coflow);
}

// Adapts a static Trace (hand-built, synthetic generators, or a
// materialized source) to the stream interface. Owns the trace. The
// submission's client is the coflow's tenant; sizes ride along in full
// (`sizes_known` controls only the flag drivers read when registering).
class TraceSource : public WorkloadSource {
 public:
  // Owning: moves the trace in.
  explicit TraceSource(Trace trace, bool sizes_known = false)
      : owned_(std::move(trace)), trace_(&owned_), sizes_known_(sizes_known) {
    NCDRF_CHECK(trace_->num_machines >= 1, "trace source needs machines");
  }

  // Non-owning view: the trace must outlive the source (the hot path for
  // simulate(fabric, trace, ...) over large benchmark traces).
  explicit TraceSource(const Trace* trace, bool sizes_known = false)
      : trace_(trace), sizes_known_(sizes_known) {
    NCDRF_CHECK(trace_ != nullptr && trace_->num_machines >= 1,
                "trace source needs machines");
  }

  int num_machines() const override { return trace_->num_machines; }

  const serve::Submission* peek() override {
    if (next_ >= trace_->coflows.size()) return nullptr;
    if (!staged_) {
      const Coflow& c = trace_->coflows[next_];
      current_ = serve::Submission{};
      current_.coflow = c.id();
      current_.client = c.tenant();
      current_.submit_time = c.arrival_time();
      current_.weight = c.weight();
      current_.sizes_known = sizes_known_;
      current_.flows = c.flows();
      staged_ = true;
    }
    return &current_;
  }

  serve::Submission next() override {
    NCDRF_CHECK(peek() != nullptr, "next() on an exhausted source");
    staged_ = false;
    ++next_;
    return std::move(current_);
  }

  const Trace& trace() const { return *trace_; }

 private:
  Trace owned_;
  const Trace* trace_ = nullptr;
  bool sizes_known_ = false;
  std::size_t next_ = 0;
  bool staged_ = false;
  serve::Submission current_;
};

// Adapts per-client Submission schedules (LoadGenerator::generate output
// or hand-built) by merging them into global (submit_time, client) order.
// Schedules must carry dense ids (assign_dense_ids) in that order.
class VectorSource : public WorkloadSource {
 public:
  VectorSource(std::vector<std::vector<serve::Submission>> per_client,
               int num_machines)
      : per_client_(std::move(per_client)),
        cursor_(per_client_.size(), 0),
        num_machines_(num_machines) {
    NCDRF_CHECK(num_machines_ >= 1, "vector source needs machines");
  }

  int num_machines() const override { return num_machines_; }

  const serve::Submission* peek() override {
    const serve::Submission* best = nullptr;
    for (std::size_t c = 0; c < per_client_.size(); ++c) {
      if (cursor_[c] >= per_client_[c].size()) continue;
      const serve::Submission& s = per_client_[c][cursor_[c]];
      if (best == nullptr || s.submit_time < best->submit_time ||
          (s.submit_time == best->submit_time && s.client < best->client)) {
        best = &s;
        head_ = c;
      }
    }
    return best;
  }

  serve::Submission next() override {
    NCDRF_CHECK(peek() != nullptr, "next() on an exhausted source");
    return std::move(per_client_[head_][cursor_[head_]++]);
  }

 private:
  std::vector<std::vector<serve::Submission>> per_client_;
  std::vector<std::size_t> cursor_;
  std::size_t head_ = 0;
  int num_machines_ = 1;
};

// Drains `source` into a Trace through TraceBuilder — the one id
// assigner. Pull order is (submit_time, client), which the builder's
// stable (arrival, insertion order) sort preserves, so a source already
// carrying dense ids gets the identical ids back.
inline Trace materialize(WorkloadSource& source) {
  TraceBuilder builder(source.num_machines());
  while (const serve::Submission* s = source.peek()) {
    builder.begin_coflow(s->submit_time, s->weight, s->client);
    for (const Flow& f : s->flows) {
      builder.add_flow(f.src, f.dst, f.size_bits);
    }
    source.next();
  }
  return builder.build();
}

}  // namespace ncdrf::scenario
