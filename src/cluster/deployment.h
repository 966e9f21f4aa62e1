// Deployment: the wired-up master/slave cluster emulation — the stand-in
// for the paper's 60-node EC2 testbed (Sec. V-B; DESIGN.md substitutions).
//
// The bytes move in the simulator engine (sim/engine.h), the same fluid
// integrator simulate() and the serve plane run on; its remaining bits
// are the ground truth, which survives slave crashes and master restarts.
// The control plane runs on a grid of ticks `tick_s` apart, where the
// engine stops on every tick:
//   1. scripted faults fire;
//   2. due messages are delivered (registrations / finish reports /
//      heartbeats to the master, rate updates to slaves);
//   3. the master declares silent slaves dead and, if its view changed or
//      the refresh is due, reallocates and pushes rates;
//   4. slaves heartbeat their attained service (size − remaining);
//   5. per-coflow progress is sampled at the realized rates.
// Between ticks every live slave sends at its enforced rates; the engine's
// capacity clamp scales concurrent senders on an oversubscribed port down
// proportionally (rates can transiently oversubscribe because the
// master's view is stale). Arrivals register with the master over the bus
// (one-way `control_latency_s`) and finished flows are reported at their
// exact engine instants.
//
// The paper's observables fall out: Fig. 7's CCTs and Fig. 8's progress
// curves, under any Scheduler.
#pragma once

#include "cluster/bus.h"
#include "cluster/faults.h"
#include "cluster/master.h"
#include "cluster/slave.h"
#include "sim/sim.h"
#include "trace/trace.h"

namespace ncdrf {

namespace scenario {
class WorkloadSource;
}  // namespace scenario

struct DeploymentOptions {
  double tick_s = 0.01;             // control-plane tick (10 ms)
  double control_latency_s = 0.005; // one-way master<->slave latency
  double heartbeat_period_s = 0.1;
  double progress_sample_period_s = 0.25;  // Fig. 8 sampling
  // Fig. 8 progress (Eq. 1) normalizes each sample by the correlation of
  // the coflow's remaining demand: the attainable rate of its slowest
  // remaining part, what "equal progress" means at an instant.
  bool record_progress = true;
  double max_time_s = 36000.0;

  // Failure injection: best-effort control messages (rate updates,
  // heartbeats, flow-finished reports) are dropped with this probability.
  // Registrations use a reliable channel (an RPC in the prototype).
  double control_loss_probability = 0.0;
  std::uint64_t loss_seed = 1;

  // The master re-pushes rates at this period even without view changes,
  // which bounds the damage of any lost rate update or finish report
  // (the prototype's heartbeat-driven refresh). 0 disables.
  double reallocation_refresh_period_s = 1.0;

  // Liveness tracking: a slave silent for this many heartbeat periods is
  // declared dead and its flows quarantined. <= 0 disables.
  int heartbeat_timeout_beats = 3;

  // Flow-finished reports retransmit with this policy when lost (the
  // heartbeat finished-flow list is the backstop beyond the last retry).
  RetryPolicy finish_report_retry{3, 0.02, 2.0};

  // Timed fault script consumed as simulated time advances; empty by
  // default (no faults — byte-identical behaviour to the pre-fault loop).
  FaultPlan faults;

  // --- Observability (optional, null = off) ------------------------------
  //
  // Virtual-clock event tracer: registrations, heartbeats, reallocation
  // spans, fault lifetimes as async spans (slave_down / master_down /
  // partition / loss_burst) and recovery instants. Also offered to the
  // scheduler via Scheduler::set_observers.
  obs::Tracer* tracer = nullptr;
  // Counters (reallocations, heartbeats, registrations) and the
  // cluster.recovery_latency_s histogram.
  obs::MetricsRegistry* metrics = nullptr;
};

struct DeploymentResult {
  std::vector<CoflowRecord> coflows;   // indexed by coflow id
  std::vector<ProgressSample> progress;
  double makespan = 0.0;
  long long num_reallocations = 0;
  long long messages_sent = 0;
  long long messages_dropped = 0;  // random bus loss, incl. lost retries
  FaultCounters fault_counters;
  // Fault-to-repair reallocation latency: time from a slave restart,
  // partition heal, or master restart until the affected slave receives
  // its next RateUpdate. One entry per recovered endpoint.
  std::vector<double> recovery_latencies_s;
};

// Runs `source` on an emulated cluster of fabric.num_machines() machines
// under `scheduler` — the scenario-spine entry point. Every submission is
// handed to the engine up front and arrives at its submit time (client →
// tenant attribution); sizes are registered with the master only when the
// scheduler is clairvoyant. The source must stream dense coflow/flow ids
// (the WorkloadSource contract).
DeploymentResult run_deployment(const Fabric& fabric,
                                scenario::WorkloadSource& source,
                                Scheduler& scheduler,
                                const DeploymentOptions& options = {});

// Trace convenience wrapper: adapts the trace through the spine.
DeploymentResult run_deployment(const Fabric& fabric, const Trace& trace,
                                Scheduler& scheduler,
                                const DeploymentOptions& options = {});

}  // namespace ncdrf
