// Slave: the per-machine enforcement daemon (paper Sec. V-B).
//
// Each slave owns the flows originating at its machine. It applies the
// master's last RateUpdate as a token-bucket egress shaper per flow (the
// tc/htb stand-in), reports attained service in periodic heartbeats, and
// reports flow completions. A flow whose rate the master has not yet
// assigned sends nothing — exactly the registration-to-first-allocation
// gap of the real prototype. The bytes themselves move in the deployment's
// data plane (the simulator engine); the slave reads its attained service
// from there when it heartbeats.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/bus.h"
#include "coflow/flow.h"
#include "sched/scheduler.h"

namespace ncdrf {

class Slave {
 public:
  Slave(MachineId machine, double heartbeat_period_s);

  MachineId machine() const { return machine_; }

  // Starts enforcing a local flow: a new arrival, or an unfinished flow
  // reinstalled after a restart. The rate starts at 0 until the master's
  // next RateUpdate.
  void add_flow(const Flow& flow);

  // Daemon death: every local shaper and its state vanish. The deployment
  // (standing in for the machine's data on disk) resyncs via add_flow and
  // note_finished when the daemon comes back.
  void crash();

  // Records a locally finished flow id so heartbeats keep repeating it —
  // the repair channel for lost FlowFinished reports.
  void note_finished(FlowId flow);

  // A local flow delivered its last byte: stop shaping it and advertise
  // it as finished (caller reports FlowFinished).
  void finish_flow(FlowId flow);

  void on_rate_update(const RateUpdateMsg& msg);

  // The rate the shaper sends at for each live local flow: (flow, desired
  // rate). The data plane applies physical link contention on top.
  std::vector<std::pair<FlowId, double>> desired_rates() const;

  // The causal trace id delivered with the flow's last RateUpdate (0 =
  // untraced or no update yet) — the telemetry plane's proof that a
  // submission's span made it all the way to the enforcement point.
  std::uint64_t trace_id(FlowId flow) const;
  int live_flows() const { return static_cast<int>(flows_.size()); }

  // Emits a heartbeat if one is due at `now`; returns whether one was
  // actually sent (a due beat with nothing to report stays silent).
  // Attained service per live flow is its size minus `remaining` (the
  // data plane's ground truth); with no byte counters attached (null) the
  // beat carries liveness and the finished list only.
  bool maybe_heartbeat(double now, SimBus& bus,
                       const ClairvoyantInfo* remaining = nullptr);

  // Emits a heartbeat immediately (reliably) and resets the schedule —
  // the announce-yourself message after a restart or partition heal.
  void heartbeat_now(double now, SimBus& bus,
                     const ClairvoyantInfo* remaining);

 private:
  struct LocalFlow {
    Flow flow;
    double rate_bps = 0.0;  // 0 until the first RateUpdate arrives
    std::uint64_t trace_id = 0;  // from the last traced RateUpdate
  };

  HeartbeatMsg build_heartbeat(const ClairvoyantInfo* remaining) const;

  MachineId machine_;
  double heartbeat_period_;
  double next_heartbeat_ = 0.0;
  std::unordered_map<FlowId, LocalFlow> flows_;
  std::vector<FlowId> finished_ids_;  // locally finished, re-advertised
};

}  // namespace ncdrf
