#include "cluster/slave.h"

#include <algorithm>

#include "common/check.h"

namespace ncdrf {

Slave::Slave(MachineId machine, double heartbeat_period_s)
    : machine_(machine), heartbeat_period_(heartbeat_period_s) {
  NCDRF_CHECK(machine >= 0, "slave machine id must be non-negative");
  NCDRF_CHECK(heartbeat_period_s > 0.0, "heartbeat period must be positive");
}

void Slave::add_flow(const Flow& flow) {
  NCDRF_CHECK(flow.src == machine_, "flow does not originate here");
  NCDRF_CHECK(flow.size_bits > 0.0, "flow size must be positive");
  NCDRF_CHECK(!flows_.contains(flow.id), "duplicate local flow");
  flows_[flow.id] = LocalFlow{flow};
}

void Slave::crash() {
  flows_.clear();
  finished_ids_.clear();
  next_heartbeat_ = 0.0;
}

void Slave::note_finished(FlowId flow) {
  if (std::find(finished_ids_.begin(), finished_ids_.end(), flow) ==
      finished_ids_.end()) {
    finished_ids_.push_back(flow);
  }
}

void Slave::finish_flow(FlowId flow) {
  NCDRF_CHECK(flows_.erase(flow) == 1, "finish for unknown local flow");
  note_finished(flow);
}

void Slave::on_rate_update(const RateUpdateMsg& msg) {
  const bool traced = msg.trace_ids.size() == msg.rates_bps.size() &&
                      !msg.trace_ids.empty();
  for (std::size_t i = 0; i < msg.rates_bps.size(); ++i) {
    const auto& [flow, rate] = msg.rates_bps[i];
    const auto it = flows_.find(flow);
    // Updates can race with completions; stale entries are ignored.
    if (it != flows_.end()) {
      it->second.rate_bps = rate;
      if (traced) it->second.trace_id = msg.trace_ids[i];
    }
  }
}

std::vector<std::pair<FlowId, double>> Slave::desired_rates() const {
  std::vector<std::pair<FlowId, double>> out;
  out.reserve(flows_.size());
  for (const auto& [id, lf] : flows_) out.emplace_back(id, lf.rate_bps);
  return out;
}

std::uint64_t Slave::trace_id(FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.trace_id;
}

HeartbeatMsg Slave::build_heartbeat(const ClairvoyantInfo* remaining) const {
  HeartbeatMsg msg;
  msg.machine = machine_;
  if (remaining != nullptr) {
    msg.attained_bits.reserve(flows_.size());
    for (const auto& [id, lf] : flows_) {
      msg.attained_bits.emplace_back(
          id, lf.flow.size_bits - remaining->remaining_bits(id));
    }
  }
  msg.finished_flows = finished_ids_;
  return msg;
}

bool Slave::maybe_heartbeat(double now, SimBus& bus,
                            const ClairvoyantInfo* remaining) {
  if (now + 1e-12 < next_heartbeat_) return false;
  next_heartbeat_ = now + heartbeat_period_;
  if (flows_.empty() && finished_ids_.empty()) return false;
  bus.send_unreliable(now, master_address(), build_heartbeat(remaining));
  return true;
}

void Slave::heartbeat_now(double now, SimBus& bus,
                          const ClairvoyantInfo* remaining) {
  next_heartbeat_ = now + heartbeat_period_;
  bus.send(now, master_address(), build_heartbeat(remaining));
}

}  // namespace ncdrf
