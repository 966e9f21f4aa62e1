#include "scenario/spec.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "common/check.h"
#include "common/json.h"
#include "core/registry.h"
#include "fabric/fabric.h"
#include "scenario/source.h"
#include "serve/server.h"

namespace ncdrf::scenario {
namespace {

// ---------------------------------------------------------------------------
// JSON writer. Doubles print with %.17g and integers in full, so every
// value round-trips exactly through parse_scenario below.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Appends `"key":value`; `value` is already JSON text.
void append_field(std::string& out, const char* key,
                  const std::string& value) {
  if (out.back() != '{' && out.back() != '[') out += ',';
  out += json_quote(key);
  out += ':';
  out += value;
}

void append_workload(std::string& out, const serve::LoadGenOptions& w) {
  out += '{';
  append_field(out, "seed", std::to_string(w.seed));
  append_field(out, "num_clients", std::to_string(w.num_clients));
  append_field(out, "num_machines", std::to_string(w.num_machines));
  append_field(out, "arrival_rate_per_s", fmt(w.arrival_rate_per_s));
  append_field(out, "duration_s", fmt(w.duration_s));
  append_field(out, "min_flows_per_coflow",
               std::to_string(w.min_flows_per_coflow));
  append_field(out, "max_flows_per_coflow",
               std::to_string(w.max_flows_per_coflow));
  append_field(out, "mean_flow_bits", fmt(w.mean_flow_bits));
  append_field(out, "flow_size_sigma", fmt(w.flow_size_sigma));
  append_field(out, "burst_factor", fmt(w.burst_factor));
  append_field(out, "burst_duty", fmt(w.burst_duty));
  append_field(out, "burst_period_s", fmt(w.burst_period_s));
  append_field(out, "mean_lifetime_s", fmt(w.mean_lifetime_s));
  append_field(out, "sizes_known", w.sizes_known ? "true" : "false");
  append_field(out, "weight", fmt(w.weight));
  out += '}';
}

void append_strategy(std::string& out, const StrategySpec& s) {
  out += '{';
  append_field(out, "kind", json_quote(s.kind));
  append_field(out, "k", std::to_string(s.k));
  append_field(out, "factor", std::to_string(s.factor));
  append_field(out, "pad", std::to_string(s.pad));
  append_field(out, "dust_bits", fmt(s.dust_bits));
  append_field(out, "period_s", fmt(s.period_s));
  append_field(out, "duty", fmt(s.duty));
  append_field(out, "seed", std::to_string(s.seed));
  out += '}';
}

void append_fault(std::string& out, const FaultEvent& e) {
  out += '{';
  append_field(out, "time", fmt(e.time));
  append_field(out, "kind", json_quote(fault_kind_name(e.kind)));
  append_field(out, "machine", std::to_string(e.machine));
  append_field(out, "loss_probability", fmt(e.loss_probability));
  out += '}';
}

// ---------------------------------------------------------------------------
// JSON reader: parse_json builds the DOM and these typed readers map it
// onto the spec, naming the member's path ($.workload.seed) in every
// error. Unknown keys are errors: a typo in a checked-in spec should fail
// loudly, not silently fall back to a default.
// ---------------------------------------------------------------------------

[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw CheckError("scenario json: " + path + ": " + what);
}

const JsonObject& object_at(const JsonValue& v, const std::string& path) {
  if (!v.is_object()) reject(path, "expected an object");
  return v.object();
}

double number_at(const JsonValue& v, const std::string& path) {
  if (!v.is_number()) reject(path, "expected a number");
  return v.number();
}

// The whole of `token` as a T: "2.9", "1e9" and out-of-range values are
// errors, and 64-bit seeds stay exact.
template <typename T>
T integer_from(const std::string& token, const std::string& path) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    reject(path, token + " is not an integer in the field's range");
  }
  return value;
}

template <typename T>
T integer_at(const JsonValue& v, const std::string& path) {
  if (!v.is_number()) reject(path, "expected an integer");
  return integer_from<T>(v.number_token(), path);
}

bool bool_at(const JsonValue& v, const std::string& path) {
  if (!v.is_bool()) reject(path, "expected true or false");
  return v.boolean();
}

const std::string& string_at(const JsonValue& v, const std::string& path) {
  if (!v.is_string()) reject(path, "expected a string");
  return v.string();
}

FaultKind fault_kind_at(const JsonValue& v, const std::string& path) {
  static constexpr FaultKind kKinds[] = {
      FaultKind::kSlaveCrash,     FaultKind::kSlaveRestart,
      FaultKind::kMasterCrash,    FaultKind::kMasterRestart,
      FaultKind::kPartitionStart, FaultKind::kPartitionHeal,
      FaultKind::kLossBurstStart, FaultKind::kLossBurstEnd,
  };
  const std::string& name = string_at(v, path);
  for (const FaultKind kind : kKinds) {
    if (name == fault_kind_name(kind)) return kind;
  }
  reject(path, "unknown fault kind " + json_quote(name));
}

// One object member: read(name, field) is false unless the key is `name`,
// and otherwise reads the value with the reader for the field's type.
struct Member {
  const std::string& key;
  const JsonValue& value;
  std::string path;

  template <typename T>
  bool read(const char* name, T& field) const {
    if (key != name) return false;
    if constexpr (std::is_same_v<T, bool>) {
      field = bool_at(value, path);
    } else if constexpr (std::is_same_v<T, double>) {
      field = number_at(value, path);
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = string_at(value, path);
    } else if constexpr (std::is_same_v<T, FaultKind>) {
      field = fault_kind_at(value, path);
    } else {
      field = integer_at<T>(value, path);
    }
    return true;
  }
};

serve::LoadGenOptions read_workload(const JsonValue& v,
                                    const std::string& path) {
  serve::LoadGenOptions w;
  for (const auto& [key, value] : object_at(v, path)) {
    const Member m{key, value, path + '.' + key};
    if (!(m.read("seed", w.seed) || m.read("num_clients", w.num_clients) ||
          m.read("num_machines", w.num_machines) ||
          m.read("arrival_rate_per_s", w.arrival_rate_per_s) ||
          m.read("duration_s", w.duration_s) ||
          m.read("min_flows_per_coflow", w.min_flows_per_coflow) ||
          m.read("max_flows_per_coflow", w.max_flows_per_coflow) ||
          m.read("mean_flow_bits", w.mean_flow_bits) ||
          m.read("flow_size_sigma", w.flow_size_sigma) ||
          m.read("burst_factor", w.burst_factor) ||
          m.read("burst_duty", w.burst_duty) ||
          m.read("burst_period_s", w.burst_period_s) ||
          m.read("mean_lifetime_s", w.mean_lifetime_s) ||
          m.read("sizes_known", w.sizes_known) ||
          m.read("weight", w.weight))) {
      reject(m.path, "unknown key");
    }
  }
  return w;
}

StrategySpec read_strategy(const JsonValue& v, const std::string& path) {
  StrategySpec s;
  for (const auto& [key, value] : object_at(v, path)) {
    const Member m{key, value, path + '.' + key};
    if (!(m.read("kind", s.kind) || m.read("k", s.k) ||
          m.read("factor", s.factor) || m.read("pad", s.pad) ||
          m.read("dust_bits", s.dust_bits) || m.read("period_s", s.period_s) ||
          m.read("duty", s.duty) || m.read("seed", s.seed))) {
      reject(m.path, "unknown key");
    }
  }
  return s;
}

FaultEvent read_fault(const JsonValue& v, const std::string& path) {
  FaultEvent e;
  for (const auto& [key, value] : object_at(v, path)) {
    const Member m{key, value, path + '.' + key};
    if (!(m.read("time", e.time) || m.read("kind", e.kind) ||
          m.read("machine", e.machine) ||
          m.read("loss_probability", e.loss_probability))) {
      reject(m.path, "unknown key");
    }
  }
  return e;
}

}  // namespace

std::string to_json(const ScenarioSpec& spec) {
  std::string out = "{";
  append_field(out, "name", json_quote(spec.name));
  append_field(out, "policy", json_quote(spec.policy));
  append_field(out, "link_gbps", fmt(spec.link_gbps));
  append_field(out, "workload", "");  // empty value: writer continues
  append_workload(out, spec.workload);
  append_field(out, "strategies", "");
  out += '{';
  for (const auto& [client, strategy] : spec.strategies) {
    append_field(out, std::to_string(client).c_str(), "");
    append_strategy(out, strategy);
  }
  out += '}';
  append_field(out, "faults", "");
  out += '[';
  for (std::size_t i = 0; i < spec.faults.events().size(); ++i) {
    if (i > 0) out += ',';
    append_fault(out, spec.faults.events()[i]);
  }
  out += "]}";
  return out;
}

ScenarioSpec parse_scenario(const std::string& json) {
  JsonValue root;
  if (const std::string err = parse_json(json, &root); !err.empty()) {
    throw CheckError("scenario json: " + err);
  }
  ScenarioSpec spec;
  for (const auto& [key, value] : object_at(root, "$")) {
    const Member m{key, value, "$." + key};
    if (m.read("name", spec.name) || m.read("policy", spec.policy) ||
        m.read("link_gbps", spec.link_gbps)) {
      continue;
    }
    if (key == "workload") {
      spec.workload = read_workload(value, m.path);
    } else if (key == "strategies") {
      // Keys are client ids; "1" and "01" name the same client.
      for (const auto& [client, strategy] : object_at(value, m.path)) {
        const std::string at = m.path + '.' + client;
        if (!spec.strategies
                 .emplace(integer_from<int>(client, at),
                          read_strategy(strategy, at))
                 .second) {
          reject(at, "duplicate client");
        }
      }
    } else if (key == "faults") {
      if (!value.is_array()) reject(m.path, "expected an array");
      for (std::size_t i = 0; i < value.array().size(); ++i) {
        spec.faults.add(read_fault(value.array()[i],
                                   m.path + '[' + std::to_string(i) + ']'));
      }
    } else {
      reject(m.path, "unknown key");
    }
  }
  return spec;
}

Fabric make_fabric(const ScenarioSpec& spec) {
  NCDRF_CHECK(spec.link_gbps > 0.0, "scenario needs a positive link rate");
  return Fabric(spec.workload.num_machines, spec.link_gbps * 1e9);
}

ScenarioWorkload build_workload(const ScenarioSpec& spec) {
  ScenarioWorkload workload;
  workload.honest = serve::LoadGenerator(spec.workload).generate();
  std::vector<std::unique_ptr<TenantStrategy>> owned(workload.honest.size());
  std::vector<TenantStrategy*> strategies(workload.honest.size(), nullptr);
  for (const auto& [client, strategy_spec] : spec.strategies) {
    NCDRF_CHECK(client >= 0 &&
                    static_cast<std::size_t>(client) < workload.honest.size(),
                "scenario strategy for a client outside the workload");
    if (strategy_spec.kind == "honest") continue;  // null slot = pass-through
    owned[static_cast<std::size_t>(client)] = make_strategy(strategy_spec);
    strategies[static_cast<std::size_t>(client)] =
        owned[static_cast<std::size_t>(client)].get();
  }
  workload.transformed = apply_strategies(workload.honest, strategies,
                                          spec.workload.num_machines);
  std::size_t total = 0;
  for (const auto& schedule : workload.transformed.per_client) {
    total += schedule.size();
  }
  workload.tenant_of.assign(total, -1);
  for (const auto& schedule : workload.transformed.per_client) {
    for (const serve::Submission& s : schedule) {
      workload.tenant_of[static_cast<std::size_t>(s.coflow)] = s.client;
    }
  }
  return workload;
}

ScenarioRun run_on_sim(const ScenarioSpec& spec) {
  ScenarioRun run;
  run.workload = build_workload(spec);
  const Fabric fabric = make_fabric(spec);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(spec.policy);
  VectorSource source(run.workload.transformed.per_client,
                      spec.workload.num_machines);
  run.result = simulate(fabric, source, *scheduler);
  return run;
}

DeploymentResult run_on_deployment(const ScenarioSpec& spec,
                                   const DeploymentOptions& options) {
  ScenarioWorkload workload = build_workload(spec);
  const Fabric fabric = make_fabric(spec);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(spec.policy);
  DeploymentOptions opts = options;
  opts.faults = spec.faults;
  VectorSource source(std::move(workload.transformed.per_client),
                      spec.workload.num_machines);
  return run_deployment(fabric, source, *scheduler, opts);
}

namespace {

// The serve plane's data plane, as a Scheduler the simulator engine drives:
// the engine integrates the fluid state and this adapter plays every slave
// of a ServeFront. Arrivals are enqueued on their client's queue, finished
// flows are reported, and before each allocation the slaves heartbeat the
// exact attained bits; one epoch then runs at the engine's instant and its
// allocation is handed back. Every instant carries an arrival or a finish,
// so the master is dirty and reallocates exactly once per engine event, and
// stateful policies (karma's credit clock) see the same (now, view)
// sequence on both planes.
class ServePlane final : public Scheduler {
 public:
  // `size_of` holds every flow's size by FlowId; flows must be larger than
  // `epsilon_bits`, the engine's completion epsilon.
  ServePlane(serve::ServeFront& front, const Scheduler& inner,
             std::vector<double> size_of, double epsilon_bits, int machines)
      : front_(front),
        inner_(inner),
        size_of_(std::move(size_of)),
        epsilon_bits_(epsilon_bits),
        heartbeats_(static_cast<std::size_t>(machines)) {
    for (MachineId m = 0; m < machines; ++m) {
      heartbeats_[static_cast<std::size_t>(m)].machine = m;
    }
  }

  std::string name() const override { return inner_.name(); }
  // True only so the engine exposes remaining bits for the heartbeats. The
  // inner policy's clairvoyance is enforced at the register API instead:
  // submissions carry sizes_known = inner.clairvoyant(), and the Master
  // zeroes sizes for the rest.
  bool clairvoyant() const override { return true; }
  bool wants_events() const override { return true; }

  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    serve::Submission s;
    s.coflow = coflow.id;
    s.client = coflow.tenant;
    s.submit_time = coflow.arrival_time;
    s.weight = coflow.weight;
    s.sizes_known = inner_.clairvoyant();  // lifetime 0: retire on finish
    s.flows.reserve(coflow.flows.size());
    for (const ActiveFlow& f : coflow.flows) {
      const double size = size_of_[static_cast<std::size_t>(f.id)];
      NCDRF_CHECK(size > epsilon_bits_,
                  "serve plane needs flows above the completion epsilon");
      s.flows.push_back(Flow{f.id, f.coflow, f.src, f.dst, size});
    }
    NCDRF_CHECK(front_.queue(s.client).try_enqueue(std::move(s)),
                "unbounded serve-plane queue rejected a submission");
  }

  void on_flow_finish(const ActiveFlow& flow) override {
    finished_.push_back(FlowFinishedMsg{flow.id, flow.coflow, 0.0});
  }

  Allocation allocate(const ScheduleInput& input) override {
    if (!finished_.empty()) {
      for (FlowFinishedMsg& msg : finished_) msg.finish_time = input.now;
      front_.master().on_flows_finished(finished_);
      finished_.clear();
    }
    for (HeartbeatMsg& hb : heartbeats_) hb.attained_bits.clear();
    for (const ActiveCoflow& coflow : input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        const double attained = size_of_[static_cast<std::size_t>(f.id)] -
                                input.clairvoyant->remaining_bits(f.id);
        heartbeats_[static_cast<std::size_t>(f.src)].attained_bits
            .emplace_back(f.id, attained);
      }
    }
    for (const HeartbeatMsg& hb : heartbeats_) {
      front_.master().on_heartbeat(hb, input.now);
    }
    front_.step_epoch(input.now);
    return front_.last_allocation();
  }

 private:
  serve::ServeFront& front_;
  const Scheduler& inner_;
  const std::vector<double> size_of_;
  const double epsilon_bits_;
  std::vector<HeartbeatMsg> heartbeats_;
  // Finishes since the last allocation, reported before the next epoch.
  std::vector<FlowFinishedMsg> finished_;
};

}  // namespace

ScenarioRun run_on_serve(const ScenarioSpec& spec) {
  ScenarioRun run;
  run.workload = build_workload(spec);
  const Fabric fabric = make_fabric(spec);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(spec.policy);

  serve::ServeOptions options;
  options.epoch_s = 1.0;           // nominal: epochs are event-aligned here
  options.max_batch_per_epoch = 0;  // admit everything due at the instant
  options.queue_capacity = std::numeric_limits<std::size_t>::max() / 4;
  options.slowdown_watermark = options.queue_capacity;
  options.shed_watermark = options.queue_capacity;
  serve::ServeFront front(fabric, *scheduler, spec.workload.num_clients,
                          options);

  std::vector<double> size_of;
  for (const auto& schedule : run.workload.transformed.per_client) {
    for (const serve::Submission& s : schedule) {
      for (const Flow& f : s.flows) {
        const auto idx = static_cast<std::size_t>(f.id);
        if (idx >= size_of.size()) size_of.resize(idx + 1, 0.0);
        size_of[idx] = f.size_bits;
      }
    }
  }
  SimOptions sim;
  sim.record_intervals = false;
  ServePlane plane(front, *scheduler, std::move(size_of),
                   sim.completion_epsilon_bits, spec.workload.num_machines);
  VectorSource source(run.workload.transformed.per_client,
                      spec.workload.num_machines);
  run.result = simulate(fabric, source, plane, sim);
  run.result.num_allocations = front.allocations();
  return run;
}

}  // namespace ncdrf::scenario
