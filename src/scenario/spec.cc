#include "scenario/spec.h"

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "common/check.h"
#include "core/registry.h"
#include "fabric/fabric.h"
#include "scenario/source.h"
#include "serve/server.h"

namespace ncdrf::scenario {
namespace {

// ---------------------------------------------------------------------------
// JSON writer. Doubles print with %.17g so every value round-trips exactly;
// the reader below parses the same grammar, which is what makes
// parse_scenario(to_json(spec)) an identity.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_field(std::string& out, const char* key, const std::string& value,
                  bool quoted) {
  if (out.back() != '{' && out.back() != '[') out += ',';
  append_quoted(out, key);
  out += ':';
  if (quoted) {
    append_quoted(out, value);
  } else {
    out += value;
  }
}

void append_workload(std::string& out, const serve::LoadGenOptions& w) {
  out += '{';
  append_field(out, "seed", std::to_string(w.seed), false);
  append_field(out, "num_clients", std::to_string(w.num_clients), false);
  append_field(out, "num_machines", std::to_string(w.num_machines), false);
  append_field(out, "arrival_rate_per_s", fmt(w.arrival_rate_per_s), false);
  append_field(out, "duration_s", fmt(w.duration_s), false);
  append_field(out, "min_flows_per_coflow",
               std::to_string(w.min_flows_per_coflow), false);
  append_field(out, "max_flows_per_coflow",
               std::to_string(w.max_flows_per_coflow), false);
  append_field(out, "mean_flow_bits", fmt(w.mean_flow_bits), false);
  append_field(out, "flow_size_sigma", fmt(w.flow_size_sigma), false);
  append_field(out, "burst_factor", fmt(w.burst_factor), false);
  append_field(out, "burst_duty", fmt(w.burst_duty), false);
  append_field(out, "burst_period_s", fmt(w.burst_period_s), false);
  append_field(out, "mean_lifetime_s", fmt(w.mean_lifetime_s), false);
  append_field(out, "sizes_known", w.sizes_known ? "true" : "false", false);
  append_field(out, "weight", fmt(w.weight), false);
  out += '}';
}

void append_strategy(std::string& out, const StrategySpec& s) {
  out += '{';
  append_field(out, "kind", s.kind, true);
  append_field(out, "k", std::to_string(s.k), false);
  append_field(out, "factor", std::to_string(s.factor), false);
  append_field(out, "pad", std::to_string(s.pad), false);
  append_field(out, "dust_bits", fmt(s.dust_bits), false);
  append_field(out, "period_s", fmt(s.period_s), false);
  append_field(out, "duty", fmt(s.duty), false);
  append_field(out, "seed", std::to_string(s.seed), false);
  out += '}';
}

void append_fault(std::string& out, const FaultEvent& e) {
  out += '{';
  append_field(out, "time", fmt(e.time), false);
  append_field(out, "kind", fault_kind_name(e.kind), true);
  append_field(out, "machine", std::to_string(e.machine), false);
  append_field(out, "loss_probability", fmt(e.loss_probability), false);
  out += '}';
}

// ---------------------------------------------------------------------------
// JSON reader: a strict recursive-descent parser over the spec schema.
// Unknown keys are errors — a typo in a checked-in spec should fail loudly,
// not silently fall back to a default.
// ---------------------------------------------------------------------------

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  char peek() {
    skip_ws();
    NCDRF_CHECK(pos_ < text_.size(), "scenario json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    NCDRF_CHECK(peek() == c,
                std::string("scenario json: expected '") + c + "' near offset " +
                    std::to_string(pos_));
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      NCDRF_CHECK(pos_ < text_.size(), "scenario json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        NCDRF_CHECK(pos_ < text_.size(), "scenario json: dangling escape");
        out += text_[pos_++];
      } else {
        out += c;
      }
    }
    return out;
  }

  double parse_double() { return std::strtod(number_token().c_str(), nullptr); }

  long long parse_int() {
    return std::strtoll(number_token().c_str(), nullptr, 10);
  }

  std::uint64_t parse_u64() {
    return std::strtoull(number_token().c_str(), nullptr, 10);
  }

  bool parse_bool() {
    if (peek() == 't') {
      literal("true");
      return true;
    }
    literal("false");
    return false;
  }

  // Parses `{"k1": <v>, ...}` calling on_key for each member with the
  // reader positioned at the value.
  void parse_object(const std::function<void(const std::string&)>& on_key) {
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      on_key(key);
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(const std::function<void()>& on_element) {
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      on_element();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void finish() {
    skip_ws();
    NCDRF_CHECK(pos_ == text_.size(),
                "scenario json: trailing characters after the document");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  void literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p) {
      NCDRF_CHECK(pos_ < text_.size() && text_[pos_] == *p,
                  std::string("scenario json: expected literal ") + word);
      ++pos_;
    }
  }

  std::string number_token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '+' || c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    NCDRF_CHECK(pos_ > start, "scenario json: expected a number near offset " +
                                  std::to_string(start));
    return text_.substr(start, pos_ - start);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

serve::LoadGenOptions parse_workload(JsonReader& r) {
  serve::LoadGenOptions w;
  r.parse_object([&](const std::string& key) {
    if (key == "seed") {
      w.seed = r.parse_u64();
    } else if (key == "num_clients") {
      w.num_clients = static_cast<int>(r.parse_int());
    } else if (key == "num_machines") {
      w.num_machines = static_cast<int>(r.parse_int());
    } else if (key == "arrival_rate_per_s") {
      w.arrival_rate_per_s = r.parse_double();
    } else if (key == "duration_s") {
      w.duration_s = r.parse_double();
    } else if (key == "min_flows_per_coflow") {
      w.min_flows_per_coflow = static_cast<int>(r.parse_int());
    } else if (key == "max_flows_per_coflow") {
      w.max_flows_per_coflow = static_cast<int>(r.parse_int());
    } else if (key == "mean_flow_bits") {
      w.mean_flow_bits = r.parse_double();
    } else if (key == "flow_size_sigma") {
      w.flow_size_sigma = r.parse_double();
    } else if (key == "burst_factor") {
      w.burst_factor = r.parse_double();
    } else if (key == "burst_duty") {
      w.burst_duty = r.parse_double();
    } else if (key == "burst_period_s") {
      w.burst_period_s = r.parse_double();
    } else if (key == "mean_lifetime_s") {
      w.mean_lifetime_s = r.parse_double();
    } else if (key == "sizes_known") {
      w.sizes_known = r.parse_bool();
    } else if (key == "weight") {
      w.weight = r.parse_double();
    } else {
      NCDRF_CHECK(false, "scenario json: unknown workload key: " + key);
    }
  });
  return w;
}

StrategySpec parse_strategy(JsonReader& r) {
  StrategySpec s;
  r.parse_object([&](const std::string& key) {
    if (key == "kind") {
      s.kind = r.parse_string();
    } else if (key == "k") {
      s.k = static_cast<int>(r.parse_int());
    } else if (key == "factor") {
      s.factor = static_cast<int>(r.parse_int());
    } else if (key == "pad") {
      s.pad = static_cast<int>(r.parse_int());
    } else if (key == "dust_bits") {
      s.dust_bits = r.parse_double();
    } else if (key == "period_s") {
      s.period_s = r.parse_double();
    } else if (key == "duty") {
      s.duty = r.parse_double();
    } else if (key == "seed") {
      s.seed = r.parse_u64();
    } else {
      NCDRF_CHECK(false, "scenario json: unknown strategy key: " + key);
    }
  });
  return s;
}

FaultKind parse_fault_kind(const std::string& name) {
  static constexpr FaultKind kKinds[] = {
      FaultKind::kSlaveCrash,     FaultKind::kSlaveRestart,
      FaultKind::kMasterCrash,    FaultKind::kMasterRestart,
      FaultKind::kPartitionStart, FaultKind::kPartitionHeal,
      FaultKind::kLossBurstStart, FaultKind::kLossBurstEnd,
  };
  for (const FaultKind kind : kKinds) {
    if (name == fault_kind_name(kind)) return kind;
  }
  NCDRF_CHECK(false, "scenario json: unknown fault kind: " + name);
  return FaultKind::kSlaveCrash;
}

FaultEvent parse_fault(JsonReader& r) {
  FaultEvent e;
  r.parse_object([&](const std::string& key) {
    if (key == "time") {
      e.time = r.parse_double();
    } else if (key == "kind") {
      e.kind = parse_fault_kind(r.parse_string());
    } else if (key == "machine") {
      e.machine = static_cast<MachineId>(r.parse_int());
    } else if (key == "loss_probability") {
      e.loss_probability = r.parse_double();
    } else {
      NCDRF_CHECK(false, "scenario json: unknown fault key: " + key);
    }
  });
  return e;
}

}  // namespace

std::string to_json(const ScenarioSpec& spec) {
  std::string out = "{";
  append_field(out, "name", spec.name, true);
  append_field(out, "policy", spec.policy, true);
  append_field(out, "link_gbps", fmt(spec.link_gbps), false);
  append_field(out, "workload", "", false);  // empty value: writer continues
  append_workload(out, spec.workload);
  append_field(out, "strategies", "", false);
  out += '{';
  for (const auto& [client, strategy] : spec.strategies) {
    append_field(out, std::to_string(client).c_str(), "", false);
    append_strategy(out, strategy);
  }
  out += '}';
  append_field(out, "faults", "", false);
  out += '[';
  for (std::size_t i = 0; i < spec.faults.events().size(); ++i) {
    if (i > 0) out += ',';
    append_fault(out, spec.faults.events()[i]);
  }
  out += "]}";
  return out;
}

ScenarioSpec parse_scenario(const std::string& json) {
  ScenarioSpec spec;
  JsonReader r(json);
  r.parse_object([&](const std::string& key) {
    if (key == "name") {
      spec.name = r.parse_string();
    } else if (key == "policy") {
      spec.policy = r.parse_string();
    } else if (key == "link_gbps") {
      spec.link_gbps = r.parse_double();
    } else if (key == "workload") {
      spec.workload = parse_workload(r);
    } else if (key == "strategies") {
      r.parse_object([&](const std::string& client) {
        spec.strategies[static_cast<int>(
            std::strtoll(client.c_str(), nullptr, 10))] = parse_strategy(r);
      });
    } else if (key == "faults") {
      r.parse_array([&] { spec.faults.add(parse_fault(r)); });
    } else {
      NCDRF_CHECK(false, "scenario json: unknown spec key: " + key);
    }
  });
  r.finish();
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
