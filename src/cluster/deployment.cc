#include "cluster/deployment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "coflow/coflow.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "scenario/source.h"
#include "sim/engine.h"

namespace ncdrf {
namespace {

// Instants closer than this are one instant (the engine's tolerance).
constexpr double kTimeTolerance = 1e-9;

// The deployment's master, slaves and bus, as a Scheduler the simulator
// engine drives. The engine integrates the bytes: its remaining bits are
// the ground truth, which survives daemon crashes and master restarts.
// This adapter runs the control plane on the tick grid — the engine stops
// at every tick through next_internal_event — and hands the engine the
// rates the live slaves enforce. The engine's capacity clamp is the
// physical contention between senders whose rates oversubscribe a port
// (the master's view is stale). Arrivals register and finishes report at
// their exact engine instants.
class DeploymentPlane final : public Scheduler {
 public:
  DeploymentPlane(const Fabric& fabric, Scheduler& inner,
                  const DeploymentOptions& options)
      : fabric_(fabric),
        inner_(inner),
        options_(options),
        tracer_(options.tracer),
        bus_(options.control_latency_s, options.control_loss_probability,
             options.loss_seed),
        faults_(options.faults),
        slave_up_(static_cast<std::size_t>(fabric.num_machines()), 1),
        partitioned_(static_cast<std::size_t>(fabric.num_machines()), 0),
        pending_recovery_(static_cast<std::size_t>(fabric.num_machines()),
                          -1.0) {
    if (options.heartbeat_timeout_beats > 0) {
      master_options_.heartbeat_timeout_s =
          options.heartbeat_timeout_beats * options.heartbeat_period_s;
    }
    master_ = std::make_unique<Master>(fabric, inner, master_options_);
    slaves_.reserve(slave_up_.size());
    for (MachineId m = 0; m < fabric.num_machines(); ++m) {
      slaves_.emplace_back(m, options.heartbeat_period_s);
    }
    if (options.metrics != nullptr) {
      m_reallocs_ = &options.metrics->counter("cluster.reallocations");
      m_rate_updates_ =
          &options.metrics->counter("cluster.rate_updates_sent");
      m_heartbeats_ = &options.metrics->counter("cluster.heartbeats_sent");
      m_registrations_ =
          &options.metrics->counter("cluster.registrations_delivered");
      // Recovery latencies range from one control RTT (~10 ms) to several
      // heartbeat timeouts; the geometry covers 1 ms .. 10 ks.
      m_recovery_ = &options.metrics->histogram(
          "cluster.recovery_latency_s", 1e-3, 1e4, 1.2589254117941673);
    }
  }

  std::string name() const override { return inner_.name(); }
  // True only so the engine exposes remaining bits for heartbeats and
  // progress samples. The inner policy's clairvoyance is enforced at
  // registration instead: sizes ride along only when inner.clairvoyant().
  bool clairvoyant() const override { return true; }
  bool wants_events() const override { return true; }

  // The engine whose clock stamps arrivals and finishes.
  void set_clock(const DynamicSimulator& engine) { engine_ = &engine; }

  // Admits one submission's flows: endpoints are checked against the
  // fabric (the engine does not check them) and each flow is recorded for
  // resyncs and re-registrations.
  void admit(const std::vector<Flow>& flows) {
    for (const Flow& f : flows) {
      NCDRF_CHECK(f.src >= 0 && f.src < fabric_.num_machines() &&
                      f.dst >= 0 && f.dst < fabric_.num_machines(),
                  "flow endpoints out of range for the fabric");
      NCDRF_CHECK(f.id >= 0, "flow ids must be non-negative");
      const auto idx = static_cast<std::size_t>(f.id);
      if (idx >= flows_.size()) flows_.resize(idx + 1);
      flows_[idx] = f;
    }
  }

  // The client registers with the master over the bus; slaves start
  // tracking their local flows at once (the daemon sits next to the
  // application) but send nothing until rated. A crashed slave picks its
  // flows up on restart. While the master is down the client's RPC fails;
  // the master-restart handler re-registers every active coflow.
  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    const double now = engine_->now();
    // Ticks strictly before this instant are still due only when the
    // fabric sat idle (the engine stops at every tick while anything is
    // active), so they run against an empty view.
    run_ticks_before(now - kTimeTolerance, ScheduleInput{});
    if (master_up_) bus_.send(now, master_address(), registration(coflow));
    for (const ActiveFlow& f : coflow.flows) {
      if (slave_up_[static_cast<std::size_t>(f.src)]) {
        slaves_[static_cast<std::size_t>(f.src)].add_flow(flow(f.id));
      }
    }
  }

  // Best-effort with retry; the heartbeat finished-flow list and the
  // periodic refresh are the backstops past the last attempt. A flow can
  // only finish at a crashed slave when it needs no bandwidth at all;
  // the restart resync then advertises it.
  void on_flow_finish(const ActiveFlow& f) override {
    finished_.push_back(f.id);
    const auto m = static_cast<std::size_t>(f.src);
    if (!slave_up_[m]) return;
    slaves_[m].finish_flow(f.id);
    const double now = engine_->now();
    bus_.send_with_retry(now, master_address(),
                         FlowFinishedMsg{f.id, f.coflow, now},
                         options_.finish_report_retry);
  }

  // Runs the ticks due by now, then returns the rates the live slaves
  // enforce: crashed slaves send nothing, partitioned slaves keep sending
  // at their last rates (the partition cuts control, not data).
  Allocation allocate(const ScheduleInput& input) override {
    run_ticks_before(input.now + kTimeTolerance, input);
    Allocation alloc;
    for (std::size_t s = 0; s < slaves_.size(); ++s) {
      if (!slave_up_[s]) continue;
      for (const auto& [flow_id, rate] : slaves_[s].desired_rates()) {
        if (rate > 0.0) alloc.set_rate(flow_id, rate);
      }
    }
    return alloc;
  }

  // The engine passes the allocation it is about to integrate, clamped to
  // capacity — the realized rates a due progress sample reads.
  std::optional<double> next_internal_event(
      const ScheduleInput& input, const Allocation& realized) const override {
    if (sample_at_ >= 0.0) {
      sample_progress(input, realized, sample_at_);
      sample_at_ = -1.0;
    }
    return std::max(tick_time(next_tick_) - input.now, 0.0);
  }

  DeploymentResult finish(RunResult run) {
    result_.coflows = std::move(run.coflows);
    result_.progress = std::move(progress_);
    result_.makespan = run.makespan;
    result_.messages_sent = bus_.total_sent();
    result_.messages_dropped = bus_.total_dropped();
    result_.fault_counters.bus_retries = bus_.total_retries();
    if (master_up_) collect_master_counters();
    return std::move(result_);
  }

 private:
  const Flow& flow(FlowId id) const {
    return flows_[static_cast<std::size_t>(id)];
  }
  double tick_time(long long k) const {
    return static_cast<double>(k) * options_.tick_s;
  }

  void run_ticks_before(double limit, const ScheduleInput& view) {
    while (tick_time(next_tick_) < limit) tick(tick_time(next_tick_++), view);
  }

  // One control-plane tick at `t` over the engine's view of the active
  // coflows.
  void tick(double t, const ScheduleInput& view) {
    // Scripted faults fire first: a crash at t kills the daemon before
    // anything else happens in the tick.
    for (const FaultEvent& e : faults_.due(t)) apply_fault(e, t, view);
    deliver(t);
    // The master declares silent slaves dead, then reallocates when its
    // view changed or on the periodic refresh that re-pushes rates lost
    // to control-plane failures. While down it does neither; slaves keep
    // enforcing their last rates (graceful degradation).
    if (master_up_) {
      master_->check_liveness(t);
      if (master_->dirty() ||
          (options_.reallocation_refresh_period_s > 0.0 &&
           t + 1e-12 >= next_refresh_ && master_->active_coflows() > 0)) {
#if NCDRF_TRACE_ENABLED
        if (tracer_ != nullptr) {
          tracer_->begin(obs::EventKind::kClusterReallocate, t);
        }
#endif
        const int updates = master_->reallocate(t, bus_);
#if NCDRF_TRACE_ENABLED
        if (tracer_ != nullptr) {
          tracer_->end(obs::EventKind::kClusterReallocate, t, updates);
        }
#endif
        ++result_.num_reallocations;
        if (m_reallocs_ != nullptr) m_reallocs_->inc();
        if (m_rate_updates_ != nullptr) m_rate_updates_->inc(updates);
        next_refresh_ = t + options_.reallocation_refresh_period_s;
      }
    }
    // Heartbeats (crashed slaves are silent; a partitioned slave's
    // heartbeat is sent but dropped at delivery).
    for (std::size_t s = 0; s < slaves_.size(); ++s) {
      if (slave_up_[s] &&
          slaves_[s].maybe_heartbeat(t, bus_, view.clairvoyant) &&
          m_heartbeats_ != nullptr) {
        m_heartbeats_->inc();
      }
    }
    // Fig. 8 samples; the next next_internal_event takes them.
    if (options_.record_progress && t + 1e-12 >= next_progress_sample_) {
      next_progress_sample_ = t + options_.progress_sample_period_s;
      if (!view.coflows.empty()) sample_at_ = t;
    }
  }

  // Delivers due control messages, dropping any whose endpoint is down or
  // whose path is partitioned at delivery time.
  void deliver(double t) {
    for (SimBus::Delivery& d : bus_.deliver_due(t)) {
      if (d.to.is_master) {
        MachineId origin = -1;
        if (const auto* hb = std::get_if<HeartbeatMsg>(&d.payload)) {
          origin = hb->machine;
        } else if (const auto* fin =
                       std::get_if<FlowFinishedMsg>(&d.payload)) {
          origin = flow(fin->flow).src;
        }
        const bool cut =
            origin >= 0 && partitioned_[static_cast<std::size_t>(origin)];
        if (!master_up_ || cut) {
          ++result_.fault_counters.messages_dropped_at_down_endpoint;
          continue;
        }
        if (auto* reg = std::get_if<RegisterCoflowMsg>(&d.payload)) {
          master_->on_register(*reg);
          NCDRF_TRACE_INSTANT(
              tracer_, obs::EventKind::kClusterRegister, d.deliver_time,
              reg->coflow, static_cast<std::int64_t>(reg->flows.size()));
          if (m_registrations_ != nullptr) m_registrations_->inc();
        } else if (auto* fin = std::get_if<FlowFinishedMsg>(&d.payload)) {
          master_->on_flow_finished(*fin);
        } else if (auto* hb = std::get_if<HeartbeatMsg>(&d.payload)) {
          master_->on_heartbeat(*hb, d.deliver_time);
          NCDRF_TRACE_INSTANT(tracer_, obs::EventKind::kClusterHeartbeat,
                              d.deliver_time, hb->machine);
        }
      } else {
        const auto m = static_cast<std::size_t>(d.to.machine);
        if (!slave_up_[m] || partitioned_[m]) {
          ++result_.fault_counters.messages_dropped_at_down_endpoint;
          continue;
        }
        if (auto* rates = std::get_if<RateUpdateMsg>(&d.payload)) {
          slaves_[m].on_rate_update(*rates);
          if (pending_recovery_[m] >= 0.0) {
            const double latency = d.deliver_time - pending_recovery_[m];
            result_.recovery_latencies_s.push_back(latency);
            pending_recovery_[m] = -1.0;
            NCDRF_TRACE_INSTANT(tracer_, obs::EventKind::kRecovery,
                                d.deliver_time, d.to.machine, 0, latency);
            if (m_recovery_ != nullptr) m_recovery_->observe(latency);
          }
        }
      }
    }
  }

  // A registration message for the master: sizes withheld from
  // non-clairvoyant policies; flows already finished (master-restart
  // resync only) always carry their observable sizes.
  RegisterCoflowMsg registration(const ActiveCoflow& coflow) const {
    RegisterCoflowMsg msg;
    msg.coflow = coflow.id;
    msg.arrival_time = coflow.arrival_time;
    msg.weight = coflow.weight;
    msg.tenant = coflow.tenant;
    msg.sizes_known = inner_.clairvoyant();
    for (const ActiveFlow& f : coflow.flows) {
      msg.flows.push_back(flow(f.id));
      if (!msg.sizes_known) msg.flows.back().size_bits = 0.0;
    }
    for (const ActiveFlow& f : coflow.finished_flows) {
      msg.finished_flows.push_back(flow(f.id));
    }
    return msg;
  }

  // Resyncs one restarted slave from the engine's view; returns the
  // number of unfinished flows restored.
  long long resync_slave(MachineId m, double t, const ScheduleInput& view) {
    Slave& slave = slaves_[static_cast<std::size_t>(m)];
    for (const FlowId f : finished_) {
      if (flow(f).src == m) slave.note_finished(f);
    }
    long long restored = 0;
    for (const ActiveCoflow& coflow : view.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        if (f.src != m) continue;
        slave.add_flow(flow(f.id));
        ++restored;
      }
    }
    // Announce the comeback: the heartbeat revives the master's dead
    // marking and repairs any finish reports lost while down.
    slave.heartbeat_now(t, bus_, view.clairvoyant);
    if (restored > 0) pending_recovery_[static_cast<std::size_t>(m)] = t;
    return restored;
  }

  void collect_master_counters() {
    FaultCounters& fc = result_.fault_counters;
    fc.slaves_declared_dead += master_->slaves_declared_dead();
    fc.slaves_revived += master_->slaves_revived();
    fc.flows_quarantined += master_->flows_quarantined();
  }

  void apply_fault(const FaultEvent& e, double t, const ScheduleInput& view) {
    FaultCounters& fc = result_.fault_counters;
    const auto m = static_cast<std::size_t>(std::max<MachineId>(e.machine, 0));
    const std::size_t machines = slaves_.size();
    switch (e.kind) {
      case FaultKind::kSlaveCrash:
        NCDRF_CHECK(e.machine >= 0 && m < machines && slave_up_[m],
                    "slave crash needs a live slave");
        slaves_[m].crash();
        slave_up_[m] = 0;
        ++fc.slave_crashes;
        NCDRF_TRACE_ASYNC_BEGIN(tracer_, obs::EventKind::kSlaveDown, t,
                                e.machine);
        break;
      case FaultKind::kSlaveRestart:
        NCDRF_CHECK(e.machine >= 0 && m < machines && !slave_up_[m],
                    "slave restart needs a crashed slave");
        slave_up_[m] = 1;
        fc.flows_resynced += resync_slave(e.machine, t, view);
        ++fc.slave_restarts;
        NCDRF_TRACE_ASYNC_END(tracer_, obs::EventKind::kSlaveDown, t,
                              e.machine);
        break;
      case FaultKind::kMasterCrash:
        NCDRF_CHECK(master_up_, "master crash needs a live master");
        collect_master_counters();
        master_.reset();
        master_up_ = false;
        ++fc.master_crashes;
        NCDRF_TRACE_ASYNC_BEGIN(tracer_, obs::EventKind::kMasterDown, t, 0);
        break;
      case FaultKind::kMasterRestart: {
        NCDRF_CHECK(!master_up_, "master restart needs a crashed master");
        master_ = std::make_unique<Master>(fabric_, inner_, master_options_, t);
        master_up_ = true;
        ++fc.master_restarts;
        NCDRF_TRACE_ASYNC_END(tracer_, obs::EventKind::kMasterDown, t, 0);
        // Clients re-register every active coflow (the prototype's RPC
        // retry after a connection reset); slaves re-announce so attained
        // service resyncs from heartbeats.
        for (const ActiveCoflow& coflow : view.coflows) {
          bus_.send(t, master_address(), registration(coflow));
          ++fc.coflows_reregistered;
        }
        for (std::size_t s = 0; s < machines; ++s) {
          if (slave_up_[s] && slaves_[s].live_flows() > 0) {
            slaves_[s].heartbeat_now(t, bus_, view.clairvoyant);
            pending_recovery_[s] = t;
          }
        }
        break;
      }
      case FaultKind::kPartitionStart:
        NCDRF_CHECK(e.machine >= 0 && m < machines && !partitioned_[m],
                    "partition start needs a connected machine");
        partitioned_[m] = 1;
        ++fc.partitions_started;
        NCDRF_TRACE_ASYNC_BEGIN(tracer_, obs::EventKind::kPartition, t,
                                e.machine);
        break;
      case FaultKind::kPartitionHeal:
        NCDRF_CHECK(e.machine >= 0 && m < machines && partitioned_[m],
                    "partition heal needs a partitioned machine");
        partitioned_[m] = 0;
        ++fc.partitions_healed;
        NCDRF_TRACE_ASYNC_END(tracer_, obs::EventKind::kPartition, t,
                              e.machine);
        if (slave_up_[m]) {
          slaves_[m].heartbeat_now(t, bus_, view.clairvoyant);
          if (slaves_[m].live_flows() > 0) pending_recovery_[m] = t;
        }
        break;
      case FaultKind::kLossBurstStart:
        bus_.set_loss_probability(e.loss_probability);
        ++fc.loss_bursts;
        NCDRF_TRACE_ASYNC_BEGIN(tracer_, obs::EventKind::kLossBurst, t, 0,
                                e.loss_probability);
        break;
      case FaultKind::kLossBurstEnd:
        bus_.set_loss_probability(options_.control_loss_probability);
        NCDRF_TRACE_ASYNC_END(tracer_, obs::EventKind::kLossBurst, t, 0);
        break;
    }
  }

  // One Fig. 8 sample per active coflow: its realized per-link allocation
  // against the instantaneous correlation of its remaining demand (Eq. 1)
  // — the attainable rate of its slowest remaining part. Remaining demand
  // comes from the engine, so flows stranded on a crashed slave still
  // count as pending.
  void sample_progress(const ScheduleInput& input, const Allocation& realized,
                       double t) const {
    const auto links = static_cast<std::size_t>(fabric_.num_links());
    for (const ActiveCoflow& coflow : input.coflows) {
      std::vector<double> link_alloc(links, 0.0);
      std::vector<double> rem_demand(links, 0.0);
      for (const ActiveFlow& f : coflow.flows) {
        const auto up = static_cast<std::size_t>(fabric_.uplink(f.src));
        const auto down = static_cast<std::size_t>(fabric_.downlink(f.dst));
        const double rem = input.clairvoyant->remaining_bits(f.id);
        const double rate = realized.rate(f.id);
        rem_demand[up] += rem;
        rem_demand[down] += rem;
        link_alloc[up] += rate;
        link_alloc[down] += rate;
      }
      const double rem_bottleneck =
          *std::max_element(rem_demand.begin(), rem_demand.end());
      double progress = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < links; ++i) {
        const double c = rem_demand[i] / rem_bottleneck;
        if (c > 0.0) progress = std::min(progress, link_alloc[i] / c);
      }
      if (!std::isfinite(progress)) continue;
      progress_.push_back(ProgressSample{
          t, t + options_.progress_sample_period_s, coflow.id, progress});
    }
  }

  const Fabric& fabric_;
  Scheduler& inner_;
  const DeploymentOptions& options_;
  [[maybe_unused]] obs::Tracer* const tracer_;
  const DynamicSimulator* engine_ = nullptr;
  MasterOptions master_options_;
  SimBus bus_;
  FaultPlan faults_;  // consumable copy
  std::unique_ptr<Master> master_;
  bool master_up_ = true;
  std::vector<Slave> slaves_;
  std::vector<char> slave_up_;
  std::vector<char> partitioned_;
  // Fault time each endpoint last recovered at, or a negative sentinel;
  // cleared (and a latency recorded) by the next RateUpdate delivery.
  std::vector<double> pending_recovery_;
  // Every admitted flow by FlowId, and the ids of the finished ones — the
  // repair list a restarted slave re-advertises.
  std::vector<Flow> flows_;
  std::vector<FlowId> finished_;
  long long next_tick_ = 0;  // index of the next tick on the grid
  double next_refresh_ = 0.0;
  double next_progress_sample_ = 0.0;
  // Tick whose progress sample the next next_internal_event takes (< 0:
  // none due).
  mutable double sample_at_ = -1.0;
  mutable std::vector<ProgressSample> progress_;
  DeploymentResult result_;

  obs::Counter* m_reallocs_ = nullptr;
  obs::Counter* m_rate_updates_ = nullptr;
  obs::Counter* m_heartbeats_ = nullptr;
  obs::Counter* m_registrations_ = nullptr;
  obs::Histogram* m_recovery_ = nullptr;
};

}  // namespace

DeploymentResult run_deployment(const Fabric& fabric,
                                scenario::WorkloadSource& source,
                                Scheduler& scheduler,
                                const DeploymentOptions& options) {
  NCDRF_CHECK(source.num_machines() == fabric.num_machines(),
              "workload and fabric machine counts differ");
  NCDRF_CHECK(options.tick_s > 0.0, "tick must be positive");
  // The policy gets its own span/latency hooks; the engine's are left
  // off, so the trace holds cluster events only.
  scheduler.set_observers(options.tracer, options.metrics);
  DeploymentPlane plane(fabric, scheduler, options);
  SimOptions sim_options;
  sim_options.record_intervals = false;
  sim_options.max_time_s = options.max_time_s;
  // The engine is driven directly, not through simulate(): the plane
  // reads its clock when an arrival or a finish fires.
  DynamicSimulator engine(fabric, plane, sim_options);
  plane.set_clock(engine);
  while (source.peek() != nullptr) {
    serve::Submission s = source.next();
    plane.admit(s.flows);
    engine.submit(Coflow(s.coflow, s.submit_time, std::move(s.flows),
                         s.weight, s.client));
  }
  engine.run();
  return plane.finish(engine.take_result());
}

DeploymentResult run_deployment(const Fabric& fabric, const Trace& trace,
                                Scheduler& scheduler,
                                const DeploymentOptions& options) {
  NCDRF_CHECK(trace.num_machines == fabric.num_machines(),
              "trace and fabric machine counts differ");
  scenario::TraceSource source(&trace);
  return run_deployment(fabric, source, scheduler, options);
}

}  // namespace ncdrf
