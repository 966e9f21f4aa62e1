// TimedScheduler: a forwarding decorator that times the calls a driver
// makes into a Scheduler, from outside the library.
//
// Every virtual is forwarded unchanged, so a wrapped run makes the same
// calls in the same order as a bare one and must produce bitwise-identical
// results (the workloads check this). allocate() and the event hooks are
// timed; allocate() also keeps each call's duration for percentiles.
// name/clairvoyant/wants_events/set_observers/perf_counters and
// next_internal_event are forwarded untimed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace perfbench {

// Time spent in a scheduler's timed calls; sums over several schedulers.
struct CallTimes {
  double allocate_s = 0.0;
  std::vector<double> allocate_us;  // one entry per allocate() call
  long long hook_calls = 0;
  double hook_s = 0.0;

  double inside_s() const { return allocate_s + hook_s; }
  CallTimes& operator+=(const CallTimes& other) {
    allocate_s += other.allocate_s;
    allocate_us.insert(allocate_us.end(), other.allocate_us.begin(),
                       other.allocate_us.end());
    hook_calls += other.hook_calls;
    hook_s += other.hook_s;
    return *this;
  }
};

class TimedScheduler final : public ncdrf::Scheduler {
 public:
  explicit TimedScheduler(ncdrf::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool clairvoyant() const override { return inner_.clairvoyant(); }

  ncdrf::Allocation allocate(const ncdrf::ScheduleInput& input) override {
    const Clock::time_point start = Clock::now();
    ncdrf::Allocation out = inner_.allocate(input);
    const double s = seconds_since(start);
    times_.allocate_s += s;
    times_.allocate_us.push_back(s * 1e6);
    return out;
  }

  std::optional<double> next_internal_event(
      const ncdrf::ScheduleInput& input,
      const ncdrf::Allocation& current) const override {
    return inner_.next_internal_event(input, current);
  }

  void set_observers(ncdrf::obs::Tracer* tracer,
                     ncdrf::obs::MetricsRegistry* metrics) override {
    inner_.set_observers(tracer, metrics);
  }
  const ncdrf::SchedPerf* perf_counters() const override {
    return inner_.perf_counters();
  }

  bool wants_events() const override { return inner_.wants_events(); }
  void on_reset(const ncdrf::Fabric& fabric) override {
    timed_hook([&] { inner_.on_reset(fabric); });
  }
  void on_coflow_arrival(const ncdrf::ActiveCoflow& coflow) override {
    timed_hook([&] { inner_.on_coflow_arrival(coflow); });
  }
  void on_flow_finish(const ncdrf::ActiveFlow& flow) override {
    timed_hook([&] { inner_.on_flow_finish(flow); });
  }
  void on_coflow_departure(ncdrf::CoflowId id) override {
    timed_hook([&] { inner_.on_coflow_departure(id); });
  }

  const CallTimes& times() const { return times_; }
  // The wrapped scheduler's counters; zero when it exposes none.
  ncdrf::SchedPerf perf() const {
    return perf_counters() != nullptr ? *perf_counters() : ncdrf::SchedPerf{};
  }

 private:
  template <class Call>
  void timed_hook(Call&& call) {
    const Clock::time_point start = Clock::now();
    call();
    times_.hook_s += seconds_since(start);
    ++times_.hook_calls;
  }

  ncdrf::Scheduler& inner_;
  CallTimes times_;
};

// Adds one traced rep's scheduler layers: the decorator's timings and the
// NC-DRF core counters the scheduler exposes through perf_counters().
inline void add_sched_layers(RepSamples& samples, const CallTimes& times,
                             const ncdrf::SchedPerf& perf) {
  samples.add("sched.allocate_calls", static_cast<double>(times.allocate_us.size()));
  samples.add("sched.allocate_s", times.allocate_s);
  samples.add("sched.allocate_p50_us", quantile(times.allocate_us, 0.50));
  samples.add("sched.allocate_p99_us", quantile(times.allocate_us, 0.99));
  samples.add("sched.hook_calls", static_cast<double>(times.hook_calls));
  samples.add("sched.hook_s", times.hook_s);
  samples.add("core.incremental_ratio",
              ratio(static_cast<double>(perf.incremental_allocs),
                    static_cast<double>(perf.allocate_calls)));
  samples.add("core.links_touched", static_cast<double>(perf.links_touched));
}

// Adds one traced rep's shard layer (alloc/shard.h) for a policy built
// with `shards` link shards.
inline void add_shard_layers(RepSamples& samples, const ncdrf::SchedPerf& perf,
                             int shards) {
  samples.add("alloc.shard_regions", static_cast<double>(perf.shard_regions));
  samples.add("alloc.shard_busy_s", perf.shard_busy_seconds);
  samples.add("alloc.shard_critical_s", perf.shard_critical_seconds);
  samples.add("alloc.shard_balance",
              ratio(perf.shard_busy_seconds,
                    static_cast<double>(shards) * perf.shard_critical_seconds));
}

}  // namespace perfbench
