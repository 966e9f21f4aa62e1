// serve_drf: the ServeFront virtual-time open loop under `drf` with the
// telemetry plane on (metrics registry + Timeseries, as bench_serve runs
// it). 4 clients on 150 machines submit a seeded LoadGenerator stream at
// 100k coflows/s with 15 ms mean dwell; the benchmark steps 2 ms epochs
// itself (the loop of ServeFront::run) so it can time every step_epoch.
// Queues have headroom above the worst per-epoch burst, so nothing is
// rejected or shed: the run measures the serving pipeline, not overload.
//
// A rep replays kSchedules independent schedules, each on a fresh front-end
// and scheduler: DRF's allocation cost differs by 5-8% between seeds, and a
// longer schedule is no remedy because serve cost per submission grows with
// run length.
//
// The end-to-end numbers come from the serial policy. The sharded `drf@4`
// was the first choice, but on a shared 4-vCPU host its wall time is set
// by how fast idle workers wake, not by the program: over ten seeds it
// spread 5.1-9.9 s, where serial `drf` stays within a few percent. Traced
// runs therefore also run the same schedule under `drf@4`, bare and
// wrapped, for the shard layer.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "scenario/source.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "timed_scheduler.h"

namespace perfbench {
namespace {

constexpr const char* kPolicy = "drf";
constexpr const char* kShardedPolicy = "drf@4";
constexpr int kShards = 4;
constexpr int kClients = 4;
constexpr int kMachines = 150;
constexpr double kRatePerS = 100000.0;
constexpr double kEpochS = 2e-3;
// 1250 arrival epochs plus the drain: p99 of the per-epoch host time has
// more than ten samples beyond it in every rep.
constexpr double kDurationS = 2.5;
constexpr double kLifetimeS = 0.015;
constexpr int kSchedules = 2;

using Schedule = std::vector<std::vector<ncdrf::serve::Submission>>;

// Schedule k of a run draws from --seed itself for k = 0.
ncdrf::serve::LoadGenOptions load_options(std::uint64_t seed, int k, bool clairvoyant) {
  ncdrf::serve::LoadGenOptions load;
  load.seed = seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull;
  load.num_clients = kClients;
  load.num_machines = kMachines;
  load.arrival_rate_per_s = kRatePerS;
  load.duration_s = kDurationS;
  load.mean_lifetime_s = kLifetimeS;
  load.sizes_known = clairvoyant;
  return load;
}

ncdrf::serve::ServeOptions serve_options() {
  ncdrf::serve::ServeOptions options;
  options.epoch_s = kEpochS;
  options.max_batch_per_epoch = 0;
  const auto burst =
      static_cast<std::size_t>(8.0 * kRatePerS * kEpochS / kClients + 1024.0);
  options.queue_capacity = burst;
  options.slowdown_watermark = burst * kClients;
  options.shed_watermark = burst * kClients;
  return options;
}

// The serving stack of one run: telemetry plane plus front-end.
struct Stack {
  ncdrf::obs::MetricsRegistry metrics;
  ncdrf::obs::Timeseries timeseries;
  ncdrf::serve::ServeFront front;

  Stack(const ncdrf::Fabric& fabric, ncdrf::Scheduler& scheduler)
      : timeseries(&metrics, ncdrf::obs::TimeseriesOptions{5.0 * kEpochS, 128}),
        front(fabric, scheduler, kClients, with_telemetry(serve_options())) {}

 private:
  ncdrf::serve::ServeOptions with_telemetry(ncdrf::serve::ServeOptions o) {
    o.metrics = &metrics;
    o.timeseries = &timeseries;
    return o;
  }
};

struct Counters {
  long long generated = 0;
  long long admitted = 0;
  long long rejected = 0;
  long long shed = 0;
  long long epochs = 0;
  long long allocations = 0;
  long long pushes = 0;
  long long deferred = 0;

  bool operator==(const Counters&) const = default;
  Counters& operator+=(const Counters& o) {
    generated += o.generated;
    admitted += o.admitted;
    rejected += o.rejected;
    shed += o.shed;
    epochs += o.epochs;
    allocations += o.allocations;
    pushes += o.pushes;
    deferred += o.deferred;
    return *this;
  }
};

// One or more open-loop runs, summed.
struct Loop {
  Counters counters;
  std::vector<Counters> each;  // per schedule
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double enqueue_s = 0.0;  // traced loops only
  double step_s = 0.0;     // Σ step_epoch
  std::vector<double> epoch_ms;
  CallTimes calls;          // traced loops only
  ncdrf::SchedPerf perf;    // traced loops only

  Loop& operator+=(const Loop& o) {
    counters += o.counters;
    each.push_back(o.counters);
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    enqueue_s += o.enqueue_s;
    step_s += o.step_s;
    epoch_ms.insert(epoch_ms.end(), o.epoch_ms.begin(), o.epoch_ms.end());
    calls += o.calls;
    perf += o.perf;
    return *this;
  }
};

// One open-loop run: at each epoch tick enqueue every submission now due,
// then step the epoch, until the stream is exhausted and the backlog empty.
Loop drive(const ncdrf::Fabric& fabric, ncdrf::Scheduler& scheduler,
           const Schedule& schedule, bool time_enqueue) {
  Stack stack(fabric, scheduler);
  ncdrf::serve::ServeFront& front = stack.front;
  ncdrf::scenario::VectorSource source(schedule, kMachines);
  Loop loop;
  for (const auto& client : schedule) {
    loop.counters.generated += static_cast<long long>(client.size());
  }

  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (long long epoch = 0;; ++epoch) {
    const double now = static_cast<double>(epoch) * kEpochS;
    const Clock::time_point enqueue_start =
        time_enqueue ? Clock::now() : Clock::time_point{};
    while (const ncdrf::serve::Submission* due = source.peek()) {
      if (due->submit_time > now) break;
      ncdrf::serve::Submission s = source.next();
      front.queue(s.client).try_enqueue(std::move(s));
    }
    if (time_enqueue) loop.enqueue_s += seconds_since(enqueue_start);
    const Clock::time_point step_start = Clock::now();
    front.step_epoch(now);
    const double step = seconds_since(step_start);
    loop.step_s += step;
    loop.epoch_ms.push_back(step * 1e3);
    if (source.peek() == nullptr && front.backlog() == 0) break;
  }
  loop.wall_s = seconds_since(start);
  loop.cpu_s = process_cpu_seconds() - cpu_start;

  Counters& c = loop.counters;
  c.admitted = front.admitted();
  c.rejected = front.total_rejected();
  c.shed = front.total_shed();
  c.epochs = front.epochs();
  c.allocations = front.allocations();
  c.pushes = front.rate_pushes();
  c.deferred = front.pushes_deferred();
  return loop;
}

// Every schedule on a fresh `policy` scheduler, wrapped when `traced`.
Loop run_pass(const ncdrf::Fabric& fabric, const std::vector<Schedule>& schedules,
              const char* policy, bool traced) {
  Loop total;
  for (const Schedule& schedule : schedules) {
    const auto scheduler = ncdrf::make_scheduler(policy);
    if (!traced) {
      total += drive(fabric, *scheduler, schedule, false);
      continue;
    }
    TimedScheduler timed(*scheduler);
    Loop loop = drive(fabric, timed, schedule, true);
    loop.calls = timed.times();
    loop.perf = timed.perf();
    total += loop;
  }
  return total;
}

// Submissions lost by one run: rejected, shed, or unaccounted for.
long long lost(const Counters& c) {
  return c.rejected + c.shed +
         std::llabs(c.generated - (c.admitted + c.rejected + c.shed));
}

}  // namespace

Report run_serve_drf(const Args& args) {
  Report report;
  RepSamples layers;

  std::vector<Schedule> schedules(kSchedules);
  const ncdrf::Fabric fabric(kMachines, ncdrf::gbps(1.0));
  report.put("setup_s", median_setup_seconds(kSetupReps, [&] {
    const auto scheduler = ncdrf::make_scheduler(kPolicy);
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < kSchedules; ++k) {
      schedules[static_cast<std::size_t>(k)] =
          ncdrf::serve::LoadGenerator(load_options(args.seed, k, scheduler->clairvoyant()))
              .generate();
    }
    layers.add("serve.loadgen_s", seconds_since(start));
    const Stack stack(fabric, *scheduler);
  }));

  // Traced runs cycle through four passes: serial bare, serial wrapped,
  // sharded bare, sharded wrapped. Each wrapped pass must reproduce its
  // bare pass's front-end counters exactly.
  std::vector<double> wall, cpu, arrivals, traced_wall, sharded_wall;
  std::vector<Counters> bare[2];
  repeat_for(args.seconds, args.trace ? 4 : 1, [&](int i) {
    const int step = args.trace ? i % 4 : 0;
    const bool sharded = step >= 2;
    const bool wrapped = step % 2 == 1;
    const Loop loop =
        run_pass(fabric, schedules, sharded ? kShardedPolicy : kPolicy, wrapped);
    const Counters& c = loop.counters;
    report.attempted += c.generated;
    if (!wrapped) {
      report.failed += lost(c);
      bare[sharded ? 1 : 0] = loop.each;
      if (sharded) {
        sharded_wall.push_back(loop.wall_s);
        return;
      }
      wall.push_back(loop.wall_s);
      cpu.push_back(loop.cpu_s);
      arrivals.push_back(static_cast<double>(c.admitted) / loop.wall_s);
      return;
    }
    if (loop.each == bare[sharded ? 1 : 0]) {
      report.failed += lost(c);
    } else {
      std::fprintf(stderr, "serve_drf: wrapped and bare %s counters differ\n",
                   sharded ? kShardedPolicy : kPolicy);
      report.failed += c.generated;
    }
    if (sharded) {
      add_shard_layers(layers, loop.perf, kShards);
      return;
    }
    traced_wall.push_back(loop.wall_s);
    add_sched_layers(layers, loop.calls, loop.perf);
    layers.add("serve.enqueue_s", loop.enqueue_s);
    layers.add("serve.epochs", static_cast<double>(c.epochs));
    layers.add("serve.self_s", loop.step_s - loop.calls.allocate_s);
    layers.add("serve.admitted", static_cast<double>(c.admitted));
    layers.add("serve.rate_pushes", static_cast<double>(c.pushes));
    layers.add("serve.push_ratio", ratio(static_cast<double>(c.pushes),
                                         static_cast<double>(c.pushes + c.deferred)));
    layers.add("serve.epoch_p50_ms", quantile(loop.epoch_ms, 0.50));
    layers.add("serve.epoch_p99_ms", quantile(loop.epoch_ms, 0.99));
  });

  report.put("wall_s", median(wall));
  report.put("cpu_s", median(cpu));
  report.put("arrivals_per_s", median(arrivals));
  if (args.trace) {
    report.put("bench.trace_overhead", ratio(median(traced_wall), median(wall)));
    report.put("alloc.sharded_over_serial", ratio(median(sharded_wall), median(wall)));
  }
  layers.report_medians(report);
  return report;
}

}  // namespace perfbench
