// fb_replay: simulate() over the 526-coflow synthetic Facebook twin on 150
// racks at 1 Gbps under `ncdrf` with interval recording off — ncdrf_cli's
// default run, dominated by the NC-DRF allocator and the fluid engine.
//
// The twin is always generated from its default seed; --seed relabels the
// machines with a seeded permutation. Every seed therefore replays the same
// fabric-isomorphic problem (same work, same per-coflow CCTs) under a
// different link layout, so a seed changes the memory layout and tie
// order the code sees without changing how much there is to do.
// Different twin seeds differ 5x in replay time, which no run-to-run
// bound could absorb.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/registry.h"
#include "sim/sim.h"
#include "timed_scheduler.h"
#include "trace/synthetic_fb.h"

namespace perfbench {
namespace {

constexpr const char* kPolicy = "ncdrf";
constexpr double kLinkGbps = 1.0;
// Σ (i + 1) · cct_i over the default twin, recorded from a correct run.
// Relabeling machines leaves every CCT unchanged up to float
// reassociation, so the digest is checked on every seed.
constexpr double kDigest = 4374747.6572229331;
constexpr double kDigestTolerance = 1e-9;

// The default twin with machine m renamed to perm[m]; the identity on the
// default seed.
ncdrf::Trace make_trace(std::uint64_t seed) {
  ncdrf::Trace base = ncdrf::generate_synthetic_fb(ncdrf::SyntheticFbOptions{});
  if (seed == kDefaultSeed) return base;
  std::vector<ncdrf::MachineId> perm(static_cast<std::size_t>(base.num_machines));
  std::iota(perm.begin(), perm.end(), 0);
  ncdrf::Rng rng(seed);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(perm[i], perm[j]);
  }
  ncdrf::TraceBuilder builder(base.num_machines);
  for (const ncdrf::Coflow& c : base.coflows) {
    builder.begin_coflow(c.arrival_time(), c.weight(), c.tenant());
    for (const ncdrf::Flow& f : c.flows()) {
      builder.add_flow(perm[static_cast<std::size_t>(f.src)],
                       perm[static_cast<std::size_t>(f.dst)], f.size_bits);
    }
  }
  return builder.build();
}

struct Replay {
  ncdrf::RunResult run;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Replay replay(const ncdrf::Fabric& fabric, const ncdrf::Trace& trace,
              ncdrf::Scheduler& scheduler) {
  ncdrf::SimOptions options;
  options.record_intervals = false;
  Replay out;
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  out.run = ncdrf::simulate(fabric, trace, scheduler, options);
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_seconds() - cpu_start;
  return out;
}

bool near_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

double digest(const ncdrf::RunResult& run) {
  double sum = 0.0;
  for (std::size_t i = 0; i < run.coflows.size(); ++i) {
    sum += static_cast<double>(i + 1) * run.coflows[i].cct;
  }
  return sum;
}

// Coflows of one replay that fail an output check; a replay-wide failure
// (wrong coflow count, delivered bits or digest) fails every coflow.
long long failed_coflows(const ncdrf::Trace& trace, const ncdrf::RunResult& run) {
  const auto all = static_cast<long long>(trace.coflows.size());
  if (run.coflows.size() != trace.coflows.size()) return all;
  const double d = digest(run);
  if (!near_rel(run.total_bits_delivered, trace.total_bits(), 1e-9) ||
      !near_rel(d, kDigest, kDigestTolerance)) {
    std::fprintf(stderr, "fb_replay: delivered %.17g of %.17g bits, digest %.17g\n",
                 run.total_bits_delivered, trace.total_bits(), d);
    return all;
  }
  long long failed = 0;
  for (std::size_t i = 0; i < run.coflows.size(); ++i) {
    const ncdrf::CoflowRecord& rec = run.coflows[i];
    const bool ok = rec.completion > 0.0 &&
                    rec.cct >= rec.min_cct * (1.0 - 1e-9) &&
                    near_rel(rec.total_bits, trace.coflows[i].total_bits(), 1e-9);
    if (!ok) ++failed;
  }
  return failed;
}

}  // namespace

Report run_fb_replay(const Args& args) {
  Report report;
  RepSamples layers;

  ncdrf::Trace trace;
  report.put("setup_s", median_setup_seconds(kSetupReps, [&] {
    const Clock::time_point start = Clock::now();
    trace = make_trace(args.seed);
    layers.add("trace.generate_s", seconds_since(start));
    const ncdrf::Fabric fabric(trace.num_machines, ncdrf::gbps(kLinkGbps));
    (void)ncdrf::make_scheduler(kPolicy);
  }));
  const ncdrf::Fabric fabric(trace.num_machines, ncdrf::gbps(kLinkGbps));
  const auto coflows = static_cast<double>(trace.coflows.size());

  std::vector<double> wall, cpu, traced_wall;
  std::vector<double> bare_ccts;
  repeat_for(args.seconds, args.trace ? 2 : 1, [&](int i) {
    const auto scheduler = ncdrf::make_scheduler(kPolicy);
    report.attempted += static_cast<long long>(trace.coflows.size());
    if (!args.trace || i % 2 == 0) {
      const Replay r = replay(fabric, trace, *scheduler);
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      report.failed += failed_coflows(trace, r.run);
      bare_ccts = ccts(r.run);
      return;
    }
    TimedScheduler timed(*scheduler);
    const Replay r = replay(fabric, trace, timed);
    traced_wall.push_back(r.wall_s);
    long long failed = failed_coflows(trace, r.run);
    if (ccts(r.run) != bare_ccts) {
      std::fprintf(stderr, "fb_replay: wrapped and bare CCTs differ\n");
      failed = static_cast<long long>(trace.coflows.size());
    }
    report.failed += failed;
    add_sched_layers(layers, timed.times(), timed.perf());
    layers.add("sim.events", static_cast<double>(r.run.num_events));
    layers.add("sim.self_s", r.wall_s - timed.times().inside_s());
  });

  report.put("wall_s", median(wall));
  report.put("cpu_s", median(cpu));
  report.put("arrivals_per_s", coflows / median(wall));
  if (args.trace) {
    report.put("bench.trace_overhead", ratio(median(traced_wall), median(wall)));
  }
  layers.report_medians(report);
  return report;
}

}  // namespace perfbench
