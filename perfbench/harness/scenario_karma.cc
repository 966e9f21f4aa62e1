// scenario_karma: one ScenarioSpec (perfbench/scenario_karma.json, parsed
// by parse_scenario) — 4 tenants on 64 machines, one flow-splitter, one
// dust-padder, two honest, policy `karma`, completion-driven retirement —
// run through run_on_sim and run_on_serve. --seed replaces the workload
// and strategy seeds of the spec.
//
// Untraced reps call run_on_sim and run_on_serve. Traced reps run the sim
// plane as run_on_sim's own steps (build_workload, VectorSource,
// simulate) with the scheduler wrapped, so its time splits into engine and
// scheduler; its CCTs must equal the bare run_on_sim's bit for bit.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common.h"
#include "core/registry.h"
#include "scenario/source.h"
#include "scenario/spec.h"
#include "timed_scheduler.h"

namespace perfbench {
namespace {

namespace sc = ncdrf::scenario;

// Cross-plane tolerance of karma's class in the scenario tests.
constexpr double kPlaneTolerance = 1e-9;

sc::ScenarioSpec load_spec(const Args& args) {
  std::ifstream in(args.spec_path);
  if (!in) throw std::runtime_error("cannot read scenario spec " + args.spec_path);
  std::stringstream text;
  text << in.rdbuf();
  sc::ScenarioSpec spec = sc::parse_scenario(text.str());
  spec.workload.seed = args.seed;
  for (auto& [client, strategy] : spec.strategies) strategy.seed = args.seed;
  return spec;
}

// Coflows whose sim and serve outcomes disagree, or that never completed.
long long plane_mismatches(const ncdrf::RunResult& sim, const ncdrf::RunResult& serve) {
  if (sim.coflows.size() != serve.coflows.size()) {
    std::fprintf(stderr, "scenario_karma: %zu sim vs %zu serve coflows\n",
                 sim.coflows.size(), serve.coflows.size());
    return static_cast<long long>(sim.coflows.size());
  }
  long long failed = 0;
  for (std::size_t i = 0; i < sim.coflows.size(); ++i) {
    const ncdrf::CoflowRecord& a = sim.coflows[i];
    const ncdrf::CoflowRecord& b = serve.coflows[i];
    const bool ok = a.id == b.id && a.arrival == b.arrival && a.completion > 0.0 &&
                    b.completion > 0.0 &&
                    std::abs(a.cct - b.cct) <= kPlaneTolerance * (1.0 + a.cct);
    if (!ok) ++failed;
  }
  return failed;
}

}  // namespace

Report run_scenario_karma(const Args& args) {
  Report report;
  RepSamples layers;

  sc::ScenarioSpec spec;
  report.put("setup_s", median_setup_seconds(kSetupReps, [&] {
    spec = load_spec(args);
    const Clock::time_point start = Clock::now();
    const sc::ScenarioWorkload workload = sc::build_workload(spec);
    layers.add("scenario.build_s", seconds_since(start));
    const ncdrf::Fabric fabric = sc::make_fabric(spec);
    (void)ncdrf::make_scheduler(spec.policy);
  }));

  std::vector<double> wall, cpu, arrivals, traced_wall;
  std::vector<double> bare_ccts;
  repeat_for(args.seconds, args.trace ? 2 : 1, [&](int i) {
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    if (!args.trace || i % 2 == 0) {
      const sc::ScenarioRun sim = sc::run_on_sim(spec);
      const sc::ScenarioRun serve = sc::run_on_serve(spec);
      const double w = seconds_since(start);
      const auto coflows = static_cast<long long>(sim.result.coflows.size());
      wall.push_back(w);
      cpu.push_back(process_cpu_seconds() - cpu_start);
      // Each coflow arrives once on each plane.
      arrivals.push_back(2.0 * static_cast<double>(coflows) / w);
      report.attempted += coflows;
      report.failed += plane_mismatches(sim.result, serve.result);
      bare_ccts = ccts(sim.result);
      return;
    }
    sc::ScenarioWorkload workload = sc::build_workload(spec);
    const ncdrf::Fabric fabric = sc::make_fabric(spec);
    const auto scheduler = ncdrf::make_scheduler(spec.policy);
    TimedScheduler timed(*scheduler);
    sc::VectorSource source(std::move(workload.transformed.per_client),
                            spec.workload.num_machines);
    const Clock::time_point sim_start = Clock::now();
    const ncdrf::RunResult sim = ncdrf::simulate(fabric, source, timed);
    const double simulate_s = seconds_since(sim_start);
    const double sim_plane_s = seconds_since(start);
    const sc::ScenarioRun serve = sc::run_on_serve(spec);
    const double w = seconds_since(start);
    const auto coflows = static_cast<long long>(sim.coflows.size());
    traced_wall.push_back(w);
    report.attempted += coflows;
    long long failed = plane_mismatches(sim, serve.result);
    if (ccts(sim) != bare_ccts) {
      std::fprintf(stderr, "scenario_karma: wrapped and bare sim CCTs differ\n");
      failed = coflows;
    }
    report.failed += failed;
    add_sched_layers(layers, timed.times(), timed.perf());
    layers.add("sim.events", static_cast<double>(sim.num_events));
    layers.add("sim.self_s", simulate_s - timed.times().inside_s());
    layers.add("scenario.coflows", static_cast<double>(coflows));
    layers.add("scenario.sim_plane_s", sim_plane_s);
    layers.add("scenario.serve_plane_s", w - sim_plane_s);
    layers.add("scenario.serve_over_sim", ratio(w - sim_plane_s, sim_plane_s));
  });

  report.put("wall_s", median(wall));
  report.put("cpu_s", median(cpu));
  report.put("arrivals_per_s", median(arrivals));
  if (args.trace) {
    report.put("bench.trace_overhead", ratio(median(traced_wall), median(wall)));
  }
  layers.report_medians(report);
  return report;
}

}  // namespace perfbench
