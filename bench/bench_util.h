// Shared setup for the paper-reproduction bench binaries: the evaluation
// fabric (150×150 racks, 1 Gbps ports — "300 Gbps availability"), the
// workload (the real Coflow-Benchmark file if NCDRF_TRACE_FILE is set,
// otherwise the synthetic statistical twin), and small print helpers.
//
// Every bench prints its workload provenance (seed or file) so runs are
// reproducible and comparable.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "core/registry.h"
#include "fabric/fabric.h"
#include "metrics/eval.h"
#include "runner/sweep.h"
#include "sim/sim.h"
#include "trace/benchmark_format.h"
#include "trace/synthetic_fb.h"

namespace ncdrf::bench {

// The Sec. V-A workload: honours NCDRF_TRACE_FILE (a real Coflow-Benchmark
// trace) and NCDRF_TRACE_SEED (synthetic seed override).
inline Trace evaluation_trace() {
  if (const char* path = std::getenv("NCDRF_TRACE_FILE")) {
    std::cout << "# workload: Coflow-Benchmark file " << path << "\n";
    return load_benchmark_trace(path);
  }
  SyntheticFbOptions options;
  if (const char* seed = std::getenv("NCDRF_TRACE_SEED")) {
    options.seed = std::stoull(seed);
  }
  std::cout << "# workload: synthetic FB-like trace (seed " << options.seed
            << ", " << options.num_coflows << " coflows, "
            << options.num_racks << " racks, " << options.duration_s
            << " s)\n";
  return generate_synthetic_fb(options);
}

// The Sec. V-A fabric for a given trace: 1 Gbps per rack port.
inline Fabric evaluation_fabric(const Trace& trace) {
  return Fabric(trace.num_machines, gbps(1.0));
}

// Runs one policy over the trace. `with_intervals` enables the
// time-weighted interval metrics (needed for Figs. 5a/5b; costs extra).
inline RunResult run_policy(const std::string& name, const Fabric& fabric,
                            const Trace& trace, bool with_intervals) {
  const auto scheduler = make_scheduler(name);
  SimOptions options;
  options.record_intervals = with_intervals;
  std::cerr << "  running " << scheduler->name() << "...\n";
  return simulate(fabric, trace, *scheduler, options);
}

// Number of sweep threads for the figure benches: NCDRF_BENCH_THREADS if
// set, hardware concurrency otherwise, never more than `max_cells`.
inline int bench_threads(int max_cells) {
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* env = std::getenv("NCDRF_BENCH_THREADS")) {
    threads = std::stoi(env);
  }
  return std::clamp(threads, 1, std::max(max_cells, 1));
}

// Runs every named policy over the trace through the parallel sweep
// runner (runner/sweep.h) — one grid cell per policy. Results are keyed
// by policy name and bit-identical to serial run_policy calls whatever
// the thread count (the runner's determinism contract).
inline std::map<std::string, RunResult> run_policies(
    const std::vector<std::string>& names, const Fabric& fabric,
    const Trace& trace, bool with_intervals) {
  SweepSpec spec;
  spec.fabric = fabric;
  spec.policies = names;
  spec.traces.push_back(SweepCase{"workload", trace});
  spec.sim.record_intervals = with_intervals;
  spec.threads = bench_threads(static_cast<int>(names.size()));
  std::cerr << "  sweep: " << names.size() << " policies on "
            << spec.threads << " thread(s)...\n";
  SweepResult sweep = run_sweep(spec);
  std::map<std::string, RunResult> runs;
  for (SweepCellResult& cell : sweep.cells) {
    runs.emplace(cell.policy, std::move(cell.run));
  }
  return runs;
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_claim,
                         std::ostream& out = std::cout) {
  out << "================================================================\n"
      << experiment << "\n"
      << "paper: " << paper_claim << "\n"
      << "================================================================\n";
}

}  // namespace ncdrf::bench
