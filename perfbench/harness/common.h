// Shared plumbing of the benchmark harness: clocks, sample statistics, the
// metric report each workload fills, and the repeat-until-deadline loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "sim/sim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seed every workload uses when none is given (ncdrf_cli's default); the
// fb_replay digest check is pinned to it.
constexpr std::uint64_t kDefaultSeed = 20180701;

// Setups per run; setup_s is their median.
constexpr int kSetupReps = 7;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the whole process (every thread, shard workers included).
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-coflow CCTs of a run, for bitwise comparison of two runs.
inline std::vector<double> ccts(const ncdrf::RunResult& run) {
  std::vector<double> out;
  for (const ncdrf::CoflowRecord& rec : run.coflows) out.push_back(rec.cct);
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spec_path;  // scenario_karma's ScenarioSpec (--spec)
};

// What one invocation reports: operations attempted and failed, and the
// metrics by name. Workloads put() what they measure; main() fills the
// names a workload does not exercise with 0 and prints the result.
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> values;

  void put(const std::string& name, double value) { values[name] = value; }
};

// Per-rep values of one metric across the traced reps; each metric is
// reported as its median.
struct RepSamples {
  std::map<std::string, std::vector<double>> by_name;

  void add(const std::string& name, double value) { by_name[name].push_back(value); }
  void report_medians(Report& report) const {
    for (const auto& [name, xs] : by_name) report.put(name, median(xs));
  }
};

// Runs rep(i) for i = 0, 1, ... while another rep of the mean length so
// far still fits in `seconds` of wall time, and at least `min_reps` times.
template <class Rep>
void repeat_for(double seconds, int min_reps, Rep&& rep) {
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (i >= min_reps && elapsed + elapsed / i > seconds) break;
    rep(i);
  }
}

// Median over `reps` setups of the time setup() takes.
template <class Setup>
double median_setup_seconds(int reps, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

Report run_fb_replay(const Args& args);
Report run_serve_drf(const Args& args);
Report run_scenario_karma(const Args& args);

}  // namespace perfbench
