// perfbench_harness: runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <fb_replay|serve_drf|scenario_karma>
//                     [--seed N] [--seconds S] [--trace 0|1]
//                     [--spec path/to/scenario_karma.json]
//
// --trace 0 prints the end-to-end metrics, measured with nothing wrapped;
// --trace 1 prints the per-layer metrics of a run that wraps the scheduler
// and times each module's calls from outside. Each metric goes on its own
// line as "name value unit"; the last line is one JSON object with keys
// correct, attempted, failed and metrics. Exits 1 when an output check
// failed, 2 on bad usage.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},
    {"cpu_s", "s"},         {"peak_rss_mb", "MB"},
    {"arrivals_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sched.allocate_calls", "count"},  {"sched.allocate_s", "s"},
    {"sched.allocate_p50_us", "us"},    {"sched.allocate_p99_us", "us"},
    {"core.incremental_ratio", "ratio"}, {"core.links_touched", "count"},
    {"sched.hook_calls", "count"},      {"sched.hook_s", "s"},
    {"sim.events", "count"},            {"sim.self_s", "s"},
    {"serve.enqueue_s", "s"},           {"serve.epochs", "count"},
    {"serve.self_s", "s"},              {"serve.admitted", "count"},
    {"serve.rate_pushes", "count"},     {"serve.push_ratio", "ratio"},
    {"serve.epoch_p50_ms", "ms"},       {"serve.epoch_p99_ms", "ms"},
    {"alloc.shard_regions", "count"},   {"alloc.shard_busy_s", "s"},
    {"alloc.shard_critical_s", "s"},    {"alloc.shard_balance", "ratio"},
    {"alloc.sharded_over_serial", "ratio"},
    {"trace.generate_s", "s"},          {"serve.loadgen_s", "s"},
    {"scenario.build_s", "s"},          {"scenario.coflows", "count"},
    {"scenario.sim_plane_s", "s"},      {"scenario.serve_plane_s", "s"},
    {"scenario.serve_over_sim", "ratio"}, {"bench.trace_overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload <fb_replay|serve_drf|"
               "scenario_karma> [--seed N] [--seconds S] [--trace 0|1] "
               "[--spec path]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spec") {
        args.spec_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  try {
    if (args.workload == "fb_replay") {
      report = perfbench::run_fb_replay(args);
    } else if (args.workload == "serve_drf") {
      report = perfbench::run_serve_drf(args);
    } else if (args.workload == "scenario_karma") {
      report = perfbench::run_scenario_karma(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  report.put("peak_rss_mb", peak_rss_mb());

  // A layer the workload does not exercise reports 0.
  std::vector<MetricDef> defs;
  if (args.trace) {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted) +
          ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  std::printf("%-26s %lld\n%-26s %lld\n%-26s %.6g\n", "attempted", report.attempted,
              "failed", report.failed, "error_rate",
              perfbench::ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted)));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = report.values.find(defs[i].name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    std::printf("%-26s %.10g %s\n", defs[i].name, value, defs[i].unit);
    char entry[160];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 ? 0 : 1;
}
