// Fault-tolerance bench: the robustness analogue of the perf benches.
//
// Runs the Table III micro-benchmark on the emulated cluster under
// increasing control-plane churn (seeded FaultPlan: slave crash/restart
// cycles, master restarts, partitions, loss bursts) and reports CCT
// inflation versus the fault-free run, fault-to-repair reallocation
// latency, and the message overhead of the recovery machinery.
//
// `--json` emits one newline-delimited JSON object per run
// (metrics/export.h:write_deployment_json) on stdout for the CI
// bench-smoke artifact, and moves the banner and table to stderr.
// `--trace-dir <dir>` writes one Chrome trace-event file and one
// metrics-registry JSON per churn level (virtual-clock timestamps, so two
// runs produce byte-identical files — CI pins that).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "cluster/deployment.h"
#include "metrics/export.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "trace/microbench.h"

int main(int argc, char** argv) {
  using namespace ncdrf;
  bool json = false;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    }
  }
  // Under --json stdout carries NDJSON only; the human report goes to
  // stderr.
  std::ostream& report = json ? std::cerr : std::cout;
  bench::print_header(
      "Fault injection — reallocation latency and CCT inflation under churn",
      "the control plane survives crashes/partitions with bounded slowdown",
      report);

  MicrobenchOptions trace_options;
  trace_options.min_flow_bits = 8.0 * 10e6;  // scaled down for bench speed
  trace_options.max_flow_bits = 8.0 * 20e6;
  trace_options.arrival_b_s = 2.0;
  trace_options.arrival_c_s = 4.0;
  const Trace trace = build_testbed_trace(trace_options);
  const Fabric fabric(trace_options.num_machines, mbps(200.0));

  struct Level {
    const char* label;
    double mean_gap_s;  // 0 = fault-free baseline
  };
  const Level levels[] = {
      {"fault-free", 0.0}, {"light", 2.0}, {"medium", 1.0}, {"heavy", 0.5}};

  AsciiTable table({"Churn", "Faults", "Makespan (s)", "CCT infl.",
                    "Recov mean (s)", "Recov max (s)", "Retries",
                    "Dropped"});
  double baseline_cct_sum = 0.0;
  for (const Level& level : levels) {
    const auto scheduler = make_scheduler("ncdrf-live");
    DeploymentOptions options;
    options.record_progress = false;
    options.control_loss_probability = 0.02;
    if (level.mean_gap_s > 0.0) {
      ChurnOptions churn;
      churn.start_s = 0.5;
      churn.horizon_s = 8.0;
      churn.mean_gap_s = level.mean_gap_s;
      options.faults =
          random_churn_plan(42, trace_options.num_machines, churn);
    }
    std::cerr << "  deploying " << level.label << " churn ("
              << options.faults.size() << " fault events)...\n";
    obs::Tracer tracer(1 << 20);
    obs::MetricsRegistry metrics;
    if (!trace_dir.empty()) {
      options.tracer = &tracer;
      options.metrics = &metrics;
    }
    const DeploymentResult result =
        run_deployment(fabric, trace, *scheduler, options);
    if (!trace_dir.empty()) {
      const std::string base = trace_dir + "/faults-" + level.label;
      std::ofstream trace_out(base + ".json");
      NCDRF_CHECK(trace_out.good(), "cannot write " + base + ".json");
      tracer.write_chrome_json(trace_out);
      std::ofstream metrics_out(base + "-metrics.json");
      NCDRF_CHECK(metrics_out.good(),
                  "cannot write " + base + "-metrics.json");
      metrics.write_json(metrics_out);
    }

    double cct_sum = 0.0;
    for (const CoflowRecord& rec : result.coflows) cct_sum += rec.cct;
    if (level.mean_gap_s == 0.0) baseline_cct_sum = cct_sum;
    double rec_sum = 0.0;
    double rec_max = 0.0;
    for (const double r : result.recovery_latencies_s) {
      rec_sum += r;
      rec_max = std::max(rec_max, r);
    }
    const double rec_mean =
        result.recovery_latencies_s.empty()
            ? 0.0
            : rec_sum /
                  static_cast<double>(result.recovery_latencies_s.size());
    table.add_row(
        {level.label, std::to_string(options.faults.size()),
         AsciiTable::fmt(result.makespan, 2),
         AsciiTable::fmt(cct_sum / baseline_cct_sum, 3),
         AsciiTable::fmt(rec_mean, 3), AsciiTable::fmt(rec_max, 3),
         std::to_string(result.fault_counters.bus_retries),
         std::to_string(result.messages_dropped)});
    if (json) {
      write_deployment_json(std::cout, result, scheduler->name(),
                            level.label);
    }
  }
  report << table.render();
  return 0;
}
