// obs_top: terminal view of a live Timeseries snapshot stream.
//
// Tails the append-only NDJSON file that obs::SnapshotStream (or
// bench_serve --trace-dir) writes, parses the *last complete* window
// line — a writer mid-line never corrupts the view — and renders the
// window as aligned tables: the per-client serving plane first
// (serve.client.N.* instruments pivoted into one row per client), then
// every other counter / gauge / histogram.
//
//   obs_top FILE                one-shot render of the newest window
//   obs_top --follow FILE       re-render every interval until killed
//   obs_top --interval=0.5 ...  follow-mode refresh period (seconds)
//
// Exits 1 when the file cannot be read or holds no complete window yet
// (one-shot mode); follow mode keeps waiting for the first window.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "obs/json_lint.h"

namespace {

using ncdrf::AsciiTable;
using ncdrf::obs::SnapshotRow;

// The last '\n'-terminated line of the file ("" when none is complete).
std::string last_complete_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t end = text.rfind('\n');
  if (end == std::string::npos) return "";
  const std::size_t begin = text.rfind('\n', end == 0 ? 0 : end - 1);
  return text.substr(begin == std::string::npos ? 0 : begin + 1,
                     end - (begin == std::string::npos ? 0 : begin + 1));
}

// Splits "serve.client.3.backlog" into (3, "backlog"); false otherwise.
bool client_metric(const std::string& name, int& client, std::string& field) {
  static const std::string kPrefix = "serve.client.";
  if (name.rfind(kPrefix, 0) != 0) return false;
  const std::size_t dot = name.find('.', kPrefix.size());
  if (dot == std::string::npos || dot == kPrefix.size()) return false;
  for (std::size_t i = kPrefix.size(); i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  client = std::stoi(name.substr(kPrefix.size(), dot - kPrefix.size()));
  field = name.substr(dot + 1);
  return true;
}

void render(const SnapshotRow& row, std::ostream& out) {
  out << "window " << static_cast<long long>(row.window) << "  ["
      << AsciiTable::fmt(row.t0, 3) << "s, " << AsciiTable::fmt(row.t1, 3)
      << "s)  span " << AsciiTable::fmt(row.t1 - row.t0, 3) << "s\n\n";

  // Pivot the per-client instruments into one row per client: backlog is
  // a gauge, accepted/rejected/shed are counters (rate column).
  struct ClientRow {
    double backlog = 0.0;
    double accepted_rate = 0.0;
    double rejected_rate = 0.0;
    double shed_rate = 0.0;
  };
  std::map<int, ClientRow> clients;
  int client = -1;
  std::string field;
  for (const auto& [name, value] : row.gauges) {
    if (client_metric(name, client, field) && field == "backlog") {
      clients[client].backlog = value;
    }
  }
  for (const auto& [name, values] : row.counters) {
    if (!client_metric(name, client, field)) continue;
    const double rate = values[2];  // {total, delta, rate_per_s}
    if (field == "accepted") clients[client].accepted_rate = rate;
    if (field == "rejected") clients[client].rejected_rate = rate;
    if (field == "shed") clients[client].shed_rate = rate;
  }
  if (!clients.empty()) {
    AsciiTable table({"client", "backlog", "accepted/s", "rejected/s",
                      "shed/s"});
    for (const auto& [id, c] : clients) {
      table.add_row({std::to_string(id), AsciiTable::fmt(c.backlog, 0),
                     AsciiTable::fmt(c.accepted_rate, 1),
                     AsciiTable::fmt(c.rejected_rate, 1),
                     AsciiTable::fmt(c.shed_rate, 1)});
    }
    out << table.render() << '\n';
  }

  AsciiTable counters({"counter", "total", "delta", "rate/s"});
  bool any_counter = false;
  for (const auto& [name, values] : row.counters) {
    // Pivoted above; serve.client.N.invalid.<reason> stays listed here.
    if (client_metric(name, client, field) &&
        field.find('.') == std::string::npos) {
      continue;
    }
    counters.add_row({name, AsciiTable::fmt(values[0], 0),
                      AsciiTable::fmt(values[1], 0),
                      AsciiTable::fmt(values[2], 1)});
    any_counter = true;
  }
  if (any_counter) out << counters.render() << '\n';

  AsciiTable gauges({"gauge", "value"});
  bool any_gauge = false;
  for (const auto& [name, value] : row.gauges) {
    if (client_metric(name, client, field)) continue;
    gauges.add_row({name, AsciiTable::fmt(value, 2)});
    any_gauge = true;
  }
  if (any_gauge) out << gauges.render() << '\n';

  if (!row.histograms.empty()) {
    AsciiTable hists({"histogram", "count", "p50", "p95", "p99"});
    for (const auto& [name, values] : row.histograms) {
      // values = {count, sum, p50, p95, p99}
      hists.add_row({name, AsciiTable::fmt(values[0], 0),
                     AsciiTable::fmt(values[2], 6),
                     AsciiTable::fmt(values[3], 6),
                     AsciiTable::fmt(values[4], 6)});
    }
    out << hists.render();
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  double interval_s = 1.0;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
    } else if (arg.rfind("--interval=", 0) == 0) {
      interval_s = std::stod(arg.substr(11));
      if (interval_s <= 0.0) {
        std::cerr << "obs_top: interval must be positive\n";
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "usage: obs_top [--follow] [--interval=SECONDS] FILE\n";
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "obs_top: exactly one FILE\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: obs_top [--follow] [--interval=SECONDS] FILE\n";
    return 2;
  }

  double last_window = -1.0;
  while (true) {
    const std::string line = last_complete_line(path);
    if (line.empty()) {
      if (!follow) {
        std::cerr << "obs_top: no complete snapshot line in " << path << '\n';
        return 1;
      }
    } else {
      SnapshotRow row;
      const std::string error =
          ncdrf::obs::parse_timeseries_line(line, &row);
      if (!error.empty()) {
        std::cerr << "obs_top: " << path << ": " << error << '\n';
        return 1;
      }
      if (row.window != last_window) {
        last_window = row.window;
        std::ostringstream frame;
        render(row, frame);
        if (follow) std::cout << "\033[2J\033[H";  // clear + home
        std::cout << frame.str() << std::flush;
      }
    }
    if (!follow) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
  return 0;
}
