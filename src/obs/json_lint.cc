#include "obs/json_lint.h"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace ncdrf::obs {
namespace {

// ---------------------------------------------------------------------------
// Schema checks.
// ---------------------------------------------------------------------------

const JsonValue* find(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string require_number(const JsonObject& object, const std::string& key,
                          const std::string& where) {
  const JsonValue* value = find(object, key);
  if (value == nullptr) return where + ": missing \"" + key + '"';
  if (!value->is_number()) return where + ": \"" + key + "\" not a number";
  return "";
}

// The per-event fields every trace event carries — all a flight bundle's
// trace *slice* can promise (a slice may cut a span in half, so B/E
// balance is not required there). check_trace_event adds the rest.
std::string check_event_fields(const JsonObject& event,
                               const std::string& where) {
  const JsonValue* name = find(event, "name");
  if (name == nullptr || !name->is_string()) {
    return where + ": missing string \"name\"";
  }
  const JsonValue* ph = find(event, "ph");
  if (ph == nullptr || !ph->is_string() || ph->string().size() != 1) {
    return where + ": missing one-character \"ph\"";
  }
  for (const char* key : {"ts", "pid", "tid"}) {
    if (std::string err = require_number(event, key, where); !err.empty()) {
      return err;
    }
  }
  return "";
}

std::string check_trace_event(const JsonObject& event, std::size_t index,
                              std::vector<std::string>& open_spans) {
  std::ostringstream where_s;
  where_s << "traceEvents[" << index << ']';
  const std::string where = where_s.str();

  if (std::string err = check_event_fields(event, where); !err.empty()) {
    return err;
  }
  const JsonValue* cat = find(event, "cat");
  if (cat == nullptr || !cat->is_string()) {
    return where + ": missing string \"cat\"";
  }
  const JsonValue* args = find(event, "args");
  if (args != nullptr && !args->is_object()) {
    return where + ": \"args\" not an object";
  }

  const std::string& name = find(event, "name")->string();
  const char phase = find(event, "ph")->string()[0];
  switch (phase) {
    case 'B':
      open_spans.push_back(name);
      return "";
    case 'E':
      if (open_spans.empty()) {
        return where + ": 'E' with no open 'B' span";
      }
      if (open_spans.back() != name) {
        return where + ": 'E' for \"" + name +
               "\" but innermost open span is \"" + open_spans.back() + '"';
      }
      open_spans.pop_back();
      return "";
    case 'i': {
      const JsonValue* scope = find(event, "s");
      if (scope != nullptr && !scope->is_string()) {
        return where + ": instant scope \"s\" not a string";
      }
      return "";
    }
    case 'b':
    case 'e':
      return require_number(event, "id", where);
    case 'X':
      return require_number(event, "dur", where);
    case 'M':
    case 'C':
      return "";
    default:
      return where + ": unknown phase '" + std::string(1, phase) + '\'';
  }
}

// p50 <= p95 <= p99 on an entry whose quantiles are already numbers.
std::string check_quantiles(const JsonObject& entry, const std::string& where) {
  const double p50 = find(entry, "p50")->number();
  const double p95 = find(entry, "p95")->number();
  const double p99 = find(entry, "p99")->number();
  if (p50 <= p95 && p95 <= p99) return "";
  return where + ": quantiles not ordered (p50 <= p95 <= p99)";
}

std::string check_histogram_entry(const std::string& name,
                                  const JsonValue& value) {
  const std::string where = "histograms." + name;
  if (!value.is_object()) return where + ": not an object";
  const JsonObject& entry = value.object();
  for (const char* key :
       {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}) {
    if (std::string err = require_number(entry, key, where); !err.empty()) {
      return err;
    }
  }
  return check_quantiles(entry, where);
}

// MetricsRegistry::write_json schema over an already-parsed object —
// shared between validate_metrics_json and the flight bundle's embedded
// "metrics" section.
std::string check_metrics_object(const JsonObject& top) {
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* value = find(top, section);
    if (value == nullptr || !value->is_object()) {
      return std::string("missing \"") + section + "\" object";
    }
  }
  for (const auto& [name, value] : find(top, "counters")->object()) {
    if (!value.is_number()) return "counters." + name + ": not a number";
  }
  for (const auto& [name, value] : find(top, "gauges")->object()) {
    if (!value.is_number()) return "gauges." + name + ": not a number";
  }
  for (const auto& [name, value] : find(top, "histograms")->object()) {
    if (std::string err = check_histogram_entry(name, value); !err.empty()) {
      return err;
    }
  }
  return "";
}

// One timeseries snapshot object (a SnapshotStream NDJSON line or a
// flight bundle "timeseries" element), plus the stream-ordering contract:
// strictly increasing windows, t1 > t0, gap-free spans. `prev_window` /
// `prev_t1` carry the contract across snapshots (start at -inf).
std::string check_snapshot_object(const JsonObject& snap,
                                  const std::string& where,
                                  double& prev_window, double& prev_t1) {
  for (const char* key : {"window", "t0", "t1"}) {
    if (std::string err = require_number(snap, key, where); !err.empty()) {
      return err;
    }
  }
  const double window = find(snap, "window")->number();
  const double t0 = find(snap, "t0")->number();
  const double t1 = find(snap, "t1")->number();
  if (window <= prev_window) {
    return where + ": window numbers not strictly increasing";
  }
  if (t1 <= t0) return where + ": window span is empty (t1 <= t0)";
  if (prev_t1 > -std::numeric_limits<double>::infinity() && t0 != prev_t1) {
    return where + ": window spans not contiguous (t0 != previous t1)";
  }
  prev_window = window;
  prev_t1 = t1;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* value = find(snap, section);
    if (value == nullptr || !value->is_object()) {
      return where + ": missing \"" + section + "\" object";
    }
  }
  for (const auto& [name, value] : find(snap, "counters")->object()) {
    const std::string cwhere = where + ".counters." + name;
    if (!value.is_object()) return cwhere + ": not an object";
    for (const char* key : {"total", "delta", "rate_per_s"}) {
      if (std::string err = require_number(value.object(), key, cwhere);
          !err.empty()) {
        return err;
      }
    }
  }
  for (const auto& [name, value] : find(snap, "gauges")->object()) {
    if (!value.is_number()) {
      return where + ".gauges." + name + ": not a number";
    }
  }
  for (const auto& [name, value] : find(snap, "histograms")->object()) {
    const std::string hwhere = where + ".histograms." + name;
    if (!value.is_object()) return hwhere + ": not an object";
    for (const char* key : {"count", "sum", "p50", "p95", "p99"}) {
      if (std::string err = require_number(value.object(), key, hwhere);
          !err.empty()) {
        return err;
      }
    }
    if (std::string err = check_quantiles(value.object(), hwhere);
        !err.empty()) {
      return err;
    }
  }
  return "";
}

}  // namespace

std::string validate_json(const std::string& text) {
  JsonValue root;
  return parse_json(text, &root);
}

std::string validate_chrome_trace_json(const std::string& text) {
  JsonValue root;
  if (std::string err = parse_json(text, &root); !err.empty()) return err;
  if (!root.is_object()) return "top level is not an object";
  const JsonObject& top = root.object();
  const JsonValue* events = find(top, "traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing \"traceEvents\" array";
  }
  if (const JsonValue* dropped = find(top, "droppedEvents");
      dropped != nullptr && !dropped->is_number()) {
    return "\"droppedEvents\" not a number";
  }
  std::vector<std::string> open_spans;
  double last_ts = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const JsonValue& event = events->array()[i];
    if (!event.is_object()) {
      std::ostringstream out;
      out << "traceEvents[" << i << "]: not an object";
      return out.str();
    }
    if (std::string err = check_trace_event(event.object(), i, open_spans);
        !err.empty()) {
      return err;
    }
    const double ts = find(event.object(), "ts")->number();
    if (ts < last_ts) {
      std::ostringstream out;
      out << "traceEvents[" << i << "]: timestamps not non-decreasing";
      return out.str();
    }
    last_ts = ts;
  }
  if (!open_spans.empty()) {
    return "unbalanced spans: \"" + open_spans.back() + "\" never closed";
  }
  return "";
}

std::string validate_metrics_json(const std::string& text) {
  JsonValue root;
  if (std::string err = parse_json(text, &root); !err.empty()) return err;
  if (!root.is_object()) return "top level is not an object";
  return check_metrics_object(root.object());
}

std::string validate_ndjson(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    if (std::string err = parse_json(line, &value); !err.empty()) {
      std::ostringstream out;
      out << "line " << line_no << ": " << err;
      return out.str();
    }
    if (!value.is_object()) {
      std::ostringstream out;
      out << "line " << line_no << ": not a JSON object";
      return out.str();
    }
  }
  return "";
}

std::string validate_timeseries_ndjson(const std::string& text) {
  // An append-only stream ends every record with '\n'; a final line
  // without one is a write cut mid-record.
  if (!text.empty() && text.back() != '\n') {
    return "truncated final line (missing newline)";
  }
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  double prev_window = -std::numeric_limits<double>::infinity();
  double prev_t1 = -std::numeric_limits<double>::infinity();
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    const std::string err = parse_json(line, &value);
    std::ostringstream where;
    where << "line " << line_no;
    if (!err.empty()) return where.str() + ": " + err;
    if (!value.is_object()) return where.str() + ": not a JSON object";
    if (std::string err = check_snapshot_object(value.object(), where.str(),
                                                prev_window, prev_t1);
        !err.empty()) {
      return err;
    }
  }
  return "";
}

std::string validate_flight_bundle_json(const std::string& text) {
  JsonValue root;
  if (std::string err = parse_json(text, &root); !err.empty()) return err;
  if (!root.is_object()) return "top level is not an object";
  const JsonObject& top = root.object();

  const JsonValue* bundle = find(top, "bundle");
  if (bundle == nullptr || !bundle->is_string() ||
      bundle->string() != "ncdrf.flight") {
    return "missing \"bundle\":\"ncdrf.flight\" marker";
  }
  if (std::string err = require_number(top, "seq", "bundle"); !err.empty()) {
    return err;
  }

  const JsonValue* trigger = find(top, "trigger");
  if (trigger == nullptr || !trigger->is_object()) {
    return "missing \"trigger\" object";
  }
  const JsonValue* kind = find(trigger->object(), "kind");
  if (kind == nullptr || !kind->is_string()) {
    return "trigger: missing string \"kind\"";
  }
  const JsonValue* detail = find(trigger->object(), "detail");
  if (detail == nullptr || !detail->is_string()) {
    return "trigger: missing string \"detail\"";
  }
  for (const char* key : {"time", "value"}) {
    if (std::string err = require_number(trigger->object(), key, "trigger");
        !err.empty()) {
      return err;
    }
  }

  const JsonValue* config = find(top, "config");
  if (config == nullptr || !config->is_object()) {
    return "missing \"config\" object";
  }

  const JsonValue* metrics = find(top, "metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return "missing \"metrics\" object";
  }
  if (std::string err = check_metrics_object(metrics->object());
      !err.empty()) {
    return "metrics: " + err;
  }

  const JsonValue* timeseries = find(top, "timeseries");
  if (timeseries == nullptr || !timeseries->is_array()) {
    return "missing \"timeseries\" array";
  }
  double prev_window = -std::numeric_limits<double>::infinity();
  double prev_t1 = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < timeseries->array().size(); ++i) {
    const JsonValue& snap = timeseries->array()[i];
    std::ostringstream where;
    where << "timeseries[" << i << ']';
    if (!snap.is_object()) return where.str() + ": not an object";
    if (std::string err = check_snapshot_object(snap.object(), where.str(),
                                                prev_window, prev_t1);
        !err.empty()) {
      return err;
    }
  }

  const JsonValue* trace = find(top, "trace");
  if (trace == nullptr || !trace->is_object()) {
    return "missing \"trace\" object";
  }
  if (std::string err = require_number(trace->object(), "dropped", "trace");
      !err.empty()) {
    return err;
  }
  const JsonValue* events = find(trace->object(), "events");
  if (events == nullptr || !events->is_array()) {
    return "trace: missing \"events\" array";
  }
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const JsonValue& event = events->array()[i];
    std::ostringstream where;
    where << "trace.events[" << i << ']';
    if (!event.is_object()) return where.str() + ": not an object";
    if (std::string err = check_event_fields(event.object(), where.str());
        !err.empty()) {
      return err;
    }
  }
  return "";
}

std::string parse_timeseries_line(const std::string& line, SnapshotRow* out) {
  JsonValue root;
  if (std::string err = parse_json(line, &root); !err.empty()) return err;
  if (!root.is_object()) return "not a JSON object";
  const JsonObject& snap = root.object();
  double prev_window = -std::numeric_limits<double>::infinity();
  double prev_t1 = -std::numeric_limits<double>::infinity();
  if (std::string err =
          check_snapshot_object(snap, "snapshot", prev_window, prev_t1);
      !err.empty()) {
    return err;
  }
  out->window = find(snap, "window")->number();
  out->t0 = find(snap, "t0")->number();
  out->t1 = find(snap, "t1")->number();
  out->counters.clear();
  out->gauges.clear();
  out->histograms.clear();
  for (const auto& [name, value] : find(snap, "counters")->object()) {
    out->counters.emplace_back(
        name, std::vector<double>{find(value.object(), "total")->number(),
                                  find(value.object(), "delta")->number(),
                                  find(value.object(), "rate_per_s")->number()});
  }
  for (const auto& [name, value] : find(snap, "gauges")->object()) {
    out->gauges.emplace_back(name, value.number());
  }
  for (const auto& [name, value] : find(snap, "histograms")->object()) {
    out->histograms.emplace_back(
        name, std::vector<double>{find(value.object(), "count")->number(),
                                  find(value.object(), "sum")->number(),
                                  find(value.object(), "p50")->number(),
                                  find(value.object(), "p95")->number(),
                                  find(value.object(), "p99")->number()});
  }
  return "";
}

std::string validate_gaming_json(const std::string& text) {
  JsonValue root;
  if (std::string err = parse_json(text, &root); !err.empty()) return err;
  if (!root.is_object()) return "top level is not an object";
  const JsonObject& top = root.object();
  const JsonValue* benchmark = find(top, "benchmark");
  if (benchmark == nullptr || !benchmark->is_string() ||
      benchmark->string() != "bench_gaming") {
    return "missing \"benchmark\": \"bench_gaming\" tag";
  }
  const JsonValue* rows = find(top, "rows");
  if (rows == nullptr || !rows->is_array()) return "missing \"rows\" array";
  for (std::size_t i = 0; i < rows->array().size(); ++i) {
    std::ostringstream where_s;
    where_s << "rows[" << i << ']';
    const std::string where = where_s.str();
    const JsonValue& value = rows->array()[i];
    if (!value.is_object()) return where + ": not an object";
    const JsonObject& row = value.object();
    for (const char* key : {"policy", "strategy"}) {
      const JsonValue* field = find(row, key);
      if (field == nullptr || !field->is_string()) {
        return where + ": \"" + key + "\" not a string";
      }
    }
    for (const char* key :
         {"honest_fraction", "clients", "machines", "attackers", "coflows",
          "utilization", "jain_coflow", "jain_tenant", "log_welfare",
          "attacker_gain", "victim_slowdown", "makespan_s"}) {
      if (std::string err = require_number(row, key, where); !err.empty()) {
        return err;
      }
    }
    const double fraction = find(row, "honest_fraction")->number();
    if (fraction <= 0.0 || fraction >= 1.0) {
      return where + ": honest_fraction outside (0, 1)";
    }
    for (const char* key : {"attacker_gain", "victim_slowdown"}) {
      if (find(row, key)->number() <= 0.0) {
        return where + ": \"" + std::string(key) + "\" not positive";
      }
    }
    for (const char* key : {"jain_coflow", "jain_tenant", "utilization"}) {
      const double v = find(row, key)->number();
      if (v < 0.0 || v > 1.0 + 1e-9) {
        return where + ": \"" + std::string(key) + "\" outside [0, 1]";
      }
    }
  }
  return "";
}

}  // namespace ncdrf::obs
