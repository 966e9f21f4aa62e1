#include "trace/benchmark_format.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/units.h"

namespace ncdrf {
namespace {

struct RawCoflow {
  double arrival_ms = 0.0;
  std::vector<int> mappers;
  std::vector<std::pair<int, double>> reducers;  // (rack, total MB)
};

// The whole of `token` as a T: "5abc", "0x10", "2x" and out-of-range
// values are errors.
template <typename T>
T parse_token(std::string_view token, const char* what) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  NCDRF_CHECK(ec == std::errc() && ptr == end,
              std::string("malformed ") + what + " '" + std::string(token) +
                  "' in trace");
  return value;
}

template <typename T>
T read_token(std::istream& in, const char* what) {
  std::string token;
  NCDRF_CHECK(static_cast<bool>(in >> token),
              std::string("missing ") + what + " in trace");
  return parse_token<T>(token, what);
}

}  // namespace

Trace parse_benchmark_trace(std::istream& in) {
  const int num_racks = read_token<int>(in, "rack count");
  const int num_coflows = read_token<int>(in, "coflow count");
  NCDRF_CHECK(num_racks >= 1, "trace must have at least one rack");
  NCDRF_CHECK(num_coflows >= 1, "trace must have at least one coflow");

  // No reserve: the header count is untrusted, and a missing coflow line
  // fails below long before a huge count could allocate.
  std::vector<RawCoflow> raw;
  int min_rack = std::numeric_limits<int>::max();
  for (int c = 0; c < num_coflows; ++c) {
    RawCoflow rc;
    read_token<long long>(in, "coflow id");  // ids are reassigned densely
    rc.arrival_ms = read_token<double>(in, "arrival time");
    NCDRF_CHECK(std::isfinite(rc.arrival_ms) && rc.arrival_ms >= 0.0,
                "arrival time in trace must be finite and non-negative");
    const int num_mappers = read_token<int>(in, "mapper count");
    NCDRF_CHECK(num_mappers >= 1, "coflow must have at least one mapper");
    for (int m = 0; m < num_mappers; ++m) {
      const int rack = read_token<int>(in, "mapper rack");
      NCDRF_CHECK(rack >= 0, "negative mapper rack in trace");
      rc.mappers.push_back(rack);
      min_rack = std::min(min_rack, rack);
    }
    const int num_reducers = read_token<int>(in, "reducer count");
    NCDRF_CHECK(num_reducers >= 1, "coflow must have at least one reducer");
    for (int r = 0; r < num_reducers; ++r) {
      std::string token;
      NCDRF_CHECK(static_cast<bool>(in >> token), "missing reducer entry");
      const std::size_t colon = token.find(':');
      NCDRF_CHECK(colon != std::string::npos,
                  "reducer entry must be 'rack:sizeMB', got '" + token + "'");
      const std::string_view entry(token);
      const int rack = parse_token<int>(entry.substr(0, colon), "reducer rack");
      NCDRF_CHECK(rack >= 0, "negative reducer rack in trace");
      const double size_mb =
          parse_token<double>(entry.substr(colon + 1), "reducer size");
      NCDRF_CHECK(std::isfinite(size_mb) && size_mb > 0.0,
                  "reducer shuffle size must be finite and positive");
      rc.reducers.emplace_back(rack, size_mb);
      min_rack = std::min(min_rack, rack);
    }
    raw.push_back(std::move(rc));
  }
  NCDRF_CHECK((in >> std::ws).eof(),
              "trailing data after the declared coflows in trace");

  // Published benchmark traces are 1-based; synthetic/test inputs may be
  // 0-based. A rack id of 0 anywhere means the whole file is 0-based.
  const int base = (min_rack == 0) ? 0 : 1;

  TraceBuilder builder(num_racks);
  for (const RawCoflow& rc : raw) {
    builder.begin_coflow(milliseconds(rc.arrival_ms));
    for (const auto& [reducer_rack, total_mb] : rc.reducers) {
      const double per_mapper_mb =
          total_mb / static_cast<double>(rc.mappers.size());
      for (const int mapper_rack : rc.mappers) {
        const int src = mapper_rack - base;
        const int dst = reducer_rack - base;
        NCDRF_CHECK(src >= 0 && src < num_racks,
                    "mapper rack out of range in trace");
        NCDRF_CHECK(dst >= 0 && dst < num_racks,
                    "reducer rack out of range in trace");
        const double bits = megabytes(per_mapper_mb);
        NCDRF_CHECK(std::isfinite(bits) && bits > 0.0,
                    "flow size out of range in trace");
        builder.add_flow(src, dst, bits);
      }
    }
  }
  return builder.build();
}

Trace parse_benchmark_trace_string(const std::string& text) {
  std::istringstream in(text);
  return parse_benchmark_trace(in);
}

Trace load_benchmark_trace(const std::string& path) {
  std::ifstream in(path);
  NCDRF_CHECK(in.good(), "cannot open trace file: " + path);
  return parse_benchmark_trace(in);
}

std::string serialize_benchmark_trace(const Trace& trace) {
  std::ostringstream os;
  // Full double precision: serialized sizes must round-trip exactly.
  os.precision(17);
  os << trace.num_machines << ' ' << trace.coflows.size() << '\n';
  for (const Coflow& coflow : trace.coflows) {
    // Recover mapper set and per-reducer totals from the flows.
    std::vector<int> mappers;
    std::map<int, double> reducer_bits;
    for (const Flow& f : coflow.flows()) {
      if (std::find(mappers.begin(), mappers.end(), f.src) == mappers.end()) {
        mappers.push_back(f.src);
      }
      reducer_bits[f.dst] += f.size_bits;
    }
    std::sort(mappers.begin(), mappers.end());

    // Whole milliseconds; a double, not a cast, so no arrival overflows.
    os << coflow.id() << ' ' << std::trunc(coflow.arrival_time() * 1000.0)
       << ' ' << mappers.size();
    for (const int m : mappers) os << ' ' << (m + 1);
    os << ' ' << reducer_bits.size();
    for (const auto& [rack, bits_total] : reducer_bits) {
      os << ' ' << (rack + 1) << ':' << to_megabytes(bits_total);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ncdrf
