// Deterministic event tracer — the timeline half of the observability
// layer (src/obs/).
//
// A Tracer is a fixed-capacity ring buffer of typed, POD trace events.
// Components record instants, nested begin/end spans (allocate phases,
// reallocations) and async spans (a slave's crash→restart downtime, a
// partition's start→heal window) against either the driver's *virtual*
// clock — the simulator's event time or the deployment's tick time, so a
// trace is bit-identical across runs — or, for a live path with no virtual
// clock, a steady_clock started at tracer construction.
//
// Exports:
//   * Chrome trace-event JSON ({"traceEvents":[...]}), loadable directly
//     in Perfetto / chrome://tracing;
//   * NDJSON (one event object per line) for grep/jq-style pipelines.
//
// Hot paths never call the Tracer directly: they go through the
// NCDRF_TRACE_* macros below, which compile to nothing when the build sets
// NCDRF_TRACE_ENABLED=0 (CMake option NCDRF_TRACE=OFF) — a tracing-
// disabled build carries zero tracing work in the per-event loop.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace ncdrf::obs {

struct Counter;

// Every event kind the system emits. The exporter maps each kind to a
// stable name and argument labels (see event_kind_name / tracer.cc), so
// adding a kind means extending one table, not touching call sites.
enum class EventKind : std::uint8_t {
  // Simulator / scheduler events.
  kCoflowArrival,      // instant: a0=coflow, a1=flows
  kFlowFinish,         // instant: a0=flow, a1=coflow
  kCoflowFinish,       // instant: a0=coflow, d0=cct_s
  kAllocate,           // span: one scheduler allocate(); a0=active_coflows
  kNcDrfAlloc,         // span: NC-DRF core; a0=1 incremental, 0 rebuild
  kCorrelationBuild,   // span: n̄_k and load/usage vectors from the counts
  kPStarSearch,        // span: Eq. 5 bottleneck search; a0=link, d0=p_star
  kBackfill,           // span: work-conservation stage; a0=rounds
  kBackfillRound,      // instant: a0=round index
  // Cluster events.
  kClusterRegister,    // instant: a0=coflow, a1=flows
  kClusterReallocate,  // span: master reallocation; a0=rate_updates
  kClusterHeartbeat,   // instant: a0=machine
  kSlaveDown,          // async span (id=machine): crash→restart
  kMasterDown,         // async span (id=0): crash→restart
  kPartition,          // async span (id=machine): start→heal
  kLossBurst,          // async span (id=0): d0=loss_probability
  kRecovery,           // instant: a0=machine, d0=latency_s
  // Serving front-end events (src/serve/).
  kServeEpoch,         // span: one epoch; a0=admitted, a1=active_coflows
  kServeRatePush,      // instant: a0=machine, d0=staleness_s
  kServeShed,          // instant: a0=client, a1=count
  kServeBackpressure,  // instant: a0=level (0 ok, 1 slowdown, 2 shed)
  // Causal-latency stage marks (trace id stamped at submission, carried
  // through RegisterCoflowMsg/RateUpdateMsg — see docs/OBSERVABILITY.md).
  kServeAdmit,         // instant: a0=coflow, a1=trace_id, d0=queue_s
  kServeAllocCover,    // instant: a0=coflow, a1=trace_id, d0=alloc_s
  kServeFirstPush,     // instant: a0=coflow, a1=trace_id, d0=total_s
};

// Stable exporter name for a kind (e.g. "allocate", "slave_down").
const char* event_kind_name(EventKind kind);

// Chrome trace-event phases used by this tracer: 'B'/'E' nested spans,
// 'i' instants, 'b'/'e' async spans (args carry the async id in a0).
struct TraceEvent {
  double ts = 0.0;        // seconds (virtual or wall since construction)
  std::int64_t a0 = 0;    // first integer argument (or async span id)
  std::int64_t a1 = 0;    // second integer argument
  double d0 = 0.0;        // double argument
  EventKind kind = EventKind::kCoflowArrival;
  char phase = 'i';
};

class Tracer {
 public:
  enum class ClockMode {
    kVirtual,  // callers pass timestamps (deterministic traces)
    kWall,     // timestamps read from steady_clock (live paths)
  };

  // `capacity` bounds memory: once full, the *oldest* events are
  // overwritten (the tail of a run is what a postmortem needs) and
  // dropped_events() counts the loss.
  explicit Tracer(std::size_t capacity = 1 << 16,
                  ClockMode mode = ClockMode::kVirtual);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void instant(EventKind kind, double ts, std::int64_t a0 = 0,
               std::int64_t a1 = 0, double d0 = 0.0) {
    push(TraceEvent{stamp(ts), a0, a1, d0, kind, 'i'});
  }
  void begin(EventKind kind, double ts, std::int64_t a0 = 0,
             std::int64_t a1 = 0, double d0 = 0.0) {
    push(TraceEvent{stamp(ts), a0, a1, d0, kind, 'B'});
  }
  void end(EventKind kind, double ts, std::int64_t a0 = 0,
           std::int64_t a1 = 0, double d0 = 0.0) {
    push(TraceEvent{stamp(ts), a0, a1, d0, kind, 'E'});
  }
  // Async spans: `id` distinguishes concurrent instances of one kind
  // (machine id for slave_down/partition). Rendered as their own tracks.
  void async_begin(EventKind kind, double ts, std::int64_t id,
                   double d0 = 0.0) {
    push(TraceEvent{stamp(ts), id, 0, d0, kind, 'b'});
  }
  void async_end(EventKind kind, double ts, std::int64_t id,
                 double d0 = 0.0) {
    push(TraceEvent{stamp(ts), id, 0, d0, kind, 'e'});
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buffer_.size(); }
  // Events lost to ring overflow (oldest-first overwrite).
  long long dropped_events() const { return dropped_; }
  // Mirrors every future drop into a MetricsRegistry counter (typically
  // "trace.dropped_events"), so ring overflow surfaces in the metrics /
  // timeseries plane instead of only behind the accessor above. Null
  // unbinds. The counter must outlive the tracer or the binding.
  void bind_drop_counter(Counter* counter) { drop_counter_ = counter; }
  ClockMode clock_mode() const { return mode_; }
  void clear();

  // Events in record order (oldest surviving first).
  std::vector<TraceEvent> events() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — Perfetto-loadable.
  // Deterministic formatting: byte-identical for identical event streams.
  void write_chrome_json(std::ostream& out) const;

  // One JSON object per line, same fields as the Chrome export.
  void write_ndjson(std::ostream& out) const;

  // The surviving events with ts >= min_ts as a JSON *array* (record
  // order, per-event schema of the NDJSON lines). The flight recorder
  // (obs/flight.h) embeds this last-N-seconds slice in its bundles; a
  // slice may cut spans, so consumers must not assume B/E balance.
  void write_slice_json(std::ostream& out, double min_ts) const;

 private:
  double stamp(double ts) const;
  void push(const TraceEvent& event);

  std::vector<TraceEvent> buffer_;  // fixed-size ring
  std::size_t head_ = 0;            // next write slot
  std::size_t size_ = 0;            // live events (<= capacity)
  long long dropped_ = 0;
  Counter* drop_counter_ = nullptr;
  ClockMode mode_;
  double wall_epoch_ = 0.0;  // steady_clock seconds at construction
};

// RAII nested span: begin at construction, end at destruction, both at the
// timestamp given (virtual mode) or at wall time (wall mode). Null tracer
// = no-op, so call sites need no branches.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, EventKind kind, double ts, std::int64_t a0 = 0,
             std::int64_t a1 = 0, double d0 = 0.0)
      : tracer_(tracer), kind_(kind), ts_(ts) {
    if (tracer_ != nullptr) tracer_->begin(kind, ts, a0, a1, d0);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(kind_, ts_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  EventKind kind_;
  double ts_;
};

}  // namespace ncdrf::obs

// Compile-time switch: CMake option NCDRF_TRACE=OFF defines
// NCDRF_TRACE_ENABLED=0 and every macro below vanishes — no branch, no
// ring-buffer write, no obs call in the hot path.
#ifndef NCDRF_TRACE_ENABLED
#define NCDRF_TRACE_ENABLED 1
#endif

#if NCDRF_TRACE_ENABLED

#define NCDRF_OBS_CONCAT_(a, b) a##b
#define NCDRF_OBS_CONCAT(a, b) NCDRF_OBS_CONCAT_(a, b)

// Declares an RAII span covering the rest of the enclosing scope.
#define NCDRF_TRACE_SPAN(tracer, ...) \
  ::ncdrf::obs::ScopedSpan NCDRF_OBS_CONCAT(ncdrf_obs_span_, \
                                            __LINE__)((tracer), __VA_ARGS__)
#define NCDRF_TRACE_INSTANT(tracer, ...)                      \
  do {                                                        \
    if ((tracer) != nullptr) (tracer)->instant(__VA_ARGS__);  \
  } while (false)
#define NCDRF_TRACE_ASYNC_BEGIN(tracer, ...)                      \
  do {                                                            \
    if ((tracer) != nullptr) (tracer)->async_begin(__VA_ARGS__);  \
  } while (false)
#define NCDRF_TRACE_ASYNC_END(tracer, ...)                      \
  do {                                                          \
    if ((tracer) != nullptr) (tracer)->async_end(__VA_ARGS__);  \
  } while (false)

#else  // !NCDRF_TRACE_ENABLED

#define NCDRF_TRACE_SPAN(tracer, ...) \
  do {                                \
  } while (false)
#define NCDRF_TRACE_INSTANT(tracer, ...) \
  do {                                   \
  } while (false)
#define NCDRF_TRACE_ASYNC_BEGIN(tracer, ...) \
  do {                                       \
  } while (false)
#define NCDRF_TRACE_ASYNC_END(tracer, ...) \
  do {                                     \
  } while (false)

#endif  // NCDRF_TRACE_ENABLED
