// Chrome-tracing / Perfetto trace-event sink with per-thread ring buffers.
//
// When disabled (the default), a TraceSpan costs ONE relaxed atomic load in
// its constructor and a branch on the cached result in its destructor — the
// same discipline as core/failpoint, verified by bench_micro's span-overhead
// rows and CI's telemetry job.  When enabled (programmatically via
// trace_start(), passively via trace_arm_passive() — the flight recorder's
// always-on mode — or for a whole process via BITFLOW_TRACE=<path>), each
// span records a complete event into a fixed-capacity thread-local ring
// buffer: no locks, no allocation on the hot path after a thread's first
// event (or its first after the ring capacity changed).  trace_stop() (or process exit under BITFLOW_TRACE) merges every
// thread's ring and writes Chrome's JSON array format, loadable in
// chrome://tracing and Perfetto:
//
//   BITFLOW_TRACE=trace.json ./examples/serving_engine
//
// Span vocabulary (cat / name):
//   net     : "net.request" — wire frame receipt on the poll thread
//   serve   : "serve.batch" — one micro-batch through a worker;
//             "serve.batch.member" — instant, one request joining a batch
//   graph   : "graph.infer_batch", "pack_input" — one pass through the chain
//   layer   : "layer:<name>" — one network stage
//   kernel  : "<kernel>[<isa>,tN,gN]" — the kernel dispatch inside a stage
//   request : async "serve.request" pairs (enqueue -> resolution); async
//             because a request's lifetime spans threads and overlaps
//             batches, so it must not claim a slot in the nesting stack.
//   flight  : flight_event() breadcrumbs — lifecycle transitions, sheds,
//             quarantines, deadline breaches, reloads, ...: an instant
//             named by its kind, carrying args.detail.
//
// Request-scoped joining: events carry an optional request id (`rid`,
// emitted as args.rid; for the async request pair it is also the event id),
// so one request's wire-to-kernel timeline — net.request on the poll
// thread, the async serve.request track, the serve.batch.member instant on
// the worker that ran it, and the layer/kernel spans nested in that
// worker's serve.batch window — reconstructs from a single trace.
//
// Ring overflow overwrites the *oldest* record, so a thread's ring always
// holds its newest `ring_capacity` records — a long-running server's
// incident snapshot still contains the request that caused it.  Each slot
// is a single-writer seqlock whose payload is written through relaxed
// atomics: a reader that overlaps the owner rewriting a slot skips it, and
// TSan sees no plain-memory race.  Overwritten counts are reported in the
// trace metadata and surfaced as the `telemetry.trace.dropped` registry
// gauge.
//
// A thread that exits leaves its ring behind with its records, readable
// until the next session arms or stops; the next thread to record takes
// that ring over (each record keeps its writer's tid) instead of adding
// one, so a server that churns threads holds as many rings as it ever ran
// threads at once (the `telemetry.trace.rings` gauge), not one per thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace bitflow::telemetry {

namespace detail {
// Ordering contract: relaxed loads/stores only.  Arming publishes no data
// through this flag — a span that observes the old value merely skips (or
// clamps into) the session; slot publication orders via each slot's
// seqlock and the ring head's release/acquire pair instead.
extern std::atomic<bool> g_trace_enabled;
/// Appends a complete event to the calling thread's ring.  `start_ns`/`end_ns`
/// are steady_clock readings.  `name` is copied into the ring slot (truncated
/// to 47 chars) so dynamic names — layer/kernel names owned by a network —
/// stay valid even when the flush runs at process exit; `cat` must be a
/// string literal (the pointer is kept).  `rid` (0 = none) joins the event
/// to a wire request.
void trace_record(const char* name, const char* cat, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int64_t arg, std::uint64_t rid = 0);
/// Appends an async begin/end pair (rendered as its own track).
void trace_record_async(const char* name, const char* cat, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t id, std::uint64_t rid = 0);
/// Appends a thread-scoped instant event.  `detail` (may be null) is copied,
/// truncated to 95 chars, and emitted as args.detail.
void trace_record_instant(const char* name, const char* cat, std::uint64_t ts_ns,
                          std::uint64_t rid, const char* detail = nullptr) noexcept;
[[nodiscard]] std::uint64_t now_ns() noexcept;
}  // namespace detail

/// One relaxed load: is the trace sink armed?
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Arms the sink; events recorded from now on are written to `path` by
/// trace_stop().  `ring_capacity` bounds the per-thread event count
/// (overflow overwrites the oldest).  Throws std::logic_error if already
/// armed.
void trace_start(const std::string& path, std::size_t ring_capacity = 1 << 16);

/// Arms the sink with NO output path: events accumulate in the rings and are
/// read non-destructively by trace_snapshot_json() — the flight recorder's
/// always-on mode.  trace_stop() on a passive session disarms and resets
/// without writing a file.  No-op when a session (either kind) is already
/// armed — the existing session's rings serve the snapshots.
void trace_arm_passive(std::size_t ring_capacity = 1 << 14);

/// Disarms the sink, merges every thread's ring and writes the JSON file
/// (unless the session was passive).  Returns the number of events written.
/// No-op returning 0 when not armed.
std::size_t trace_stop();

/// One record read back from a thread's ring.
struct TraceRecord {
  std::string name;    ///< span/instant name; a flight event's kind
  std::string detail;  ///< flight events only (args.detail)
  const char* cat = "";
  char ph = 'X';       ///< 'X' complete span, 'a' async pair, 'i' instant
  std::uint32_t tid = 0;
  std::uint64_t seq = 0;  ///< the record's index in its thread's ring
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t arg = -1;  ///< >= 0: args.n (complete spans)
  std::uint64_t rid = 0;  ///< != 0: args.rid
  std::uint64_t id = 0;   ///< async pair id ('a' only)
};

/// Every live record of the armed session: each thread's ring oldest first,
/// threads in registration order.
struct TraceSnapshot {
  bool armed = false;
  std::uint64_t t0_ns = 0;    ///< steady_clock at arming
  std::uint64_t dropped = 0;  ///< records overwritten by ring wrap
  std::vector<TraceRecord> records;
};

/// Non-destructive snapshot WITHOUT disarming or resetting — safe to call
/// while writers keep recording (a slot being rewritten is skipped).  Empty
/// (armed = false) when not armed.
[[nodiscard]] TraceSnapshot trace_snapshot();

/// Renders a snapshot in Chrome's JSON array format, with a footer counter
/// event carrying the overwritten count.  `events_out` (optional) receives
/// the number of event objects written; an async pair is two.
[[nodiscard]] std::string trace_render_json(const TraceSnapshot& snap,
                                            std::size_t* events_out = nullptr);

/// trace_render_json(trace_snapshot()); an empty string when not armed.
[[nodiscard]] std::string trace_snapshot_json();

/// Records overwritten by ring wrap since the session was armed.
[[nodiscard]] std::uint64_t trace_dropped_events();

/// RAII scoped span.  Disarmed cost: one relaxed atomic load (constructor)
/// plus a predictable branch (destructor).  `rid` (0 = none) joins the span
/// to a wire request (emitted as args.rid).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "span",
                     std::int64_t arg = -1, std::uint64_t rid = 0) noexcept
      : name_(name), cat_(cat), arg_(arg), rid_(rid), armed_(trace_enabled()) {
    if (armed_) [[unlikely]] start_ns_ = detail::now_ns();
  }
  ~TraceSpan() {
    if (armed_) [[unlikely]] {
      detail::trace_record(name_, cat_, start_ns_, detail::now_ns(), arg_, rid_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t arg_;
  std::uint64_t rid_;
  bool armed_;
  std::uint64_t start_ns_ = 0;
};

/// Records an async (cross-thread) interval from explicit steady_clock
/// nanosecond readings; used for request lifetimes.  Call only after
/// checking trace_enabled().
inline void trace_async(const char* name, const char* cat, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t id, std::uint64_t rid = 0) {
  detail::trace_record_async(name, cat, start_ns, end_ns, id, rid);
}

/// Thread-scoped instant event (Chrome ph "i"): a point in time interleaved
/// with the surrounding spans — lifecycle transitions, shed decisions,
/// batch membership.  One relaxed load when disarmed.
inline void trace_instant(const char* name, const char* cat = "lifecycle",
                          std::uint64_t rid = 0) noexcept {
  if (trace_enabled()) [[unlikely]] {
    detail::trace_record_instant(name, cat, detail::now_ns(), rid);
  }
}

/// steady_clock now in nanoseconds (the time base every recorded span uses).
[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept { return detail::now_ns(); }

/// Fresh process-unique id for an async interval.
[[nodiscard]] std::uint64_t trace_next_async_id();

}  // namespace bitflow::telemetry
