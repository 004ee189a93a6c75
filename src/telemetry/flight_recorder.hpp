// Black-box flight recorder: always-on tracing + anomaly-triggered
// diagnostic bundles.
//
// The serving tier's failure evidence is perishable — by the time a human
// looks at a shed storm or a p99 blowout, the trace that would explain it is
// gone.  The flight recorder keeps the trace sink armed permanently in
// passive mode (per-thread overwrite-oldest rings, see trace.hpp), and its
// breadcrumbs for discrete facts — sheds, quarantines, reloads, deadline
// breaches, failpoint hits, lifecycle transitions — are trace instants in
// category "flight" in the same rings.  A breadcrumb therefore lives as long
// as its thread's last `trace_ring_capacity` records.  When a trigger fires
// — the SLO-breach detector over observed outcomes, a worker quarantine,
// the serve error-rate detector, or a manual request — it snapshots a
// **diagnostic bundle** to disk:
//
//   <dir>/bundle-000001/
//     MANIFEST.json   version, trigger, reason, per-section size + FNV-1a
//     trace.json      non-destructive trace snapshot (request-id joinable)
//     metrics.prom    Prometheus exposition snapshot
//     events.log      the "flight" instants of that same snapshot, by time
//     <section>.txt   one file per registered context provider (varz,
//                     profile report, tune plans, lifecycle state, ...)
//
// Bundles are written to a temp directory and atomically renamed into
// place, rate-limited (min interval between bundles + max bundle count per
// process) so a flapping trigger cannot fill the disk.
//
// Breadcrumb hot path: `flight_event()` is the trace sink's ONE relaxed
// atomic load when tracing is disarmed (CI-gated at <= 5 ns,
// BENCH_telemetry.json).  Armed, it writes one slot of the calling thread's
// ring — no mutex, so it is safe from any thread.
//
// Environment: BITFLOW_FLIGHT_DIR=<dir> arms the recorder (and passive
// tracing) at static init with default thresholds — no code changes needed.
//
// Layering: telemetry depends only on core/simd, so serving-layer state
// (lifecycle, /varz, profile report, tune plans) enters bundles through
// context providers registered by the owning layer (`flight_add_context`).
//
// This header also hosts the bundle *loader/validator* used by
// `tools/bitflow_bundle_dump` and the tests: manifest + checksum
// verification, trace well-nesting, metrics parse, and the request-id
// span-chain query — defensive against truncated/corrupted input (fuzzed in
// flight_recorder_test).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "telemetry/trace.hpp"

namespace bitflow::telemetry {

// ---------------------------------------------------------------------------
// Recording side.

enum class FlightTrigger : std::uint8_t {
  kSloBreach,    ///< deadline-breach detector tripped (flight_observe_outcome)
  kErrorRate,    ///< windowed error-rate detector tripped
  kQuarantine,   ///< a worker circuit breaker quarantined
  kManual,       ///< explicit flight_trigger() call (tools, tests)
};

[[nodiscard]] constexpr const char* flight_trigger_name(FlightTrigger t) noexcept {
  switch (t) {
    case FlightTrigger::kSloBreach: return "slo_breach";
    case FlightTrigger::kErrorRate: return "error_rate";
    case FlightTrigger::kQuarantine: return "quarantine";
    case FlightTrigger::kManual: return "manual";
  }
  return "?";
}

struct FlightRecorderConfig {
  /// Directory bundles are written into (created if missing).  Required.
  std::string dir;
  /// Per-thread trace ring capacity handed to trace_arm_passive(): how many
  /// of each thread's newest spans and breadcrumbs a bundle can contain.
  std::size_t trace_ring_capacity = 1 << 14;
  /// Rate limit: minimum wall time between two bundles.
  std::chrono::milliseconds min_bundle_interval{30'000};
  /// Rate limit: hard cap on bundles per armed session.
  std::size_t max_bundles = 8;
  /// SLO detector: this many deadline breaches (since the last trip)
  /// trigger a bundle.
  std::size_t breach_threshold = 8;
  /// Error-rate detector: over each window of `rate_window` observed
  /// outcomes, an error fraction >= `error_rate_threshold` triggers.
  std::size_t rate_window = 64;
  double error_rate_threshold = 0.5;
};

/// Arms the recorder: arms passive tracing, resets the detectors and the
/// bundle counters.  Throws std::invalid_argument on an empty dir or a
/// trace_ring_capacity below 16, std::logic_error if already armed.
void flight_start(FlightRecorderConfig cfg);

/// Disarms the recorder (stops passive tracing only if the recorder armed
/// it).  Registered context providers are kept.  No-op when disarmed.
void flight_stop();

/// One relaxed load: is the recorder armed?
[[nodiscard]] bool flight_armed() noexcept;

/// Records a breadcrumb: a trace instant in category "flight" named `kind`,
/// a short stable tag ("shed", "quarantine", "reload", "deadline",
/// "failpoint", "lifecycle", ...), with `detail_str` — one line of context,
/// copied up to 95 chars — as args.detail.  `rid` (0 = none) joins it to a
/// wire request.  Recorded whenever the trace sink is armed; disarmed cost:
/// one relaxed atomic load.  Never throws, never blocks.
inline void flight_event(const char* kind, const char* detail_str,
                         std::uint64_t rid = 0) noexcept {
  if (trace_enabled()) [[unlikely]] {
    detail::trace_record_instant(kind, "flight", detail::now_ns(), rid, detail_str);
  }
}

/// Feeds the SLO-breach / error-rate detectors with one request outcome.
/// Call from the serving layer's resolution paths.  May trigger a bundle
/// (rate-limited) on the calling thread.  Disarmed cost: one relaxed load.
void flight_observe_outcome(bool ok, bool deadline_breach) noexcept;

/// Fires a trigger: records a "trigger" breadcrumb and, unless
/// rate-limited, writes a bundle.  Returns true when a bundle was written.  No-op (false) when
/// disarmed.
bool flight_trigger(FlightTrigger trigger, const char* reason) noexcept;

/// Registers a named bundle section rendered at snapshot time (e.g. the
/// server's /varz text, profile_report() tables, tune plans).  `owner` keys
/// removal: call flight_remove_contexts(owner) before any state the
/// callback captures is destroyed.  Section names become `<section>.txt`
/// in the bundle.  Callbacks run on the triggering thread and must not
/// call back into the flight recorder.
void flight_add_context(const void* owner, std::string section,
                        std::function<std::string()> fn);
void flight_remove_contexts(const void* owner);

/// The "flight" instants of a trace snapshot (name = kind), ordered by
/// timestamp, ties by thread then ring index.
[[nodiscard]] std::vector<TraceRecord> flight_events_of(const TraceSnapshot& snap);

/// flight_events_of(trace_snapshot()): empty when tracing is disarmed.
[[nodiscard]] std::vector<TraceRecord> flight_events_snapshot();

/// Bundles written / suppressed by rate limiting since flight_start().
[[nodiscard]] std::uint64_t flight_bundles_written();
[[nodiscard]] std::uint64_t flight_bundles_suppressed();

/// One /varz-style block: armed state, dir, bundle counters.
[[nodiscard]] std::string flight_status_text();

// ---------------------------------------------------------------------------
// Bundle loader / validator (bitflow_bundle_dump, tests).

inline constexpr int kBundleManifestVersion = 1;

/// FNV-1a 64-bit over `data` — the bundle section checksum.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept;

struct BundleSectionInfo {
  std::string name;       ///< file name within the bundle directory
  std::uint64_t size = 0;
  std::uint64_t fnv1a = 0;
};

struct BundleManifest {
  int version = 0;
  std::uint64_t seq = 0;
  std::string trigger;
  std::string reason;
  std::vector<BundleSectionInfo> sections;
};

struct Bundle {
  BundleManifest manifest;
  std::map<std::string, std::string> sections;  ///< name -> raw contents
};

/// Minimal view of one trace event re-parsed from a bundle's trace.json.
struct ParsedTraceEvent {
  std::string name;
  std::string cat;
  char ph = '?';
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t id = 0;   ///< async pair id (0 = none)
  std::uint64_t rid = 0;  ///< args.rid (0 = none)
};

/// Reads `<dir>/MANIFEST.json` plus every listed section, verifying sizes
/// and FNV-1a checksums.  Fail-closed: any missing/truncated/corrupt piece
/// is kInvalidModel-style kBadInput, never a crash (fuzzed).
[[nodiscard]] core::Result<Bundle> load_bundle(const std::string& dir);

/// Structural validation of a loaded bundle: manifest version, required
/// sections present, trace.json parses with well-nested 'X' spans per
/// thread, metrics.prom parses as Prometheus text.
[[nodiscard]] core::Status validate_bundle(const Bundle& bundle);

/// Parses the bundle's trace.json into events (empty + error status on
/// malformed input).
[[nodiscard]] core::Result<std::vector<ParsedTraceEvent>> parse_bundle_trace(
    const Bundle& bundle);

/// True when the trace holds request `rid`'s wire-to-kernel chain: a
/// "net.request" span, the async "serve.request" pair, a
/// "serve.batch.member" instant, and a kernel-category span on the member's
/// thread overlapping its timestamp.
[[nodiscard]] bool bundle_has_request_chain(const Bundle& bundle, std::uint64_t rid);

/// Human-readable multi-line description (bitflow_bundle_dump output).
[[nodiscard]] std::string bundle_summary(const Bundle& bundle);

}  // namespace bitflow::telemetry
