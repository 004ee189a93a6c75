// Per-site latency/throughput accumulators and the roofline calibration the
// per-layer profiler reports against.
//
// A SpanStats is a lock-free accumulator for one instrumented site (one
// network layer, one pipeline stage): invocation count, work units (images),
// total/min nanoseconds and a log-bucketed histogram for p50/p99.  Any
// number of threads may record concurrently (replicated serving workers all
// profile into the shared per-layer accumulators of their network).
//
// Profiling is armed per network (NetworkConfig::profile) or process-wide:
// set_profiling(true), or the BITFLOW_PROFILE environment variable.  The
// disarmed cost in the inference path is one relaxed atomic load per layer.
//
// roofline_peak_gops(isa) measures — once, lazily, cached — the throughput
// of the raw xor+popcount primitive at `isa` over an L1-resident buffer, in
// the same "2 ops per binary multiply-accumulate" unit the benches use
// (one 64-bit word = 64 MACs = 128 ops).  That is the compute roof a binary
// conv/fc layer of that ISA can at best reach; the profiler reports each
// layer's achieved GOPS as a fraction of it, next to the layer's
// arithmetic-intensity (core/ait) so memory-bound layers are attributable:
// a low roof fraction with low AIT is bandwidth, not kernel quality.
#pragma once

#include <atomic>
#include <cstdint>

#include "simd/isa.hpp"
#include "telemetry/metrics.hpp"

namespace bitflow::telemetry {

/// Process-wide profiling switch (also armed by BITFLOW_PROFILE=1).
[[nodiscard]] bool profiling_enabled() noexcept;
void set_profiling(bool on) noexcept;

/// Lock-free accumulator for one instrumented site.
class SpanStats {
 public:
  /// Records one invocation of `ns` nanoseconds covering `units` work units
  /// (e.g. images in a fused batch).  Wait-free except the min update, which
  /// is a bounded CAS loop that almost always exits on the first compare.
  void record(std::uint64_t ns, std::uint64_t units = 1) noexcept {
    units_.fetch_add(units, std::memory_order_relaxed);
    std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
    while (ns < cur &&
           !min_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
    hist_.record(ns);
  }

  void reset() noexcept {
    // Not atomic with concurrent record(); callers quiesce writers first.
    units_.store(0, std::memory_order_relaxed);
    min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
    hist_.reset();
  }

  struct View {
    std::uint64_t count = 0;
    std::uint64_t units = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;  ///< 0 when no samples
    std::uint64_t p50_ns = 0;  ///< upper bucket bound (log2-coarse)
    std::uint64_t p99_ns = 0;
    [[nodiscard]] double mean_ns() const {
      return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
    }
  };
  [[nodiscard]] View view() const {
    View v;
    // count, total and the quantiles come from one histogram snapshot.
    const Histogram::Snapshot h = hist_.snapshot();
    v.count = h.count;
    v.total_ns = h.sum;
    v.units = units_.load(std::memory_order_relaxed);
    const std::uint64_t mn = min_ns_.load(std::memory_order_relaxed);
    v.min_ns = mn == UINT64_MAX ? 0 : mn;
    v.p50_ns = h.quantile_upper(0.50);
    v.p99_ns = h.quantile_upper(0.99);
    return v;
  }

 private:
  // Ordering contract: relaxed everywhere — independent tallies read by
  // view() as individually consistent samples; no cross-field cut is
  // promised (same contract as Histogram).  min_ns_'s CAS loop is relaxed
  // too: the comparison only needs the value, not any ordering.
  std::atomic<std::uint64_t> units_{0};
  std::atomic<std::uint64_t> min_ns_{UINT64_MAX};
  Histogram hist_;  // log2 ns buckets; also holds the sample count and total
};

/// Measured compute roof for binary kernels at `isa`: xor+popcount GOPS over
/// an L1-resident working set, cached after the first call (which spends a
/// few milliseconds measuring).  Thread-safe.
[[nodiscard]] double roofline_peak_gops(simd::IsaLevel isa);

}  // namespace bitflow::telemetry
