// Process-wide metrics registry: lock-free counters, gauges and log-bucketed
// histograms with O(1) hot-path recording, a consistent snapshot API, and
// Prometheus-style text exposition.
//
// Design (the discipline every instrument follows):
//   * Recording is wait-free: a Counter::add / Gauge::set / Histogram::record
//     is a handful of relaxed atomic operations on pre-registered storage —
//     no locks, no allocation, no string handling.  All string work (names,
//     labels) happens once at registration and once per snapshot.
//   * Registration is cold: Registry::counter()/gauge()/histogram() take the
//     registry mutex, intern the (name, labels) pair and return a reference
//     with a stable address for the registry's lifetime.  Looking up an
//     existing pair returns the same instrument, so independent subsystems
//     can share a metric by name.
//   * Snapshots are relaxed reads of the live atomics: values observed while
//     writers are running are each individually consistent and monotone
//     across successive snapshots (counters/histogram buckets never
//     decrease), but one snapshot is not a cross-instrument atomic cut —
//     that is the standard Prometheus scrape contract.
//   * Callback gauges let a subsystem expose derived state (queue depth,
//     pool utilization) evaluated only at snapshot time; owners must remove
//     their callbacks (remove_callbacks) before the captured state dies.
//
// Histograms come in two bucketings:
//   * log2: bucket i counts samples v with std::bit_width(v) == i, i.e.
//     bucket 0 holds v = 0 and bucket i >= 1 holds v in [2^(i-1), 2^i - 1];
//     65 buckets cover the full uint64 range with no overflow bucket.
//   * linear(n): buckets 0..n-1 hold exact values 0..n-1 plus one overflow
//     bucket — the shape a batch-size distribution wants.
//
// The process-wide Registry::instance() additionally exposes the failpoint
// catalog's trip counts as callback gauges, so fault-injection activity
// shows up in the same scrape as the serving counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace bitflow::telemetry {

/// Monotonically increasing event count.  All operations are relaxed: the
/// counter orders nothing, it only tallies.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  // Ordering contract: relaxed everywhere — a tally orders nothing.
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written signed value (queue depths, live-object counts).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) noexcept { v_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  // Ordering contract: relaxed everywhere — last-writer-wins sample, no
  // cross-variable ordering promised to readers.
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram with wait-free recording.  See the file comment
/// for the two bucketings.  Usable standalone (profiler accumulators) or
/// owned by the registry.
class Histogram {
 public:
  /// Number of log2 buckets: bit_width of a uint64 is 0..64.
  static constexpr std::size_t kLog2Buckets = 65;

  /// Log-bucketed histogram over the full uint64 range.
  Histogram() : Histogram(Bucketing::kLog2, kLog2Buckets) {}

  /// Linear histogram: values 0..n-1 count exactly, >= n in the overflow
  /// bucket (index n).  `n` must be >= 1.
  [[nodiscard]] static Histogram linear(std::size_t n) {
    return Histogram(Bucketing::kLinear, n + 1);
  }

  Histogram(Histogram&& other) noexcept;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  Histogram& operator=(Histogram&&) = delete;

  /// O(1) wait-free record: one bucket increment plus sum/count updates.
  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t bucket_index(std::uint64_t v) const noexcept {
    if (bucketing_ == Bucketing::kLog2) return static_cast<std::size_t>(std::bit_width(v));
    const std::size_t overflow = n_buckets_ - 1;
    return v < overflow ? static_cast<std::size_t>(v) : overflow;
  }

  /// Inclusive upper bound of bucket `i` (UINT64_MAX for the last log2
  /// bucket and the linear overflow bucket).
  [[nodiscard]] std::uint64_t bucket_upper(std::size_t i) const noexcept;

  /// Zeroes every bucket, the sum and the count.  Not atomic with
  /// concurrent record(); callers quiesce writers first.
  void reset() noexcept;

  [[nodiscard]] std::size_t num_buckets() const noexcept { return n_buckets_; }
  [[nodiscard]] bool is_log2() const noexcept { return bucketing_ == Bucketing::kLog2; }

  /// Point-in-time copy of the histogram state (relaxed reads).
  struct Snapshot {
    std::vector<std::uint64_t> buckets;
    std::vector<std::uint64_t> uppers;  ///< inclusive upper bound per bucket
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Upper bound of the bucket holding the q-quantile sample (0 <= q <= 1);
    /// 0 when empty.
    [[nodiscard]] std::uint64_t quantile_upper(double q) const;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  enum class Bucketing : std::uint8_t { kLog2, kLinear };
  Histogram(Bucketing b, std::size_t n);

  Bucketing bucketing_;
  std::size_t n_buckets_;
  // Ordering contract: relaxed everywhere.  A record() is three independent
  // relaxed adds; snapshot() reads count_ first so a concurrently recorded
  // sample can only make the snapshot conservative (bucket visible, count
  // not yet), never inconsistent in a way a reader can observe as negative.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// --- snapshot types ---------------------------------------------------------

struct CounterSample {
  std::string name, labels;  ///< labels preformatted, e.g. `engine="3"` (may be empty)
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name, labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name, labels;
  Histogram::Snapshot hist;
};

/// One registry scrape.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Prometheus text exposition format: `# TYPE` comments, sanitized metric
  /// names (dots become underscores), cumulative `_bucket{le="..."}` series
  /// plus `_sum`/`_count` for histograms.
  [[nodiscard]] std::string to_prometheus() const;
};

// --- registry ---------------------------------------------------------------

/// Instrument registry.  Normally used through the process-wide instance();
/// independently constructible so tests can pin exposition output without
/// cross-test pollution.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every subsystem records into.
  static Registry& instance();

  /// Returns the instrument registered under (name, labels), creating it on
  /// first use.  The reference is stable for the registry's lifetime.
  /// Requesting an existing name with a mismatched kind throws
  /// std::invalid_argument.
  Counter& counter(std::string_view name, std::string_view labels = "");
  Gauge& gauge(std::string_view name, std::string_view labels = "");
  /// Log2 histogram by default; `linear_max` >= 0 selects linear(linear_max)
  /// bucketing (values 0..linear_max exact + overflow).  The bucketing of an
  /// existing histogram is not changed by later calls.
  Histogram& histogram(std::string_view name, std::string_view labels = "",
                       std::int64_t linear_max = -1);

  /// Registers a gauge evaluated at snapshot time.  `owner` keys removal:
  /// the callback must be removed (remove_callbacks) before any state it
  /// captures is destroyed.  Callbacks run under the registry mutex and must
  /// not re-enter the registry.
  void add_callback_gauge(const void* owner, std::string name, std::string labels,
                          std::function<double()> fn);
  void remove_callbacks(const void* owner);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string prometheus_text() const { return snapshot().to_prometheus(); }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shorthand for Registry::instance().
[[nodiscard]] Registry& registry();

}  // namespace bitflow::telemetry
