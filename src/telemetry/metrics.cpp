#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/failpoint.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace bitflow::telemetry {

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(Bucketing b, std::size_t n)
    : bucketing_(b),
      n_buckets_(n),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {
  if (n < 2) throw std::invalid_argument("Histogram: needs at least two buckets");
  for (std::size_t i = 0; i < n; ++i) buckets_[i].store(0, std::memory_order_relaxed);
}

Histogram::Histogram(Histogram&& other) noexcept
    : bucketing_(other.bucketing_),
      n_buckets_(other.n_buckets_),
      buckets_(std::move(other.buckets_)),
      sum_(other.sum_.load(std::memory_order_relaxed)),
      count_(other.count_.load(std::memory_order_relaxed)) {}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i < n_buckets_; ++i) buckets_[i].store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_upper(std::size_t i) const noexcept {
  if (bucketing_ == Bucketing::kLinear) {
    return i + 1 < n_buckets_ ? static_cast<std::uint64_t>(i) : UINT64_MAX;
  }
  // log2: bucket 0 holds only 0; bucket i holds values up to 2^i - 1; the
  // last bucket (bit_width 64) has no finite power-of-two bound.
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (std::uint64_t{1} << i) - 1;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(n_buckets_);
  s.uppers.resize(n_buckets_);
  // Count first: a concurrent record() that is observed in a bucket but not
  // yet in count_ merely makes this snapshot conservative, never negative.
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n_buckets_; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.uppers[i] = bucket_upper(i);
  }
  return s;
}

std::uint64_t Histogram::Snapshot::quantile_upper(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t want =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= want) return uppers[i];
  }
  return uppers.empty() ? 0 : uppers.back();
}

// --- Registry ---------------------------------------------------------------

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (the dots of
/// our internal names) becomes '_'.
std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string key_of(std::string_view name, std::string_view labels) {
  std::string key(name);
  key.push_back('\x01');
  key.append(labels);
  return key;
}

}  // namespace

struct Registry::Impl {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name, labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct CallbackGauge {
    const void* owner;
    std::string name, labels;
    std::function<double()> fn;
  };

  // mu guards registration and snapshotting (the cold paths).  Recording on
  // an instrument returned by lookup() is lock-free and deliberately NOT
  // guarded: instrument addresses are stable for the registry's lifetime.
  mutable core::Mutex mu;
  // Keyed by name + '\x01' + labels; std::map keeps exposition output in a
  // deterministic order.  Entry instruments are heap-allocated so their
  // addresses survive map rebalancing.
  std::map<std::string, Entry> entries BF_GUARDED_BY(mu);
  std::vector<CallbackGauge> callbacks BF_GUARDED_BY(mu);

  /// Interns (name, labels) and constructs the instrument — both under mu,
  /// so two threads racing to register the same metric observe one fully
  /// constructed instrument (the returned address is stable thereafter).
  /// `linear_max` only applies to histograms (see Registry::histogram).
  Entry& lookup(std::string_view name, std::string_view labels, Kind kind,
                std::int64_t linear_max = -1) BF_EXCLUDES(mu) {
    core::MutexLock lock(mu);
    auto [it, inserted] = entries.try_emplace(key_of(name, labels));
    Entry& e = it->second;
    if (inserted) {
      e.kind = kind;
      e.name = std::string(name);
      e.labels = std::string(labels);
    } else if (e.kind != kind) {
      throw std::invalid_argument("telemetry: metric '" + std::string(name) +
                                  "' re-registered with a different kind");
    }
    switch (kind) {
      case Kind::kCounter:
        if (!e.counter) e.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        if (!e.gauge) e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        if (!e.histogram) {
          e.histogram = std::make_unique<Histogram>(
              linear_max >= 0 ? Histogram::linear(static_cast<std::size_t>(linear_max) + 1)
                              : Histogram());
        }
        break;
    }
    return e;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}

Registry::~Registry() = default;

Registry& Registry::instance() {
  // Leaked on purpose: worker threads and static destructors of downstream
  // binaries may record during shutdown, after main() returns.
  static Registry* g = [] {
    auto* r = new Registry();
    // Surface the failpoint catalog's trip counts in every scrape.  The
    // callbacks only run at snapshot time, so the fault-injection hot path
    // keeps its one-relaxed-load cost.
    for (const failpoint::PointInfo& p : failpoint::catalog()) {
      r->add_callback_gauge(r, "failpoint.hits", "point=\"" + std::string(p.name) + "\"",
                            [name = p.name] {
                              return static_cast<double>(failpoint::hit_count(name));
                            });
    }
    return r;
  }();
  return *g;
}

Registry& registry() { return Registry::instance(); }

Counter& Registry::counter(std::string_view name, std::string_view labels) {
  return *impl_->lookup(name, labels, Impl::Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view labels) {
  return *impl_->lookup(name, labels, Impl::Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view labels,
                               std::int64_t linear_max) {
  return *impl_->lookup(name, labels, Impl::Kind::kHistogram, linear_max).histogram;
}

void Registry::add_callback_gauge(const void* owner, std::string name, std::string labels,
                                  std::function<double()> fn) {
  core::MutexLock lock(impl_->mu);
  impl_->callbacks.push_back({owner, std::move(name), std::move(labels), std::move(fn)});
}

void Registry::remove_callbacks(const void* owner) {
  core::MutexLock lock(impl_->mu);
  std::erase_if(impl_->callbacks,
                [owner](const Impl::CallbackGauge& c) { return c.owner == owner; });
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot s;
  core::MutexLock lock(impl_->mu);
  for (const auto& [key, e] : impl_->entries) {
    switch (e.kind) {
      case Impl::Kind::kCounter:
        s.counters.push_back({e.name, e.labels, e.counter->value()});
        break;
      case Impl::Kind::kGauge:
        s.gauges.push_back({e.name, e.labels, static_cast<double>(e.gauge->value())});
        break;
      case Impl::Kind::kHistogram:
        s.histograms.push_back({e.name, e.labels, e.histogram->snapshot()});
        break;
    }
  }
  for (const Impl::CallbackGauge& c : impl_->callbacks) {
    s.gauges.push_back({c.name, c.labels, c.fn()});
  }
  return s;
}

// --- exposition -------------------------------------------------------------

namespace {

void append_series(std::string& out, const std::string& name, const std::string& labels,
                   const char* suffix, const std::string& extra_label, double value) {
  out += sanitize(name);
  out += suffix;
  if (!labels.empty() || !extra_label.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  char buf[64];
  // %.17g round-trips doubles; integral values print without a fraction.
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      value >= -9.2e18 && value <= 9.2e18) {
    std::snprintf(buf, sizeof buf, " %" PRId64 "\n", static_cast<std::int64_t>(value));
  } else {
    std::snprintf(buf, sizeof buf, " %.17g\n", value);
  }
  out += buf;
}

void append_type(std::string& out, const std::string& name, const char* type,
                 std::string& last_typed) {
  const std::string s = sanitize(name);
  if (s == last_typed) return;  // one TYPE line per metric family
  out += "# TYPE ";
  out += s;
  out += ' ';
  out += type;
  out += '\n';
  last_typed = s;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string last_typed;
  // Group each family's series behind ONE "# TYPE" line: registration order
  // interleaves same-named instruments from different owners (e.g. one
  // queue-depth gauge per engine shard), so sort by the SANITIZED family
  // name — distinct raw names may collapse to one family after sanitizing.
  const auto family_order = [](const auto& a, const auto& b) {
    const std::string fa = sanitize(a.name), fb = sanitize(b.name);
    return fa != fb ? fa < fb : a.labels < b.labels;
  };
  std::vector<CounterSample> sorted_counters(counters);
  std::sort(sorted_counters.begin(), sorted_counters.end(), family_order);
  std::vector<GaugeSample> sorted_gauges(gauges);
  std::sort(sorted_gauges.begin(), sorted_gauges.end(), family_order);
  std::vector<HistogramSample> sorted_hists(histograms);
  std::sort(sorted_hists.begin(), sorted_hists.end(), family_order);
  for (const CounterSample& c : sorted_counters) {
    append_type(out, c.name, "counter", last_typed);
    append_series(out, c.name, c.labels, "", "", static_cast<double>(c.value));
  }
  for (const GaugeSample& g : sorted_gauges) {
    append_type(out, g.name, "gauge", last_typed);
    append_series(out, g.name, g.labels, "", "", g.value);
  }
  for (const HistogramSample& h : sorted_hists) {
    append_type(out, h.name, "histogram", last_typed);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.hist.buckets.size(); ++i) {
      cum += h.hist.buckets[i];
      // Skip interior empty buckets to keep scrapes compact, but always emit
      // the final +Inf bucket (cum == count by construction).
      const bool last = i + 1 == h.hist.buckets.size();
      if (h.hist.buckets[i] == 0 && !last) continue;
      std::string le;
      if (last || h.hist.uppers[i] == UINT64_MAX) {
        le = "le=\"+Inf\"";
      } else {
        le = "le=\"" + std::to_string(h.hist.uppers[i]) + "\"";
      }
      append_series(out, h.name, h.labels, "_bucket", le, static_cast<double>(cum));
      if (last || h.hist.uppers[i] == UINT64_MAX) break;
    }
    append_series(out, h.name, h.labels, "_sum", "", static_cast<double>(h.hist.sum));
    append_series(out, h.name, h.labels, "_count", "", static_cast<double>(h.hist.count));
  }
  return out;
}

}  // namespace bitflow::telemetry
