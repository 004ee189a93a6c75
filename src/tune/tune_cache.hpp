// Persistent auto-tuning cache: the on-disk memory of finalize-time kernel
// search (tune/tuner.hpp).
//
// A cache entry maps one layer workload key — kind, ISA variant, thread
// count and full shape — to the execution-plan decision the search committed
// (kernel variant, register-tile width, parallel grain).  Warm starts look
// decisions up instead of re-measuring, so a server restart skips the
// microbenchmark pass entirely.
//
// Trust model: the cache is an *accelerator*, never an authority.  Every
// failure mode — missing file, truncation, bit flips, a schema or host
// mismatch — degrades to an empty (or shorter) cache and therefore to
// re-search; load() never throws and a cached decision is re-validated
// against the live layer before it is committed (tune::decision_valid).  A
// corrupt cache can cost time, never correctness.
//
// File format (all integers little-endian, following the io::Model
// discipline of bounded, validated reads):
//   magic "BFTC" | u32 format | u32 schema | u32 host_cores | u32 count
//   then `count` fixed-size entries (key fields, then decision fields).
// `schema` is kCacheSchemaVersion and changes whenever the search space or
// decision semantics change; `host_cores` pins the file to the machine that
// measured it.  Either mismatching means every entry is stale: the whole
// file is ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bitflow::tune {

/// Bump whenever the candidate space, measurement method or Decision
/// semantics change: entries written under any other schema are ignored
/// wholesale (silent re-search, never a stale plan).
///   1: initial search space.
///   2: tiled candidates of narrow layers run the folded-window kernel, so
///      a schema-1 "untiled" verdict for e.g. VGG conv1.1 is stale.
inline constexpr std::uint32_t kCacheSchemaVersion = 2;

/// Hard ceiling on a cache file's size; anything larger is treated as
/// corrupt.  At 96 bytes per entry this bounds the cache to ~10k layers,
/// far beyond any real network.
inline constexpr std::size_t kCacheMaxBytes = std::size_t{1} << 20;

/// Maximum entries accepted from one file (also the in-memory put() cap).
inline constexpr std::uint32_t kCacheMaxEntries = 4096;

/// Where a layer's committed execution plan came from.
enum class DecisionSource : std::uint8_t {
  kDefault = 0,  ///< static heuristic (tuning off, or search fell back)
  kSearch = 1,   ///< measured this finalize
  kCache = 2,    ///< measured by an earlier finalize, loaded from disk
};

[[nodiscard]] constexpr const char* decision_source_name(DecisionSource s) noexcept {
  switch (s) {
    case DecisionSource::kDefault: return "default";
    case DecisionSource::kSearch: return "search";
    case DecisionSource::kCache: return "cache";
  }
  return "?";
}

/// One committed execution-plan choice for a layer.
struct Decision {
  /// Register-tiled plan.  Every plan the tuner emits is tiled; a false
  /// entry can only come from a cache written while a filter-major
  /// candidate still existed, and decision_valid() rejects it.
  bool tiled = false;
  std::int64_t tile = 0;       ///< tile width T when tiled, 0 otherwise
  std::int64_t par_grain = 1;  ///< ConvSpec::par_grain (conv only; 1 = pixel split)
  DecisionSource source = DecisionSource::kDefault;
  double best_ms = 0.0;        ///< winning candidate's measured time (search/cache)
  std::int32_t candidates = 0; ///< how many candidates the search measured
};

/// Workload identity of one layer.  `kind` 0 = conv (extents are the padded
/// input the kernel actually reads), 1 = fc (c = input neurons, k = output
/// neurons, spatial/filter fields 1).  `threads` is the pool width the plan
/// was measured with — a different serving configuration re-searches.
struct Key {
  std::uint8_t kind = 0;
  std::uint8_t isa = 0;     ///< static_cast<uint8_t>(simd::IsaLevel)
  std::uint8_t vpopcnt = 0; ///< AVX-512 popcount flavour (LUT vs native)
  std::int32_t threads = 1;
  std::int64_t in_h = 1, in_w = 1, c = 0, k = 0, kh = 1, kw = 1, stride = 1;

  [[nodiscard]] bool operator==(const Key&) const = default;
};

struct Entry {
  Key key;
  Decision decision;
};

/// In-memory tuning cache with corruption-tolerant (de)serialization.
/// Linear-scan lookup: networks have tens of layers, not thousands.
class TuneCache {
 public:
  /// Replaces the contents with the entries of `path`.  A missing,
  /// unreadable, oversized, corrupt or mismatching file yields an empty (or
  /// truncated-at-first-anomaly) cache; this NEVER throws.
  void load(const std::string& path);

  /// Serializes the current entries to `path` (write-then-rename so readers
  /// never observe a half-written file).  Returns false on any failure;
  /// never throws.
  [[nodiscard]] bool save(const std::string& path) const;

  /// The decision stored for `key`, or nullptr.
  [[nodiscard]] const Decision* lookup(const Key& key) const;

  /// Inserts or replaces the entry for `key`.  Silently drops the insert
  /// once kCacheMaxEntries distinct keys are held.
  void put(const Key& key, const Decision& decision);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }
  void clear() noexcept { entries_.clear(); }

  /// The exact byte image save() writes — exposed so the fuzz harness can
  /// mutate real images without touching the filesystem.
  [[nodiscard]] std::string serialize() const;

  /// Parses `size` bytes into the cache, replacing its contents.  Tolerant:
  /// parsing stops at the first anomaly (bad magic/header, short read,
  /// implausible field) keeping the entries validated so far; never throws.
  void deserialize(const char* data, std::size_t size);

 private:
  std::vector<Entry> entries_;
};

/// The cache path from $BITFLOW_TUNE_CACHE, or "" when unset (no
/// persistence; the search still runs and its decisions live for the
/// lifetime of the network).
[[nodiscard]] std::string default_cache_path();

}  // namespace bitflow::tune
