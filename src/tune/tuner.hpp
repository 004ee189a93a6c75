// Finalize-time kernel auto-tuner (the "empirical scheduler" companion to
// graph/scheduler.hpp's analytical rules).
//
// The scheduler's channel-multiple rules pick the ISA; within an ISA the
// register-tiled kernels still leave real choices — the tile width T
// (supported_tile_widths) and the parallel-axis grain of the fused H*W
// range — whose best setting depends on the layer's shape in ways no
// closed-form rule captures (a K % T remainder runs the slower row path,
// T = 16 needs enough independent work to cover its register pressure).
//
// search() measures every valid candidate on synthetic data of the layer's
// exact shapes with the layer's real kernel entry points and commits the
// fastest; decide() consults a persistent TuneCache first so warm starts
// skip the measurement pass entirely.  The search only ever chooses *which*
// bit-exact kernel runs — every candidate computes the identical output
// bits, so a tuning decision can cost time but never correctness (the
// parity tests assert this across ISA variants).
//
// Search effort is budgeted by the paper's AIT model (core/ait.hpp): a
// memory-bound layer (low ait_direct) gains little from register-tile
// tweaks, so it gets a shallow search — fewer repetitions, no T = 16 and no
// grain candidates — keeping cold finalize time proportional to where the
// tuning can actually pay.
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tune/tune_cache.hpp"

namespace bitflow::tune {

/// Everything the tuner needs to know about one layer.  For conv layers the
/// extents are the *padded* input the kernel actually reads (the zero-cost
/// padding buffer); for fc layers c = input neurons, k = output neurons and
/// the spatial/filter fields stay 1.
struct LayerWorkload {
  std::uint8_t kind = 0;  ///< 0 = conv, 1 = fc
  simd::IsaLevel isa = simd::IsaLevel::kU64;
  bool vpopcnt = false;  ///< AVX-512 popcount flavour actually dispatched
  int threads = 1;       ///< pool width the plan will run under
  std::int64_t in_h = 1, in_w = 1, c = 0, k = 0, kh = 1, kw = 1, stride = 1;
  /// True for hidden layers (fused binarize kernel); false for the network's
  /// last layer (raw-dot kernel).  The tuner measures the variant that will
  /// actually run.
  bool fused_binarize = true;
};

/// The cache key identifying `wl` (kind, ISA variant, threads, full shape).
[[nodiscard]] Key key_for(const LayerWorkload& wl);

/// The static heuristic finalize() commits with tuning off: register-tiled
/// at weight_tile_width(isa), or at the narrowest supported width when K is
/// below it (a layer with K below every width runs all its rows through the
/// tiled kernels' remainder loop).  Also the fallback when a search faults.
[[nodiscard]] Decision default_decision(const LayerWorkload& wl);

/// Forwarding overload for perfbench/vgg_workload.cpp, its only caller:
/// `tile_weights` must be true (there is no filter-major plan any more).
[[nodiscard]] Decision default_decision(const LayerWorkload& wl, bool tile_weights);

/// True when `d` is a plan search() can emit for `wl`: register-tiled, the
/// tile width has a kernel instantiation for wl.isa and K covers it (or it
/// is the narrowest width), grain >= 1.  Cached decisions must pass this
/// before being committed — a stale entry (say, a filter-major plan cached
/// before that candidate was retired) falls back to re-search, never to a
/// wrong plan.
[[nodiscard]] bool decision_valid(const Decision& d, const LayerWorkload& wl);

/// Measures every valid candidate for `wl` on `pool` and returns the
/// fastest (source = kSearch).  Never throws: any fault mid-search (see the
/// tune.search failpoint) returns default_decision(wl) with source =
/// kDefault instead.
[[nodiscard]] Decision search(const LayerWorkload& wl, runtime::ThreadPool& pool);

/// The finalize() entry point: cache lookup -> validation -> hit, else
/// search + cache insert.  `searched` (optional) reports whether a live
/// search ran — the caller persists the cache only if one did.  Telemetry:
/// tune.cache_hit / tune.cache_miss count the outcomes.
[[nodiscard]] Decision decide(const LayerWorkload& wl, TuneCache& cache,
                              runtime::ThreadPool& pool, bool* searched = nullptr);

}  // namespace bitflow::tune
