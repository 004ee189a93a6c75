#include "tune/tuner.hpp"

#include <random>
#include <vector>

#include "bitpack/packer.hpp"
#include "core/ait.hpp"
#include "core/check.hpp"
#include "core/failpoint.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/conv_spec.hpp"
#include "kernels/pressedconv.hpp"
#include "runtime/timer.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::tune {

namespace {

/// Below this direct-conv arithmetic intensity the layer is memory-bound and
/// register-tile choice barely moves the needle: the search drops T = 16 and
/// grain candidates and measures with a smaller repetition budget.
constexpr double kShallowAit = 24.0;

/// A non-default candidate must beat the static heuristic's plan by more
/// than this fraction to win the search.  The quick per-candidate budget has
/// a few percent of timing noise (shared hosts drift further); without
/// hysteresis a phantom win could flip the plan run-to-run (and persist the
/// flip in the cache) for no real gain.  The margin is applied on a
/// confirmation re-measurement of the two finalists at a 3x budget.
constexpr double kSwitchMargin = 0.08;

struct Counters {
  telemetry::Counter& hit = telemetry::registry().counter("tune.cache_hit");
  telemetry::Counter& miss = telemetry::registry().counter("tune.cache_miss");
  telemetry::Counter& searches = telemetry::registry().counter("tune.searches");
  telemetry::Counter& candidates = telemetry::registry().counter("tune.candidates");
  telemetry::Counter& fallback = telemetry::registry().counter("tune.search_fallback");
  telemetry::Histogram& search_ms = telemetry::registry().histogram("tune.search_ms");
};

Counters& counters() {
  static Counters c;
  return c;
}

/// One point of the search space.  par_grain only varies for conv layers.
struct Candidate {
  std::int64_t tile = 0;
  std::int64_t par_grain = 1;
};

bool same_plan(const Decision& a, const Candidate& b) {
  return a.tile == b.tile && a.par_grain == b.par_grain;
}

/// Whether tile width `t` can run a layer of `k` outputs: it has at least
/// one full tile, or it is the narrowest width (then every row takes the
/// kernels' remainder loop).
bool tile_fits(std::int64_t t, std::int64_t k, simd::IsaLevel isa) {
  return k >= t || t == kernels::supported_tile_widths(isa).widths[0];
}

void fill_random(std::uint64_t* words, std::int64_t n, std::mt19937_64& rng) {
  for (std::int64_t i = 0; i < n; ++i) words[i] = rng();
}

/// Zeroes the tail bits of every packed group so the synthetic operands obey
/// the library-wide invariant (Eq. 1 needs zero tails; the kernels assume
/// it, and ASan-clean candidates must not differ from production data).
void mask_tails(std::uint64_t* words, std::int64_t groups, std::int64_t words_per_group,
                std::int64_t valid_bits) {
  const std::int64_t rem = valid_bits % 64;
  if (rem == 0) return;
  const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
  for (std::int64_t g = 0; g < groups; ++g) {
    words[g * words_per_group + words_per_group - 1] &= mask;
  }
}

double ait_of(const LayerWorkload& wl) {
  return core::analyze_binary_conv({wl.in_h, wl.in_w, wl.c, wl.k, wl.kh, wl.kw}).ait_direct;
}

std::vector<Candidate> enumerate(const LayerWorkload& wl, bool shallow) {
  std::vector<std::int64_t> grains{1};
  if (!shallow && wl.kind == 0 && wl.threads > 1) {
    // Row-granular split of the fused n*H*W range: each worker owns whole
    // output rows, trading balance for streak locality.  Pointless on one
    // thread — the single block covers the range either way.
    const kernels::ConvSpec spec{wl.kh, wl.kw, wl.stride};
    const std::int64_t out_w = spec.out_w(wl.in_w);
    if (out_w > 1) grains.push_back(out_w);
  }
  std::vector<Candidate> out;
  const kernels::TileWidthSet widths = kernels::supported_tile_widths(wl.isa);
  for (std::int64_t i = 0; i < widths.count; ++i) {
    const std::int64_t t = widths.widths[static_cast<std::size_t>(i)];
    if (!tile_fits(t, wl.k, wl.isa)) continue;
    if (shallow && t == 16) continue;  // widest tile only pays when compute-bound
    for (const std::int64_t g : grains) out.push_back({t, g});
  }
  return out;
}

/// Measures one conv candidate on synthetic operands of the layer's exact
/// padded shapes, running the variant (dot vs fused binarize) the network
/// will actually dispatch.  Returns best-of-N seconds.
double measure_conv(const LayerWorkload& wl, const Candidate& cand, const PackedTensor& in,
                    const TiledFilterBank& bank, runtime::ThreadPool& pool, int min_iters,
                    double min_total) {
  kernels::ConvSpec spec{wl.kh, wl.kw, wl.stride};
  spec.par_grain = cand.par_grain;
  const std::int64_t out_h = spec.out_h(wl.in_h);
  const std::int64_t out_w = spec.out_w(wl.in_w);
  const PackedTensor* in_ptrs[1] = {&in};
  if (wl.fused_binarize) {
    PackedTensor out(out_h, out_w, wl.k);
    PackedTensor* out_ptrs[1] = {&out};
    const auto fn = kernels::conv_binarize_tiled_batch_kernel(wl.isa, wl.vpopcnt, cand.tile);
    return runtime::measure_best_seconds(
        [&] { fn(in_ptrs, 1, bank, spec, nullptr, pool, out_ptrs, 0); }, min_iters, min_total);
  }
  Tensor out = Tensor::hwc(out_h, out_w, wl.k);
  Tensor* out_ptrs[1] = {&out};
  const auto fn = kernels::conv_dot_tiled_batch_kernel(wl.isa, wl.vpopcnt, cand.tile);
  return runtime::measure_best_seconds([&] { fn(in_ptrs, 1, bank, spec, pool, out_ptrs); },
                                       min_iters, min_total);
}

double measure_fc(const LayerWorkload& wl, const Candidate& cand, const PackedMatrix& a,
                  const TiledBitMatrix& w, runtime::ThreadPool& pool, int min_iters,
                  double min_total) {
  if (wl.fused_binarize) {
    PackedMatrix out(1, wl.k);
    const auto fn = kernels::bgemm_binarize_rows_tiled_kernel(wl.isa, wl.vpopcnt, cand.tile);
    return runtime::measure_best_seconds([&] { fn(a, 1, w, nullptr, pool, out); }, min_iters,
                                         min_total);
  }
  std::vector<float> y(static_cast<std::size_t>(wl.k));
  const auto fn = kernels::bgemm_rows_tiled_kernel(wl.isa, wl.vpopcnt, cand.tile);
  return runtime::measure_best_seconds([&] { fn(a, 1, w, pool, y.data()); }, min_iters,
                                       min_total);
}

/// The search's winner and its best-of-N seconds.
struct Pick {
  Candidate cand;
  double seconds = -1.0;
};

/// Measures every candidate once with `measure(cand, iters, total)`, then
/// confirms: leaving the static heuristic's plan `def` takes a win over it
/// on a 3x repetition budget, beyond the noise margin.  A phantom
/// quick-pass win must not flip the plan (and persist the flip).
template <typename Measure>
Pick pick(const std::vector<Candidate>& cands, const Decision& def, int min_iters,
          double min_total, const Measure& measure) {
  Pick best;
  double def_s = -1.0;
  for (const Candidate& cand : cands) {
    BF_FAILPOINT("tune.search");
    const double s = measure(cand, min_iters, min_total);
    if (same_plan(def, cand)) def_s = s;
    if (best.seconds < 0.0 || s < best.seconds) best = {cand, s};
  }
  if (def_s >= 0.0 && !same_plan(def, best.cand)) {
    const Candidate def_cand{def.tile, def.par_grain};
    const double cb = measure(best.cand, 2 * min_iters, 3.0 * min_total);
    const double cd = measure(def_cand, 2 * min_iters, 3.0 * min_total);
    best = cb > cd * (1.0 - kSwitchMargin) ? Pick{def_cand, cd} : Pick{best.cand, cb};
  }
  return best;
}

}  // namespace

Key key_for(const LayerWorkload& wl) {
  Key key;
  key.kind = wl.kind;
  key.isa = static_cast<std::uint8_t>(wl.isa);
  key.vpopcnt = wl.vpopcnt ? 1 : 0;
  key.threads = wl.threads;
  key.in_h = wl.in_h;
  key.in_w = wl.in_w;
  key.c = wl.c;
  key.k = wl.k;
  key.kh = wl.kh;
  key.kw = wl.kw;
  key.stride = wl.stride;
  return key;
}

Decision default_decision(const LayerWorkload& wl) {
  Decision d;
  d.tiled = true;
  d.tile = kernels::weight_tile_width(wl.isa);
  if (!tile_fits(d.tile, wl.k, wl.isa)) d.tile = kernels::supported_tile_widths(wl.isa).widths[0];
  return d;
}

Decision default_decision(const LayerWorkload& wl, bool tile_weights) {
  BF_CHECK(tile_weights, "default_decision: the filter-major plan was retired");
  return default_decision(wl);
}

bool decision_valid(const Decision& d, const LayerWorkload& wl) {
  return d.tiled && d.par_grain >= 1 &&
         kernels::supported_tile_widths(wl.isa).contains(d.tile) &&
         tile_fits(d.tile, wl.k, wl.isa);
}

Decision search(const LayerWorkload& wl, runtime::ThreadPool& pool) {
  Counters& c = counters();
  c.searches.add();
  try {
    const runtime::Timer search_timer;
    const bool shallow = ait_of(wl) < kShallowAit;
    const int min_iters = shallow ? 3 : 5;
    const double min_total = shallow ? 0.004 : 0.012;
    const std::vector<Candidate> cands = enumerate(wl, shallow);
    c.candidates.add(static_cast<std::uint64_t>(cands.size()));

    Decision best;
    best.source = DecisionSource::kSearch;
    best.candidates = static_cast<std::int32_t>(cands.size());
    best.tiled = true;
    if (cands.size() == 1) {
      // One executable plan (e.g. K below every tile width on one thread):
      // nothing to measure.
      best.tile = cands[0].tile;
      best.par_grain = cands[0].par_grain;
      return best;
    }

    // Synthetic operands at the layer's exact shapes, deterministic so two
    // finalizes of the same network search identical data.
    std::mt19937_64 rng(0x42u);
    const Decision def = default_decision(wl);
    Pick won;
    if (wl.kind == 0) {
      PackedTensor in(wl.in_h, wl.in_w, wl.c);
      fill_random(in.words(), in.num_words(), rng);
      mask_tails(in.words(), wl.in_h * wl.in_w, in.words_per_pixel(), wl.c);
      PackedFilterBank bank(wl.k, wl.kh, wl.kw, wl.c);
      fill_random(bank.words(), wl.k * bank.words_per_filter(), rng);
      mask_tails(bank.words(), wl.k * wl.kh * wl.kw, bank.words_per_pixel(), wl.c);
      std::int64_t tiled_width = 0;  // the interleave is rebuilt per tile width
      TiledFilterBank tiled_bank;
      const auto measure = [&](const Candidate& cand, int iters, double total) {
        if (cand.tile != tiled_width) {
          tiled_bank = bitpack::tile_filters(bank, cand.tile);
          tiled_width = cand.tile;
        }
        return measure_conv(wl, cand, in, tiled_bank, pool, iters, total);
      };
      won = pick(cands, def, min_iters, min_total, measure);
    } else {
      PackedMatrix a(1, wl.c);
      fill_random(a.words(), a.num_words(), rng);
      mask_tails(a.words(), 1, a.words_per_row(), wl.c);
      PackedMatrix w(wl.k, wl.c);
      fill_random(w.words(), w.num_words(), rng);
      mask_tails(w.words(), wl.k, w.words_per_row(), wl.c);
      std::int64_t tiled_width = 0;
      TiledBitMatrix tiled_w;
      const auto measure = [&](const Candidate& cand, int iters, double total) {
        if (cand.tile != tiled_width) {
          tiled_w = bitpack::tile_fc_weights(w, cand.tile);
          tiled_width = cand.tile;
        }
        return measure_fc(wl, cand, a, tiled_w, pool, iters, total);
      };
      won = pick(cands, def, min_iters, min_total, measure);
    }
    best.tile = won.cand.tile;
    best.par_grain = won.cand.par_grain;
    best.best_ms = won.seconds * 1e3;
    c.search_ms.record(static_cast<std::int64_t>(search_timer.elapsed_ms()));
    return best;
  } catch (...) {
    // A fault mid-search (injected or real) must leave the layer on a valid
    // plan: the static default, exactly what an untuned finalize commits.
    c.fallback.add();
    return default_decision(wl);
  }
}

Decision decide(const LayerWorkload& wl, TuneCache& cache, runtime::ThreadPool& pool,
                bool* searched) {
  Counters& c = counters();
  if (searched != nullptr) *searched = false;
  const Key key = key_for(wl);
  if (const Decision* hit = cache.lookup(key)) {
    if (decision_valid(*hit, wl)) {
      c.hit.add();
      Decision d = *hit;
      d.source = DecisionSource::kCache;
      return d;
    }
  }
  c.miss.add();
  if (searched != nullptr) *searched = true;
  Decision d = search(wl, pool);
  // Fallback decisions are not persisted: the next finalize should re-try
  // the search rather than inherit a fault's shadow.
  if (d.source == DecisionSource::kSearch) cache.put(key, d);
  return d;
}

}  // namespace bitflow::tune
