// Finalize-time auto-tuner (tune/tuner.hpp + graph integration): the search
// only ever picks *which* bit-exact kernel runs, so the pins here are
//   * parity: tuned and untuned networks agree bit-for-bit on every ISA
//     level the host supports;
//   * warm starts: a second finalize against the same cache file takes every
//     decision from disk (tune.cache_hit rises, zero new searches);
//   * staleness: a cached decision the live layer cannot execute is silently
//     re-searched, never committed;
//   * plumbing: $BITFLOW_TUNE_CACHE, LayerInfo provenance, profile_report
//     kernel strings, and a tuned engine behind ShardRouter hot reload.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "../bench/common.hpp"
#include "bitpack/packer.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "kernels/conv_spec.hpp"
#include "models/vgg.hpp"
#include "serve/shard_router.hpp"
#include "simd/parity.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/util.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"

namespace bitflow::tune {
namespace {

using graph::BinaryNetwork;
using graph::NetworkConfig;
using graph::TensorDesc;

std::string temp_cache_path(const std::string& tag) {
  return "bitflow_tune_test." + tag + "." + std::to_string(::getpid()) + ".bftc";
}

/// Removes the cache file (and a stray .tmp) even when an assertion bails out.
class CacheFileGuard {
 public:
  explicit CacheFileGuard(std::string path) : path_(std::move(path)) { wipe(); }
  ~CacheFileGuard() { wipe(); }
  [[nodiscard]] const std::string& path() const { return path_; }
  void wipe() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

 private:
  std::string path_;
};

bool file_exists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

/// conv(pad 1) -> pool(2x2) -> conv(pad 1) -> fc -> fc; same seeds every
/// call so two instantiations carry identical weights.
BinaryNetwork make_net(NetworkConfig cfg) {
  BinaryNetwork net(cfg);
  net.add_conv("c1", models::random_filters(64, 3, 3, 16, 1), 1, 1);
  net.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  net.add_conv("c2", models::random_filters(32, 3, 3, 64, 2), 1, 1);
  net.add_fc("f1", models::random_fc_weights(8 * 8 * 32, 40, 3), 8 * 8 * 32, 40);
  net.add_fc("f2", models::random_fc_weights(40, 10, 4), 40, 10);
  net.finalize(TensorDesc{16, 16, 16});
  return net;
}

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(16, 16, 16);
  fill_uniform(t, seed);
  return t;
}

std::vector<float> scores(BinaryNetwork& net, const Tensor& in) {
  const auto s = net.infer(in);
  return {s.begin(), s.end()};
}

std::uint64_t counter_value(const char* name) {
  return telemetry::registry().counter(name).value();
}

// --- unit: key / default decision / validation ------------------------------

LayerWorkload conv_workload(simd::IsaLevel isa, std::int64_t k = 64) {
  LayerWorkload wl;
  wl.kind = 0;
  wl.isa = isa;
  wl.in_h = 18;
  wl.in_w = 18;
  wl.c = 16;
  wl.k = k;
  wl.kh = 3;
  wl.kw = 3;
  wl.stride = 1;
  return wl;
}

TEST(TunerUnit, KeyForCapturesFullWorkloadIdentity) {
  const LayerWorkload wl = conv_workload(simd::IsaLevel::kAvx2);
  const Key key = key_for(wl);
  EXPECT_EQ(key.kind, 0);
  EXPECT_EQ(key.isa, static_cast<std::uint8_t>(simd::IsaLevel::kAvx2));
  EXPECT_EQ(key.threads, 1);
  EXPECT_EQ(key.in_h, 18);
  EXPECT_EQ(key.c, 16);
  EXPECT_EQ(key.k, 64);

  LayerWorkload other = wl;
  other.k = 32;
  EXPECT_FALSE(key_for(other) == key);
  EXPECT_TRUE(key_for(wl) == key);
}

TEST(TunerUnit, DefaultDecisionMirrorsStaticHeuristic) {
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    const std::int64_t t = kernels::weight_tile_width(isa);
    const Decision wide = default_decision(conv_workload(isa, /*k=*/64));
    EXPECT_TRUE(wide.tiled) << simd::isa_name(isa);
    EXPECT_EQ(wide.tile, t) << simd::isa_name(isa);
    EXPECT_EQ(wide.par_grain, 1);
    EXPECT_EQ(wide.source, DecisionSource::kDefault);

    // K below the default width, even below every width: the narrowest
    // tile (4), whose remainder loop runs the rows a full tile cannot.
    for (const std::int64_t k : {t - 1, std::int64_t{3}, std::int64_t{1}}) {
      const Decision narrow = default_decision(conv_workload(isa, k));
      EXPECT_TRUE(narrow.tiled) << simd::isa_name(isa) << " k=" << k;
      EXPECT_EQ(narrow.tile, 4) << simd::isa_name(isa) << " k=" << k;
      EXPECT_TRUE(decision_valid(narrow, conv_workload(isa, k))) << simd::isa_name(isa);
    }
    // The forwarding overload (kept for perfbench) agrees.
    EXPECT_EQ(default_decision(conv_workload(isa, 64), true).tile, t);
  }
}

TEST(TunerUnit, DecisionValidRejectsPlansTheLayerCannotRun) {
  const LayerWorkload wl = conv_workload(simd::IsaLevel::kU64, /*k=*/64);
  Decision d;
  d.tiled = true;
  d.tile = 16;  // no u64 T=16 kernel exists
  EXPECT_FALSE(decision_valid(d, wl));
  d.tile = 8;
  EXPECT_TRUE(decision_valid(d, wl));
  d.tile = 8;  // K = 6 cannot fill a tile of 8
  EXPECT_FALSE(decision_valid(d, conv_workload(simd::IsaLevel::kU64, 6)));
  d.tile = 4;  // ... but the narrowest width runs any K, even K = 2
  EXPECT_TRUE(decision_valid(d, conv_workload(simd::IsaLevel::kU64, 6)));
  EXPECT_TRUE(decision_valid(d, conv_workload(simd::IsaLevel::kU64, 2)));
  d.par_grain = 0;  // grains start at 1
  EXPECT_FALSE(decision_valid(d, wl));
  d.par_grain = 4;
  EXPECT_TRUE(decision_valid(d, wl));
  // tiled = false is invalid: there is no filter-major plan to commit.
  d.tiled = false;
  d.tile = 0;
  d.par_grain = 1;
  EXPECT_FALSE(decision_valid(d, wl));
}

TEST(TunerUnit, SearchNeverReturnsAnUntiledPlan) {
  // The tuner-sweep shapes (bench/common.hpp) plus K = 2, below every tile
  // width, on every host ISA level: the searched plan is always tiled.
  std::vector<bench::TuneSweepShape> shapes = bench::tune_sweep_shapes();
  shapes.push_back({"3x3_c64_k2_hw16", 18, 64, 2, 3});
  runtime::ThreadPool pool(1);
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    for (const bench::TuneSweepShape& s : shapes) {
      LayerWorkload wl = conv_workload(isa, s.k);
      wl.in_h = wl.in_w = s.in;
      wl.c = s.c;
      wl.kh = wl.kw = s.kernel;
      const Decision d = search(wl, pool);
      EXPECT_EQ(d.source, DecisionSource::kSearch) << s.label << " " << simd::isa_name(isa);
      EXPECT_TRUE(d.tiled) << s.label << " " << simd::isa_name(isa);
      EXPECT_TRUE(decision_valid(d, wl)) << s.label << " " << simd::isa_name(isa) << " tile "
                                         << d.tile;
    }
  }
}

// --- parity: tuned == untuned on every host ISA level -----------------------

TEST(TunerParity, TunedMatchesUntunedBitExactAcrossIsaLevels) {
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    SCOPED_TRACE(std::string("max_isa=") + std::string(simd::isa_name(isa)));
    const CacheFileGuard cache(temp_cache_path("parity"));
    NetworkConfig plain;
    plain.max_isa = isa;
    NetworkConfig tuned = plain;
    tuned.auto_tune = true;
    tuned.tune_cache_path = cache.path();

    BinaryNetwork a = make_net(plain);
    BinaryNetwork b = make_net(tuned);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Tensor in = make_input(seed);
      ASSERT_EQ(scores(a, in), scores(b, in)) << "seed " << seed;
    }
  }
}

TEST(TunerParity, WarmStartFromCacheIsAlsoBitExact) {
  const CacheFileGuard cache(temp_cache_path("warm_parity"));
  NetworkConfig tuned;
  tuned.auto_tune = true;
  tuned.tune_cache_path = cache.path();
  BinaryNetwork cold = make_net(tuned);   // populates the cache
  BinaryNetwork warm = make_net(tuned);   // decides from the cache
  BinaryNetwork plain = make_net({});
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Tensor in = make_input(seed);
    const std::vector<float> want = scores(plain, in);
    EXPECT_EQ(scores(cold, in), want) << "seed " << seed;
    EXPECT_EQ(scores(warm, in), want) << "seed " << seed;
  }
}

// --- cache behaviour through finalize ---------------------------------------

TEST(TunerCache, ColdFinalizeSearchesAndPersists) {
  const CacheFileGuard cache(temp_cache_path("cold"));
  const std::uint64_t searches0 = counter_value("tune.searches");
  const std::uint64_t miss0 = counter_value("tune.cache_miss");

  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  const BinaryNetwork net = make_net(cfg);

  // Four tunable layers (2 conv + 2 fc), each a distinct key: four misses,
  // four searches, and the winners land on disk.
  EXPECT_EQ(counter_value("tune.cache_miss") - miss0, 4u);
  EXPECT_EQ(counter_value("tune.searches") - searches0, 4u);
  EXPECT_TRUE(file_exists(cache.path()));
  TuneCache persisted;
  persisted.load(cache.path());
  EXPECT_EQ(persisted.size(), 4u);

  for (const auto& l : net.layers()) {
    if (l.kind == graph::LayerKind::kConv || l.kind == graph::LayerKind::kFc) {
      EXPECT_EQ(l.tune_source, "search") << l.name;
    } else {
      EXPECT_EQ(l.tune_source, "default") << l.name;
    }
  }
}

TEST(TunerCache, WarmFinalizeTakesEveryDecisionFromDiskWithoutSearching) {
  const CacheFileGuard cache(temp_cache_path("warm"));
  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  const BinaryNetwork cold = make_net(cfg);

  const std::uint64_t hit0 = counter_value("tune.cache_hit");
  const std::uint64_t searches0 = counter_value("tune.searches");
  const BinaryNetwork warm = make_net(cfg);
  EXPECT_EQ(counter_value("tune.cache_hit") - hit0, 4u);
  EXPECT_EQ(counter_value("tune.searches") - searches0, 0u);

  // The warm plan IS the cold plan, provenance aside.
  const auto& a = cold.layers();
  const auto& b = warm.layers();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].tile, a[i].tile) << a[i].name;
    EXPECT_EQ(b[i].par_grain, a[i].par_grain) << a[i].name;
    if (a[i].tune_source == "search") EXPECT_EQ(b[i].tune_source, "cache") << a[i].name;
  }
}

TEST(TunerCache, StaleEntryIsReSearchedNeverCommitted) {
  const CacheFileGuard cache(temp_cache_path("stale"));
  // Forge a cache whose entry for c1 under max_isa=u64 demands T=16 — a
  // kernel that does not exist at u64 — and whose entry for c2 is an
  // untiled (filter-major) plan, which a cache written before that
  // candidate was retired can hold.  decide() must reject both and search.
  LayerWorkload wl = conv_workload(simd::IsaLevel::kU64, /*k=*/64);
  wl.c = 16;
  Decision bogus;
  bogus.tiled = true;
  bogus.tile = 16;
  bogus.par_grain = 1;
  bogus.source = DecisionSource::kSearch;
  bogus.candidates = 1;
  LayerWorkload wl2 = conv_workload(simd::IsaLevel::kU64, /*k=*/32);
  wl2.in_h = wl2.in_w = 10;  // c2 reads the pooled 8x8 map plus its pad-1 margin
  wl2.c = 64;
  Decision untiled;
  untiled.source = DecisionSource::kSearch;
  untiled.candidates = 3;
  TuneCache forged;
  forged.put(key_for(wl), bogus);
  forged.put(key_for(wl2), untiled);
  ASSERT_TRUE(forged.save(cache.path()));

  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  cfg.max_isa = simd::IsaLevel::kU64;
  const BinaryNetwork net = make_net(cfg);
  const auto& c1 = net.layers()[0];
  EXPECT_EQ(c1.tune_source, "search");                  // not "cache"
  EXPECT_TRUE(c1.tile == 4 || c1.tile == 8) << c1.tile;
  const auto& c2 = net.layers()[2];
  EXPECT_EQ(c2.tune_source, "search");                  // not "cache"
  EXPECT_TRUE(c2.tile == 4 || c2.tile == 8) << c2.tile;
}

TEST(TunerCache, SchemaOneFileIsIgnoredAndLayerReSearched) {
  // Schema 1 predates folded-window banks: a narrow first layer's plan
  // measured then must be re-searched now, not pinned to the old verdict.
  EXPECT_EQ(kCacheSchemaVersion, 2u);
  LayerWorkload wl = conv_workload(simd::IsaLevel::kU64, /*k=*/16);
  wl.c = 3;
  Decision cached;
  cached.tiled = true;
  cached.tile = 8;  // not the u64 default (4), so a hit is visible in the plan
  cached.source = DecisionSource::kSearch;
  cached.candidates = 2;
  TuneCache forged;
  forged.put(key_for(wl), cached);
  const std::string current = forged.serialize();
  std::string schema1 = current;
  const std::uint32_t old_schema = 1;  // header: magic | format | schema | ...
  std::memcpy(&schema1[8], &old_schema, sizeof old_schema);

  auto finalize_with = [](const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      ADD_FAILURE() << "cannot write " << path;
      return graph::LayerInfo{};
    }
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    NetworkConfig cfg;
    cfg.auto_tune = true;
    cfg.tune_cache_path = path;
    cfg.max_isa = simd::IsaLevel::kU64;
    BinaryNetwork net(cfg);
    net.add_conv("c1", models::random_filters(16, 3, 3, 3, 1), 1, 1);
    net.add_fc("f1", models::random_fc_weights(16 * 16 * 16, 10, 2), 16 * 16 * 16, 10);
    net.finalize(TensorDesc{16, 16, 3});
    return net.layers()[0];
  };
  const CacheFileGuard cache(temp_cache_path("schema1"));
  // Control: the same entry under the current schema is a cache hit, so the
  // forged key matches the live layer.
  const graph::LayerInfo hit = finalize_with(cache.path(), current);
  EXPECT_EQ(hit.tune_source, "cache");
  EXPECT_EQ(hit.tile, 8);
  const graph::LayerInfo stale = finalize_with(cache.path(), schema1);
  EXPECT_EQ(stale.tune_source, "search");
}

TEST(TunerCache, EnvVarPathIsUsedWhenConfigLeavesItEmpty) {
  const CacheFileGuard cache(temp_cache_path("envvar"));
  ASSERT_EQ(::setenv("BITFLOW_TUNE_CACHE", cache.path().c_str(), 1), 0);
  EXPECT_EQ(default_cache_path(), cache.path());
  NetworkConfig cfg;
  cfg.auto_tune = true;  // tune_cache_path deliberately empty
  const BinaryNetwork net = make_net(cfg);
  EXPECT_TRUE(file_exists(cache.path()));
  ::unsetenv("BITFLOW_TUNE_CACHE");
  EXPECT_EQ(default_cache_path(), "");
  (void)net;
}

TEST(TunerCache, NoPathMeansNoPersistenceButTuningStillRuns) {
  ::unsetenv("BITFLOW_TUNE_CACHE");
  NetworkConfig cfg;
  cfg.auto_tune = true;
  const BinaryNetwork net = make_net(cfg);
  bool any_searched = false;
  for (const auto& l : net.layers()) any_searched |= l.tune_source == "search";
  EXPECT_TRUE(any_searched);
}

// --- introspection ----------------------------------------------------------

TEST(TunerIntrospection, LayerInfoAndProfileReportCarryTheCommittedPlan) {
  const CacheFileGuard cache(temp_cache_path("introspect"));
  NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = cache.path();
  cfg.profile = true;
  BinaryNetwork net = make_net(cfg);
  (void)net.infer(make_input(0));

  const std::string report = net.profile_report().to_table();
  for (const auto& l : net.layers()) {
    if (l.kind != graph::LayerKind::kConv && l.kind != graph::LayerKind::kFc) continue;
    EXPECT_TRUE(l.tune_source == "search" || l.tune_source == "cache") << l.name;
    // Every winner is tiled: the committed width is visible in the kernel
    // string.
    EXPECT_GT(l.tile, 0) << l.name;
    EXPECT_NE(report.find(",t" + std::to_string(l.tile)), std::string::npos)
        << l.name << " tile " << l.tile << " missing from:\n" << report;
    EXPECT_EQ(l.layout, kernels::WeightLayout::kInterleaved) << l.name;
    EXPECT_GE(l.par_grain, 1) << l.name;
  }
}

// --- serving: tuned engine behind ShardRouter hot reload --------------------

TEST(TunerServing, TunedEngineServesBitExactAfterHotReloadFromCache) {
  const CacheFileGuard cache(temp_cache_path("router"));

  io::Model model(TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  model.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  model.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 12);
  model.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));

  serve::RouterConfig rcfg;
  rcfg.shards = 2;
  rcfg.engine.workers = 1;
  rcfg.engine.max_batch = 4;
  rcfg.engine.queue_capacity = 64;
  rcfg.engine.adaptive_shedding = false;
  rcfg.engine.net.num_threads = 1;
  rcfg.engine.net.auto_tune = true;
  rcfg.engine.net.tune_cache_path = cache.path();

  auto r = serve::ShardRouter::create(model, rcfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  serve::ShardRouter router = std::move(r.value());
  EXPECT_TRUE(file_exists(cache.path()));  // cold create tuned and persisted

  // Untuned reference scores for the same model.
  BinaryNetwork ref = model.instantiate(NetworkConfig{});
  auto ref_scores = [&ref](std::uint64_t seed) {
    Tensor t = Tensor::hwc(8, 8, 8);
    fill_uniform(t, seed);
    const auto s = ref.infer(t);
    return std::vector<float>(s.begin(), s.end());
  };

  // Hot reload re-instantiates with the same tuned config: every decision
  // must now come from the cache (no new searches), and serving stays
  // bit-exact with the untuned reference.
  const std::uint64_t hit0 = counter_value("tune.cache_hit");
  const std::uint64_t searches0 = counter_value("tune.searches");
  ASSERT_TRUE(router.reload(model).is_ok());
  EXPECT_GT(counter_value("tune.cache_hit"), hit0);
  EXPECT_EQ(counter_value("tune.searches"), searches0);
  for (const auto& l : router.network()->layers()) {
    if (l.kind == graph::LayerKind::kConv || l.kind == graph::LayerKind::kFc) {
      EXPECT_EQ(l.tune_source, "cache") << l.name;
    }
  }

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Tensor in = Tensor::hwc(8, 8, 8);
    fill_uniform(in, seed);
    auto routed = router.infer(std::move(in));
    ASSERT_TRUE(routed.is_ok()) << routed.status().to_string();
    EXPECT_EQ(routed.value(), ref_scores(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bitflow::tune
