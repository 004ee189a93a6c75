// VGG-16 workload (vgg16_b1): closed loop of infer_batch calls on a
// finalized network, checked bit-exact against a u64-capped reference build
// of the same weights.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "simd/cpu_features.hpp"
#include "tune/tuner.hpp"
#include "workloads.hpp"

namespace perfbench {


namespace {

/// A finalized network plus one context, and how long each step took.
struct Built {
  std::unique_ptr<graph::BinaryNetwork> net;
  std::unique_ptr<graph::InferenceContext> ctx;
  double finalize_s = 0.0;
  double context_s = 0.0;
};

/// Set-up as the benchmark defines it: from float weights in memory to a
/// network ready to infer (add layers + finalize, incl. any tuning, +
/// make_context).  Weight generation happens before and is not counted.
Built build(ModelDef def, const graph::NetworkConfig& cfg, std::int64_t batch,
            SpanRecorder& rec, std::uint64_t trace) {
  Built b;
  b.net = std::make_unique<graph::BinaryNetwork>(cfg);
  const std::int64_t t0 = now_ns();
  add_layers(def, *b.net);
  b.net->finalize(def.input);
  const std::int64_t t1 = now_ns();
  b.ctx = std::make_unique<graph::InferenceContext>(b.net->make_context(batch));
  const std::int64_t t2 = now_ns();
  const std::uint64_t root = rec.add("setup", "", 0, trace, t0, t2);
  rec.add("graph.BinaryNetwork::finalize", cfg.auto_tune ? "auto_tune" : "static", root, trace,
          t0, t1);
  rec.add("graph.BinaryNetwork::make_context", "", root, trace, t1, t2);
  b.finalize_s = static_cast<double>(t1 - t0) / 1e9;
  b.context_s = static_cast<double>(t2 - t1) / 1e9;
  return b;
}

tune::LayerWorkload workload_of(const graph::LayerInfo& info, int threads, bool last) {
  const simd::CpuFeatures& hw = simd::cpu_features();
  tune::LayerWorkload wl;
  wl.isa = info.isa;
  wl.vpopcnt = info.isa == simd::IsaLevel::kAvx512 && hw.avx512vpopcntdq;
  wl.threads = threads;
  wl.fused_binarize = !last;
  if (info.kind == graph::LayerKind::kConv) {
    wl.kind = 0;
    wl.in_h = info.in.h + 2 * info.pad;
    wl.in_w = info.in.w + 2 * info.pad;
    wl.c = info.in.c;
    wl.k = info.out.c;
    wl.kh = 3;
    wl.kw = 3;
    wl.stride = 1;
  } else {
    wl.kind = 1;
    wl.c = info.in.num_elements();
    wl.k = info.out.num_elements();
  }
  return wl;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace

int run_vgg(const Options& o) {
  // A tuning cache inherited from the environment would turn the traced
  // run's cold search into cache hits.
  unsetenv("BITFLOW_TUNE_CACHE");
  SpanRecorder rec;
  std::uint64_t trace_id = 0;

  graph::NetworkConfig cfg;
  cfg.num_threads = o.threads;

  // --- inputs and the u64 reference ----------------------------------------
  // Built first and released before the measured set-up, so neither its
  // network nor its float weights count towards peak_rss_mb.
  constexpr int kImages = 8;
  const std::vector<Tensor> images = make_inputs(graph::TensorDesc{224, 224, 3}, kImages, o.seed);
  const int n_batches = kImages / o.batch > 0 ? kImages / o.batch : 1;
  std::vector<std::vector<const Tensor*>> batches(static_cast<std::size_t>(n_batches));
  for (int b = 0; b < n_batches; ++b) {
    for (int i = 0; i < o.batch; ++i) {
      batches[static_cast<std::size_t>(b)].push_back(
          &images[static_cast<std::size_t>((b * o.batch + i) % kImages)]);
    }
  }
  std::vector<std::vector<float>> ref(static_cast<std::size_t>(n_batches));
  double ref_s = 0.0;
  {
    const std::int64_t t0 = now_ns();
    graph::NetworkConfig rc;
    rc.num_threads = 4;  // untimed; only its output bits matter
    rc.max_isa = simd::IsaLevel::kU64;
    Built r = build(make_vgg16(o.seed), rc, o.batch, rec, 0);
    for (int b = 0; b < n_batches; ++b) {
      const auto& in = batches[static_cast<std::size_t>(b)];
      const std::span<const float> out = r.net->infer_batch(in, *r.ctx);
      ref[static_cast<std::size_t>(b)].assign(out.begin(), out.end());
    }
    ref_s = static_cast<double>(now_ns() - t0) / 1e9;
  }

  // --- set-up, repeated; the last network is the one measured -------------
  std::vector<double> setup_s, finalize_s, weight_gen_s;
  Built net;
  for (int r = 0; r < o.setup_reps; ++r) {
    net = Built{};  // release the previous network before building the next
    const std::int64_t g0 = now_ns();
    ModelDef def = make_vgg16(o.seed);
    weight_gen_s.push_back(static_cast<double>(now_ns() - g0) / 1e9);
    net = build(std::move(def), cfg, o.batch, rec, ++trace_id);
    finalize_s.push_back(net.finalize_s);
    setup_s.push_back(net.finalize_s + net.context_s);
  }
  const std::vector<graph::LayerInfo> plan = net.net->layers();

  // peak_rss_mb covers the measured network at rest and in use: the float
  // weights finalize packed are gone by now.
  reset_peak_rss();
  const double rss_after_setup_mb = peak_rss_mb();

  // --- timed closed loop (untraced) ------------------------------------------
  for (int w = 0; w < 2; ++w) (void)net.net->infer_batch(batches[0], *net.ctx);
  const double phase_s = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<double> lat_ms;
  std::int64_t calls = 0, mismatched = 0;
  const std::int64_t loop0 = now_ns();
  std::int64_t loop_end = loop0;
  while (static_cast<double>(loop_end - loop0) / 1e9 < phase_s || calls < 5) {
    const auto& in = batches[static_cast<std::size_t>(calls % n_batches)];
    const std::int64_t t0 = now_ns();
    const std::span<const float> out = net.net->infer_batch(in, *net.ctx);
    loop_end = now_ns();
    lat_ms.push_back(static_cast<double>(loop_end - t0) / 1e6);
    const auto& expect = ref[static_cast<std::size_t>(calls % n_batches)];
    if (out.size() != expect.size() || !same_bits(out.data(), expect.data(), out.size())) {
      ++mismatched;
    }
    ++calls;
  }
  const double wall_s = static_cast<double>(loop_end - loop0) / 1e9;
  const Summary lat = summarize(lat_ms);
  const double peak_mb = peak_rss_mb();  // before the replay packs its own weights

  Json result;
  result.str("mode", "vgg")
      .integer("seed", static_cast<std::int64_t>(o.seed))
      .integer("batch", o.batch)
      .integer("threads", o.threads)
      .obj("host", host_json())
      .raw("plan", plan_json(plan))
      .raw("setup_s", json_numbers(setup_s))
      .raw("finalize_s", json_numbers(finalize_s))
      .raw("weight_gen_s", json_numbers(weight_gen_s))
      .str("reference", "max_isa=u64, same weights")
      .num("reference_s", ref_s)
      .integer("calls", calls)
      .integer("images", calls * o.batch)
      .integer("mismatched_calls", mismatched)
      .num("wall_s", wall_s)
      .num("images_per_s", static_cast<double>(calls * o.batch) / wall_s)
      .obj("latency_ms", summary_json(lat))
      .num("rss_after_setup_mb", rss_after_setup_mb)
      .num("peak_rss_mb", peak_mb);

  // --- traced run: layer-by-layer replay, interleaved with infer_batch -------
  if (o.trace) {
    Json tr;
    double pack_weights_s = 0.0;
    ReplayStats rs;
    {
      const ModelDef def = make_vgg16(o.seed);
      Replay rp(def, plan, o.batch, o.threads);
      pack_weights_s = rp.pack_weights_s();
      rs = replay_for(
          rp, batches, ref, o.seconds / 2.0,
          [&](std::size_t b) { return net.net->infer_batch(batches[b], *net.ctx); }, rec,
          trace_id);
    }

    // tune: the measured plan is static, so the tuner runs on its own: a
    // cold auto-tuned set-up on a fresh private cache, then a warm one that
    // reads the cache the cold one wrote.  The search is what the cold
    // finalize spent beyond the warm one.
    graph::NetworkConfig tc = cfg;
    tc.auto_tune = true;
    tc.tune_cache_path = o.out_dir + "/tune-cache-" + std::to_string(getpid()) + ".bin";
    std::remove(tc.tune_cache_path.c_str());
    std::vector<graph::LayerInfo> tuned;
    double cold_finalize_s = 0.0;
    {
      Built cold = build(make_vgg16(o.seed), tc, o.batch, rec, ++trace_id);
      cold_finalize_s = cold.finalize_s;
      tuned = cold.net->layers();
    }
    Built warm = build(make_vgg16(o.seed), tc, o.batch, rec, ++trace_id);
    const double warm_setup_s = warm.finalize_s + warm.context_s;
    const double search_s = cold_finalize_s - warm.finalize_s;
    std::int64_t searched = 0, off_default = 0, warm_cache_layers = 0;
    for (const graph::LayerInfo& l : warm.net->layers()) {
      if (l.tune_source == "cache") ++warm_cache_layers;
    }
    warm = Built{};
    std::remove(tc.tune_cache_path.c_str());
    for (std::size_t i = 0; i < tuned.size(); ++i) {
      if (tuned[i].kind == graph::LayerKind::kPool) continue;
      if (tuned[i].tune_source == "search") ++searched;
      const tune::Decision d =
          tune::default_decision(workload_of(tuned[i], o.threads, i + 1 == tuned.size()), true);
      const std::int64_t dtile = d.tiled ? d.tile : 0;
      const std::int64_t dgrain = tuned[i].kind == graph::LayerKind::kConv ? d.par_grain : 1;
      if (tuned[i].tile != dtile || tuned[i].par_grain != dgrain) ++off_default;
    }

    // runtime: the workload runs one thread, where parallel_for does not
    // fork; the smallest pool that does is measured instead.
    const double fj_us = forkjoin_us(std::max(2, o.threads), rec, ++trace_id);
    const std::string spans_path = o.out_dir + "/spans-vgg-b" + std::to_string(o.batch) + "-t" +
                                   std::to_string(o.threads) + "-seed" + std::to_string(o.seed) +
                                   ".json";
    const bool spans_ok = rec.write(spans_path);
    tr.obj("kernels", rs.kernels)
        .integer("replay_iterations", rs.iterations)
        .integer("replay_mismatched", rs.mismatched)
        .num("pack_input_ms", rs.pack_input_ms)
        .num("glue_ms", rs.infer_ms - rs.layers_ms)
        .num("finalize_s", median(finalize_s))
        .num("pack_weights_s", pack_weights_s)
        .num("forkjoin_us", fj_us)
        .num("search_s", search_s)
        .num("warm_setup_s", warm_setup_s)
        .integer("warm_cache_layers", warm_cache_layers)
        .integer("layers_searched", searched)
        .integer("layers_off_default", off_default)
        .raw("tuned_plan", plan_json(tuned))
        .num("infer_ms", rs.infer_ms)
        .num("traced_replay_ms", rs.traced_ms)
        .num("untraced_replay_ms", rs.untraced_ms)
        .num("overhead_pct", (rs.traced_ms - rs.untraced_ms) / rs.untraced_ms * 100.0)
        .str("spans_file", spans_ok ? spans_path : "")
        .integer("spans", static_cast<std::int64_t>(rec.size()));
    result.obj("trace", tr);
  }
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
