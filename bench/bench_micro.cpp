// google-benchmark microbenchmarks of the gemm-level primitives: per-ISA
// xor+popcount word runs (the Eq. 1 inner loop), the binarize+pack
// transforms, and the register-tiled vs filter-major PressedConv kernels —
// the raw numbers behind every figure.
//
// After the google-benchmark run, main() prints one machine-readable
// `BENCH {...}` JSON line per supported ISA level for the headline tiling
// workload (3x3, C = K = 256, 16x16 output) and for VGG conv1.1's narrow
// folded-window shape; CI's perf-smoke job and the committed
// BENCH_pressedconv.json baseline both come from these lines, as do the
// fused-binarize rows of the four paper-rule VGG-16 layers at their static
// plan.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "bitpack/packer.hpp"
#include "core/cancel.hpp"
#include "graph/network.hpp"
#include "simd/bitops.hpp"
#include "simd/cpu_features.hpp"
#include "simd/parity.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tensor/util.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace bitflow;

std::vector<std::uint64_t> random_words(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& w : v) w = rng();
  return v;
}

void BM_XorPopcount(benchmark::State& state) {
  const auto isa = static_cast<simd::IsaLevel>(state.range(0));
  const std::int64_t n = state.range(1);
  if (!simd::cpu_features().supports(isa)) {
    state.SkipWithError("ISA not available");
    return;
  }
  const auto a = random_words(n, 1);
  const auto b = random_words(n, 2);
  const auto fn = simd::xor_popcount_fn(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 16);
  state.SetLabel(std::string(simd::isa_name(isa)));
}

void BM_OrAccumulate(benchmark::State& state) {
  const auto isa = static_cast<simd::IsaLevel>(state.range(0));
  const std::int64_t n = state.range(1);
  if (!simd::cpu_features().supports(isa)) {
    state.SkipWithError("ISA not available");
    return;
  }
  auto dst = random_words(n, 3);
  const auto src = random_words(n, 4);
  const auto fn = simd::or_accumulate_fn(isa);
  for (auto _ : state) {
    fn(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 16);
  state.SetLabel(std::string(simd::isa_name(isa)));
}

void BM_PackActivationsScalar(benchmark::State& state) {
  Tensor t = Tensor::hwc(state.range(0), state.range(0), state.range(1));
  fill_uniform(t, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitpack::pack_activations_scalar(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * t.num_elements());
}

void BM_PackActivationsAvx2(benchmark::State& state) {
  if (!simd::cpu_features().avx2) {
    state.SkipWithError("AVX2 not available");
    return;
  }
  Tensor t = Tensor::hwc(state.range(0), state.range(0), state.range(1));
  fill_uniform(t, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitpack::pack_activations_avx2(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * t.num_elements());
}

// Register-tiled vs filter-major PressedConv, single image, single core:
// range(0) is the ISA level, range(1) selects the layout (0 = filter-major,
// 1 = interleaved).  Same bits either way — only the weight layout differs.
void BM_PressedConvDot(benchmark::State& state) {
  const auto isa = static_cast<simd::IsaLevel>(state.range(0));
  const bool tiled = state.range(1) != 0;
  if (!simd::cpu_features().supports(isa)) {
    state.SkipWithError("ISA not available");
    return;
  }
  constexpr std::int64_t kC = 256, kK = 256, kKernel = 3, kIn = 18;
  std::mt19937_64 rng(71);
  PackedTensor in(kIn, kIn, kC);
  for (std::int64_t i = 0; i < in.num_words(); ++i) in.words()[i] = rng();
  PackedFilterBank filters(kK, kKernel, kKernel, kC);
  for (std::int64_t i = 0; i < kK * filters.words_per_filter(); ++i) filters.words()[i] = rng();
  const TiledFilterBank bank = bitpack::tile_filters(filters, kernels::weight_tile_width(isa));
  const kernels::ConvSpec spec{kKernel, kKernel, 1};
  Tensor out = Tensor::hwc(kIn - kKernel + 1, kIn - kKernel + 1, kK);
  runtime::ThreadPool pool(1);
  const PackedTensor* ins[] = {&in};
  Tensor* outs[] = {&out};
  const bool vp = simd::cpu_features().avx512vpopcntdq;
  const auto untiled_fn = kernels::conv_dot_batch_kernel(isa, vp);
  const auto tiled_fn = kernels::conv_dot_tiled_batch_kernel(isa, vp, bank.tile());
  for (auto _ : state) {
    if (tiled) {
      tiled_fn(ins, 1, bank, spec, pool, outs);
    } else {
      untiled_fn(ins, 1, filters, spec, pool, outs);
    }
    benchmark::DoNotOptimize(out.data());
  }
  const std::int64_t ops = 2 * out.height() * out.width() * kK * kKernel * kKernel * kC;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * ops);
  state.SetLabel(std::string(simd::isa_name(isa)) + (tiled ? "/tiled" : "/filter-major"));
}

// Telemetry hot-path costs.  The disarmed TraceSpan row is the one CI
// gates on: tracing off must cost one relaxed atomic load per span.
void BM_TraceSpanDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::TraceSpan span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}

void BM_TraceSpanArmed(benchmark::State& state) {
  telemetry::trace_start("/tmp/bitflow_bench_micro_trace.json", 1 << 16);
  for (auto _ : state) {
    telemetry::TraceSpan span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  telemetry::trace_stop();
  std::remove("/tmp/bitflow_bench_micro_trace.json");
}

// Same discipline for the flight recorder's breadcrumbs: disarmed must be
// one relaxed atomic load (CI gates <= 5 ns), armed is one seqlock slot
// write in the calling thread's trace ring.
void BM_FlightEventDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::flight_event("bench", "disarmed overhead probe");
  }
}

void BM_CounterAdd(benchmark::State& state) {
  telemetry::Counter c;
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 6364136223846793005ull + 1442695040888963407ull;  // lcg mix
  }
  benchmark::DoNotOptimize(h.snapshot().count);
}

void IsaByLength(benchmark::internal::Benchmark* b) {
  for (int isa = 0; isa < 4; ++isa) {
    for (std::int64_t n : {8, 24, 72, 392, 4608}) {  // typical conv/fc run lengths
      b->Args({isa, n});
    }
  }
}

void IsaByLayout(benchmark::internal::Benchmark* b) {
  for (int isa = 0; isa < 4; ++isa) {
    b->Args({isa, 0});
    b->Args({isa, 1});
  }
}

BENCHMARK(BM_XorPopcount)->Apply(IsaByLength);
BENCHMARK(BM_OrAccumulate)->Apply(IsaByLength);
BENCHMARK(BM_PackActivationsScalar)->Args({56, 128})->Args({14, 512});
BENCHMARK(BM_PackActivationsAvx2)->Args({56, 128})->Args({14, 512});
BENCHMARK(BM_PressedConvDot)->Apply(IsaByLayout);
BENCHMARK(BM_TraceSpanDisarmed);
BENCHMARK(BM_TraceSpanArmed);
BENCHMARK(BM_FlightEventDisarmed);
BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_HistogramRecord);

// One `BENCH {"bench":<bench>,...}` line per supported ISA level for one
// 3x3 conv shape (padded input in x in x c, K filters): filter-major vs
// register-tiled, with the tiled timing under `<tiled_field>_ms` — the
// machine-readable feed for CI's perf-smoke assertion and for regenerating
// BENCH_pressedconv.json.
void emit_conv_bench_json(const char* bench, const char* tiled_field, std::int64_t in,
                          std::int64_t c, std::int64_t k) {
  constexpr std::int64_t kKernel = 3;
  for (simd::IsaLevel isa : simd::supported_isa_levels()) {
    const bench::TiledConvResult r = bench::measure_tiled_conv(isa, in, in, c, k, kKernel);
    std::printf(
        "BENCH {\"bench\":\"%s\",\"isa\":\"%s\",\"tile\":%lld,"
        "\"kh\":%lld,\"kw\":%lld,\"c\":%lld,\"k\":%lld,\"out_h\":%lld,\"out_w\":%lld,"
        "\"untiled_ms\":%.4f,\"%s_ms\":%.4f,\"untiled_gops\":%.2f,\"%s_gops\":%.2f,"
        "\"speedup\":%.3f}\n",
        bench, std::string(simd::isa_name(isa)).c_str(), static_cast<long long>(r.tile),
        static_cast<long long>(kKernel), static_cast<long long>(kKernel),
        static_cast<long long>(c), static_cast<long long>(k),
        static_cast<long long>(in - kKernel + 1), static_cast<long long>(in - kKernel + 1),
        r.untiled_seconds * 1e3, tiled_field, r.tiled_seconds * 1e3, r.untiled_gops(),
        tiled_field, r.tiled_gops(), r.speedup());
  }
  std::fflush(stdout);
}

// One `BENCH {"bench":"pressedconv_binarize",...}` line per paper-rule VGG-16
// layer at its static plan (Sec. III-B rules: C = 64 runs u64, C = 128 runs
// SSE, both at the default tile width 4): the fused binarize epilogue that
// BENCH_pressedconv.json's `binarize_epilogue` key records.  Skipped on
// hosts without SSE4.2.
void emit_binarize_epilogue_json() {
  struct Layer {
    const char* name;
    simd::IsaLevel isa;
    std::int64_t out, c, k;
  };
  const Layer layers[] = {{"conv1_2", simd::IsaLevel::kU64, 224, 64, 64},
                          {"conv2_1", simd::IsaLevel::kU64, 112, 64, 128},
                          {"conv2_2", simd::IsaLevel::kSse, 112, 128, 128},
                          {"conv3_1", simd::IsaLevel::kSse, 56, 128, 256}};
  constexpr std::int64_t kKernel = 3;
  for (const Layer& l : layers) {
    if (!simd::cpu_features().supports(l.isa)) continue;
    const std::int64_t tile = kernels::weight_tile_width(l.isa);
    const bench::BinarizeConvResult r =
        bench::measure_binarize_conv(l.isa, tile, l.out + kKernel - 1, l.c, l.k, kKernel);
    std::printf(
        "BENCH {\"bench\":\"pressedconv_binarize\",\"layer\":\"%s\",\"isa\":\"%s\","
        "\"tile\":%lld,\"kh\":%lld,\"kw\":%lld,\"c\":%lld,\"k\":%lld,\"out_h\":%lld,"
        "\"out_w\":%lld,\"binarize_ms\":%.4f,\"gops\":%.2f}\n",
        l.name, std::string(simd::isa_name(l.isa)).c_str(), static_cast<long long>(tile),
        static_cast<long long>(kKernel), static_cast<long long>(kKernel),
        static_cast<long long>(l.c), static_cast<long long>(l.k), static_cast<long long>(l.out),
        static_cast<long long>(l.out), r.seconds * 1e3, r.gops());
  }
  std::fflush(stdout);
}

/// Median ns/iteration of `body` over `reps` timed repetitions.  A plain
/// steady-clock loop (not google-benchmark) so the JSON line below is
/// reproducible with a fixed iteration count and a proper median.
template <typename F>
double median_ns_per_iter(F&& body, int reps = 9, int iters = 2'000'000) {
  std::vector<double> per_rep(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const auto t1 = std::chrono::steady_clock::now();
    per_rep[static_cast<std::size_t>(r)] =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        static_cast<double>(iters);
  }
  std::sort(per_rep.begin(), per_rep.end());
  return per_rep[static_cast<std::size_t>(reps) / 2];
}

// One `BENCH {"bench":"telemetry_span",...}` line: the telemetry hot-path
// costs CI's telemetry job gates on, and the source of BENCH_telemetry.json.
// The disarmed cost subtracts an empty-loop baseline so the reported number
// is the span's own work (one relaxed atomic load + a predicted branch),
// not loop bookkeeping.
void emit_telemetry_bench_json() {
  const double baseline = median_ns_per_iter([] {
    int sink = 0;
    benchmark::DoNotOptimize(sink);
  });
  const double disarmed_raw = median_ns_per_iter([] {
    telemetry::TraceSpan span("bench.overhead", "bench");
    benchmark::DoNotOptimize(&span);
  });
  const double disarmed_ns = std::max(0.0, disarmed_raw - baseline);

  telemetry::trace_start("/tmp/bitflow_bench_micro_trace.json", 1 << 16);
  const double armed_raw = median_ns_per_iter(
      [] {
        telemetry::TraceSpan span("bench.overhead", "bench");
        benchmark::DoNotOptimize(&span);
      },
      9, 200'000);
  telemetry::trace_stop();
  std::remove("/tmp/bitflow_bench_micro_trace.json");
  const double armed_ns = std::max(0.0, armed_raw - baseline);

  // Flight-recorder breadcrumbs, the always-on black box: disarmed must stay
  // within the 5 ns budget CI gates (one relaxed load + predicted branch);
  // armed is reported for context (one seqlock slot write in the calling
  // thread's overwrite-oldest trace ring).
  const double flight_disarmed_ns =
      std::max(0.0, median_ns_per_iter([] {
                 telemetry::flight_event("bench", "overhead probe");
               }) - baseline);
  telemetry::FlightRecorderConfig fcfg;
  fcfg.dir = "/tmp/bitflow_bench_micro_flight";
  fcfg.max_bundles = 0;  // measure logging, never write a bundle
  telemetry::flight_start(fcfg);
  const double flight_armed_ns =
      std::max(0.0, median_ns_per_iter(
                        [] { telemetry::flight_event("bench", "overhead probe"); },
                        9, 200'000) -
                        baseline);
  telemetry::flight_stop();

  static telemetry::Counter counter;
  const double counter_ns =
      std::max(0.0, median_ns_per_iter([] { counter.add(); }) - baseline);
  static telemetry::Histogram hist;
  static std::uint64_t lcg = 1;
  const double hist_ns = std::max(0.0, median_ns_per_iter([] {
                                    hist.record(lcg);
                                    lcg = lcg * 6364136223846793005ull +
                                          1442695040888963407ull;
                                  }) -
                                      baseline);

  std::printf(
      "BENCH {\"bench\":\"telemetry_span\",\"disarmed_ns\":%.3f,\"armed_ns\":%.3f,"
      "\"flight_disarmed_ns\":%.3f,\"flight_armed_ns\":%.3f,"
      "\"counter_add_ns\":%.3f,\"hist_record_ns\":%.3f,\"baseline_ns\":%.3f}\n",
      disarmed_ns, armed_ns, flight_disarmed_ns, flight_armed_ns, counter_ns, hist_ns,
      baseline);
  std::fflush(stdout);
}

// One `BENCH {"bench":"cancel_checkpoint",...}` line: the cooperative-
// cancellation costs CI's robustness job gates on.  An INERT token (the
// default, what every non-deadline request carries) must make a checkpoint
// one null check; an ARMED token (deadline/drain-cancellable request) pays
// one relaxed atomic load.  Same baseline-subtraction convention as the
// telemetry_span block above.
void emit_cancel_bench_json() {
  const double baseline = median_ns_per_iter([] {
    int sink = 0;
    benchmark::DoNotOptimize(sink);
  });

  static const core::CancelToken inert;
  const double disarmed_ns =
      std::max(0.0, median_ns_per_iter([] {
                 inert.throw_if_cancelled();
                 benchmark::DoNotOptimize(&inert);
               }) - baseline);

  static const core::CancelToken armed = core::CancelToken::cancellable();
  const double armed_ns =
      std::max(0.0, median_ns_per_iter([] {
                 armed.throw_if_cancelled();
                 benchmark::DoNotOptimize(&armed);
               }) - baseline);

  std::printf(
      "BENCH {\"bench\":\"cancel_checkpoint\",\"disarmed_ns\":%.3f,"
      "\"armed_ns\":%.3f,\"baseline_ns\":%.3f}\n",
      disarmed_ns, armed_ns, baseline);
  std::fflush(stdout);
}

// --tune mode, part 1: the auto-tuner shape sweep on the widest host ISA
// variant.  One `BENCH {"bench":"tune_sweep",...}` line per shape comparing
// the static heuristic's plan against the plan the finalize-time search
// commits, both re-measured with the bench-grade budget.  CI's perf-smoke
// --tune step asserts tuned never loses; the committed
// BENCH_pressedconv.json sweep section records the real margins.
void emit_tune_sweep_json() {
  const auto variants = simd::supported_isa_variants();
  const simd::IsaVariant widest = variants.back();
  for (const bench::TuneSweepShape& s : bench::tune_sweep_shapes()) {
    const bench::TuneSweepResult r = bench::measure_tuned_sweep(s, widest.isa,
                                                                widest.use_vpopcntdq);
    std::printf(
        "BENCH {\"bench\":\"tune_sweep\",\"shape\":\"%s\",\"isa\":\"%s\","
        "\"c\":%lld,\"k\":%lld,\"kernel\":%lld,"
        "\"fixed_tile\":%lld,\"tuned_tile\":%lld,\"tuned_grain\":%lld,"
        "\"candidates\":%d,\"fixed_ms\":%.4f,\"tuned_ms\":%.4f,\"speedup\":%.3f}\n",
        s.label.c_str(), std::string(widest.name).c_str(), static_cast<long long>(s.c),
        static_cast<long long>(s.k), static_cast<long long>(s.kernel),
        static_cast<long long>(r.fixed.tile), static_cast<long long>(r.tuned.tile),
        static_cast<long long>(r.tuned.par_grain), r.tuned.candidates, r.fixed_ms, r.tuned_ms,
        r.speedup());
  }
  std::fflush(stdout);
}

// --tune mode, part 2: cold-vs-warm finalize timing through the persistent
// tuning cache.  One `BENCH {"bench":"tune_finalize",...}` line: the cold
// finalize searches every tunable layer and writes the cache, the warm one
// takes every decision from disk.  CI gates warm >= 10x faster than cold
// and cache_hits > 0 — the "warm starts skip search" contract as a number.
void emit_tune_finalize_json() {
  const std::string path = "bitflow_bench_tune_cache.bftc";
  std::remove(path.c_str());
  graph::NetworkConfig cfg;
  cfg.auto_tune = true;
  cfg.tune_cache_path = path;
  // Weight generation and add-time packing stay OUTSIDE the timed section:
  // the contract under test is finalize (plan search vs cache), not rng.
  // Pools keep the flatten small so weight re-tiling (identical cold and
  // warm) does not dilute the search-vs-lookup ratio being measured.
  const auto finalize_seconds = [&cfg] {
    graph::BinaryNetwork net(cfg);
    net.add_conv("c1", models::random_filters(64, 3, 3, 16, 1), 1, 1);
    net.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
    net.add_conv("c2", models::random_filters(128, 3, 3, 64, 2), 1, 1);
    net.add_maxpool("p2", kernels::PoolSpec{2, 2, 2});
    net.add_conv("c3", models::random_filters(256, 3, 3, 128, 3), 1, 1);
    net.add_maxpool("p3", kernels::PoolSpec{2, 2, 2});
    net.add_fc("f1", models::random_fc_weights(2 * 2 * 256, 10, 4), 2 * 2 * 256, 10);
    const auto t0 = std::chrono::steady_clock::now();
    net.finalize(graph::TensorDesc{16, 16, 16});
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  auto& hits = telemetry::registry().counter("tune.cache_hit");
  auto& searches = telemetry::registry().counter("tune.searches");
  const std::uint64_t hits0 = hits.value();
  const double cold_s = finalize_seconds();
  const std::uint64_t cold_searches = searches.value();
  const double warm_s = finalize_seconds();
  const std::uint64_t cache_hits = hits.value() - hits0;
  const std::uint64_t warm_searches = searches.value() - cold_searches;
  std::remove(path.c_str());
  std::printf(
      "BENCH {\"bench\":\"tune_finalize\",\"cold_ms\":%.2f,\"warm_ms\":%.2f,"
      "\"speedup\":%.1f,\"cache_hits\":%llu,\"warm_searches\":%llu}\n",
      cold_s * 1e3, warm_s * 1e3, cold_s / warm_s,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(warm_searches));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // --tune runs the auto-tuner sweep + finalize timing instead of the
  // google-benchmark suite (strip the flag before benchmark sees it).
  bool tune_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--tune") {
      tune_mode = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (tune_mode) {
    emit_tune_sweep_json();
    emit_tune_finalize_json();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Headline tiling workload: 3x3, C = K = 256, 16x16 output.
  emit_conv_bench_json("pressedconv_tiled", "tiled", 18, 256, 256);
  // VGG conv1.1's narrow shape (C = 3, K = 64, 224x224 output): its 27
  // window bits fold into one word, so the tiled kernel runs the folded
  // loop while the filter-major one walks nine mostly-empty words per filter.
  emit_conv_bench_json("pressedconv_folded", "folded", 226, 3, 64);
  emit_binarize_epilogue_json();
  emit_telemetry_bench_json();
  emit_cancel_bench_json();
  return 0;
}
