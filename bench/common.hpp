// Shared harness for the per-figure benchmark binaries.
//
// Every Table IV operator is materialized as three engines fed the same
// float activation tensor:
//   * float    — the conventional image-to-column + sgemm baseline
//                ("counterpart float-value operator", the figures' 1x);
//   * unopt    — bit-packed but image-to-column and scalar 32-bit
//                ("unoptimized BNN implementation");
//   * bitflow  — PressedConv / bgemm / OR-pool with the vector execution
//                scheduler's kernel choice.
//
// Multi-thread numbers: this container exposes a single hardware core, so
// real std::thread timing is meaningless beyond p=1.  Where a figure needs
// p > 1, the harness reports the deterministic scaling-simulator estimate
// (runtime/scaling_sim.hpp): the engine's actual static partition over the
// operator's real parallel grain, plus a fork/join overhead term.  Every
// table that does this is labelled "(sim)".  See DESIGN.md substitutions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <random>

#include "baseline/float_ops.hpp"
#include "baseline/unopt_binary.hpp"
#include "bitpack/packer.hpp"
#include "kernels/pressedconv.hpp"
#include "models/vgg.hpp"
#include "ops/operators.hpp"
#include "runtime/scaling_sim.hpp"
#include "runtime/timer.hpp"
#include "tensor/util.hpp"
#include "tune/tuner.hpp"

namespace bitflow::bench {

/// Hardware profile a figure is parameterized on (the paper's two CPUs).
struct Profile {
  std::string name;
  simd::IsaLevel max_isa;  ///< i7-7700HQ caps at AVX2; Phi 7210 has AVX-512
  std::vector<int> thread_counts;
};

inline Profile i7_profile() { return {"Intel i7-7700HQ (profile)", simd::IsaLevel::kAvx2, {1, 4}}; }
inline Profile phi_profile() {
  return {"Intel Xeon Phi 7210 (profile)", simd::IsaLevel::kAvx512, {1, 4, 16, 64}};
}

/// ISA the scheduler would pick for `channels`, capped at the profile's
/// widest (modelling the paper's per-machine kernel choice).
inline simd::IsaLevel profile_isa(const Profile& p, std::int64_t channels) {
  simd::IsaLevel isa = graph::select_isa(channels, simd::cpu_features());
  if (static_cast<int>(isa) > static_cast<int>(p.max_isa)) isa = p.max_isa;
  return isa;
}

/// One Table IV operator wired up for benchmarking.
class OperatorHarness {
 public:
  OperatorHarness(const models::OperatorBenchmark& spec, const Profile& profile,
                  std::uint64_t seed = 1234)
      : spec_(spec), pool_(1) {
    input_ = Tensor::hwc(spec.h, spec.w, spec.c);
    fill_uniform(input_, seed);
    switch (spec.kind) {
      case graph::LayerKind::kConv: {
        const FilterBank filters =
            models::random_filters(spec.k, spec.kernel, spec.kernel, spec.c, seed + 1);
        ops::BinaryOpOptions opt;
        opt.force_isa = profile_isa(profile, spec.c);
        bconv_ = std::make_unique<ops::BinaryConvOp>(filters, spec.stride, spec.pad, opt);
        fconv_ = std::make_unique<ops::FloatConvOp>(filters, spec.stride, spec.pad);
        uconv_ = std::make_unique<baseline::UnoptBinaryConv>(
            filters, kernels::ConvSpec{spec.kernel, spec.kernel, spec.stride});
        const std::int64_t oh = spec.h + 2 * spec.pad - spec.kernel + 1;
        out_float_ = Tensor::hwc(oh, oh, spec.k);
        out_unopt_ = Tensor::hwc(oh, oh, spec.k);
        out_bitflow_ = Tensor::hwc(oh, oh, spec.k);
        padded_ = baseline::pad_float(input_, spec.pad);
        parallel_grain_ = oh * oh;  // fused H*W (paper Alg. 1)
        break;
      }
      case graph::LayerKind::kFc: {
        fc_weights_ = models::random_fc_weights(spec.c, spec.k, seed + 2);
        ops::BinaryOpOptions opt;
        opt.force_isa = profile_isa(profile, spec.c);
        bfc_ = std::make_unique<ops::BinaryFcOp>(fc_weights_.data(), spec.c, spec.k, opt);
        ufc_ = std::make_unique<baseline::UnoptBinaryFc>(fc_weights_.data(), spec.c, spec.k);
        // input_ is 1 x 1 x N: its elements are the fc activation vector.
        fc_in_.assign(input_.data(), input_.data() + spec.c);
        fc_out_.assign(static_cast<std::size_t>(spec.k), 0.0f);
        parallel_grain_ = spec.k;  // multi-core over K (paper Sec. III-C)
        break;
      }
      case graph::LayerKind::kPool: {
        ops::BinaryOpOptions opt;
        opt.force_isa = profile_isa(profile, spec.c);
        bpool_ = std::make_unique<ops::BinaryPoolOp>(
            kernels::PoolSpec{spec.kernel, spec.kernel, spec.stride}, spec.c, opt);
        const std::int64_t oh = (spec.h - spec.kernel) / spec.stride + 1;
        pool_out_packed_ = PackedTensor(oh, oh, spec.c);
        pool_out_float_ = Tensor::hwc(oh, oh, spec.c);
        packed_in_ = bitpack::pack_activations(input_);
        parallel_grain_ = oh;  // output rows
        break;
      }
    }
  }

  [[nodiscard]] const models::OperatorBenchmark& spec() const { return spec_; }
  /// Parallel work units of the BitFlow engine for this operator.
  [[nodiscard]] std::int64_t parallel_grain() const { return parallel_grain_; }

  /// Single-thread best-of-N seconds for each engine.
  double time_float() {
    return runtime::measure_best_seconds([&] { run_float(); }, 3, 0.2);
  }
  double time_unopt() {
    return runtime::measure_best_seconds([&] { run_unopt(); }, 3, 0.2);
  }
  double time_bitflow() {
    return runtime::measure_best_seconds([&] { run_bitflow(); }, 5, 0.2);
  }

  void run_float() {
    switch (spec_.kind) {
      case graph::LayerKind::kConv: fconv_->run(input_, pool_, out_float_); break;
      case graph::LayerKind::kFc:
        baseline::float_fc(fc_weights_.data(), fc_in_.data(), fc_out_.data(), spec_.c, spec_.k,
                           pool_);
        break;
      case graph::LayerKind::kPool:
        baseline::float_maxpool(input_, kernels::PoolSpec{spec_.kernel, spec_.kernel, spec_.stride},
                                pool_, pool_out_float_);
        break;
    }
  }

  void run_unopt() {
    switch (spec_.kind) {
      case graph::LayerKind::kConv: uconv_->run(padded_, pool_, out_unopt_); break;
      case graph::LayerKind::kFc: ufc_->run(fc_in_.data(), pool_, fc_out_.data()); break;
      case graph::LayerKind::kPool:
        baseline::unopt_binary_maxpool(
            packed_in_, kernels::PoolSpec{spec_.kernel, spec_.kernel, spec_.stride}, pool_,
            pool_out_packed_);
        break;
    }
  }

  void run_bitflow() {
    switch (spec_.kind) {
      case graph::LayerKind::kConv: bconv_->run(input_, pool_, out_bitflow_); break;
      case graph::LayerKind::kFc: bfc_->run(fc_in_.data(), pool_, fc_out_.data()); break;
      case graph::LayerKind::kPool: bpool_->run_packed(packed_in_, pool_, pool_out_packed_, 0); break;
    }
  }

 private:
  models::OperatorBenchmark spec_;
  runtime::ThreadPool pool_;
  Tensor input_, padded_;
  Tensor out_float_, out_unopt_, out_bitflow_, pool_out_float_;
  PackedTensor packed_in_, pool_out_packed_;
  std::vector<float> fc_weights_, fc_in_, fc_out_;
  std::unique_ptr<ops::BinaryConvOp> bconv_;
  std::unique_ptr<ops::FloatConvOp> fconv_;
  std::unique_ptr<baseline::UnoptBinaryConv> uconv_;
  std::unique_ptr<ops::BinaryFcOp> bfc_;
  std::unique_ptr<baseline::UnoptBinaryFc> ufc_;
  std::unique_ptr<ops::BinaryPoolOp> bpool_;
  std::int64_t parallel_grain_ = 1;
};

/// Fork/join overhead base used by every simulated multi-thread estimate
/// (documented constant: one wake+join round trip of a sleeping worker).
inline constexpr double kForkJoinBaseSeconds = 5e-6;

/// Simulated p-thread time of an operator measured at `serial_seconds`
/// over `grain` uniform work units, using the engine's static partition.
inline double simulate_threads(double serial_seconds, std::int64_t grain, int p) {
  runtime::ScalingSimulator sim(
      std::vector<double>(static_cast<std::size_t>(grain), serial_seconds / static_cast<double>(grain)),
      kForkJoinBaseSeconds);
  return sim.predict_seconds(p);
}

/// Single-core tiled-vs-untiled PressedConv measurement (the register-tiling
/// rows of bench_micro and bench_ait_analysis, and the source of the
/// BENCH_pressedconv.json baseline).  Both kernels consume the same packed
/// input and the same filter bits; only the weight layout differs.
struct TiledConvResult {
  simd::IsaLevel isa = simd::IsaLevel::kU64;
  std::int64_t tile = 0;
  double untiled_seconds = 0.0;
  double tiled_seconds = 0.0;
  double giga_ops = 0.0;  ///< 2*out_h*out_w*K*kh*kw*C in units of 1e9
  [[nodiscard]] double untiled_gops() const { return giga_ops / untiled_seconds; }
  [[nodiscard]] double tiled_gops() const { return giga_ops / tiled_seconds; }
  [[nodiscard]] double speedup() const { return untiled_seconds / tiled_seconds; }
};

inline TiledConvResult measure_tiled_conv(simd::IsaLevel isa, std::int64_t h, std::int64_t w,
                                          std::int64_t c, std::int64_t k, std::int64_t kernel,
                                          std::uint64_t seed = 71) {
  // Zero channel tails, as every library producer leaves them: the folded
  // window gather of narrow layers relies on it.
  PackedTensor in(h, w, c);
  fill_random_bits(in, seed);
  PackedFilterBank filters(k, kernel, kernel, c);
  fill_random_bits(filters, seed + 1);
  const TiledFilterBank tiled = bitpack::tile_filters(filters, kernels::weight_tile_width(isa));
  const kernels::ConvSpec spec{kernel, kernel, 1};
  const std::int64_t oh = h - kernel + 1;
  const std::int64_t ow = w - kernel + 1;
  Tensor out = Tensor::hwc(oh, ow, k);
  runtime::ThreadPool pool(1);
  const PackedTensor* ins[] = {&in};
  Tensor* outs[] = {&out};
  const bool vp = simd::cpu_features().avx512vpopcntdq;
  const auto untiled_fn = kernels::conv_dot_batch_kernel(isa, vp);
  const auto tiled_fn = kernels::conv_dot_tiled_batch_kernel(isa, vp, tiled.tile());
  TiledConvResult r;
  r.isa = isa;
  r.tile = tiled.tile();
  r.untiled_seconds = runtime::measure_best_seconds(
      [&] { untiled_fn(ins, 1, filters, spec, pool, outs); }, 5, 0.2);
  r.tiled_seconds = runtime::measure_best_seconds(
      [&] { tiled_fn(ins, 1, tiled, spec, pool, outs); }, 5, 0.2);
  r.giga_ops = 2.0 * static_cast<double>(oh * ow * k) * static_cast<double>(kernel * kernel * c) /
               1e9;
  return r;
}

/// One fused conv + binarize shape timed at a fixed plan (ISA, tile width):
/// the register-tiled binarize kernel the engine runs, single image, single
/// core, thresholds drawn like folded batchnorm offsets, output written
/// with the next layer's one-pixel margin.
struct BinarizeConvResult {
  double seconds = 0.0;
  double giga_ops = 0.0;  ///< 2*out_h*out_w*K*kh*kw*C in units of 1e9
  [[nodiscard]] double gops() const { return giga_ops / seconds; }
};

inline BinarizeConvResult measure_binarize_conv(simd::IsaLevel isa, std::int64_t tile,
                                                std::int64_t in, std::int64_t c, std::int64_t k,
                                                std::int64_t kernel, std::uint64_t seed = 71) {
  PackedTensor input(in, in, c);
  fill_random_bits(input, seed);
  PackedFilterBank filters(k, kernel, kernel, c);
  fill_random_bits(filters, seed + 1);
  std::mt19937_64 rng(seed + 2);
  std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
  std::vector<float> thresholds(static_cast<std::size_t>(k));
  for (float& t : thresholds) t = dist(rng);
  const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
  const kernels::ConvSpec spec{kernel, kernel, 1};
  const std::int64_t out = in - kernel + 1;
  PackedTensor output(out + 2, out + 2, k);
  runtime::ThreadPool pool(1);
  const PackedTensor* ins[] = {&input};
  PackedTensor* outs[] = {&output};
  const auto fn = kernels::conv_binarize_tiled_batch_kernel(isa, false, tile);
  BinarizeConvResult r;
  r.seconds = runtime::measure_best_seconds(
      [&] { fn(ins, 1, tiled, spec, thresholds.data(), pool, outs, 1); }, 5, 0.2);
  r.giga_ops =
      2.0 * static_cast<double>(out * out * k) * static_cast<double>(kernel * kernel * c) / 1e9;
  return r;
}

/// One conv shape of the auto-tuner sweep (bench_micro --tune): chosen to
/// exercise the tuner off the headline sweet spot — 1x1 and 5x5 kernels,
/// K below the static heuristic's tile width, and large-HW memory-bound
/// layers where the fixed-T choice has no reason to be right.
struct TuneSweepShape {
  std::string label;
  std::int64_t in = 0;  ///< padded square input extent the kernel reads
  std::int64_t c = 0, k = 0, kernel = 0;
};

inline std::vector<TuneSweepShape> tune_sweep_shapes() {
  return {
      {"3x3_c256_k256_hw16", 18, 256, 256, 3},  // headline sweet spot
      {"1x1_c512_k512_hw14", 14, 512, 512, 1},
      {"5x5_c64_k64_hw16", 20, 64, 64, 5},
      {"3x3_c64_k128_hw32", 34, 64, 128, 3},
      {"3x3_c512_k6_hw16", 18, 512, 6, 3},  // K below every default tile width
      {"3x3_c128_k4_hw16", 18, 128, 4, 3},
      {"3x3_c64_k32_hw64", 66, 64, 32, 3},  // large-HW, memory-bound
  };
}

/// Precisely re-measures one committed plan (the tuner's quick search picks
/// a winner; this times it with the bench-grade repetition budget).  Raw-dot
/// variant, single image, single core — same convention as
/// measure_tiled_conv so the numbers are comparable across benches.
inline double measure_conv_decision_seconds(const tune::LayerWorkload& wl,
                                            const tune::Decision& d,
                                            std::uint64_t seed = 71) {
  std::mt19937_64 rng(seed);
  PackedTensor in(wl.in_h, wl.in_w, wl.c);
  for (std::int64_t i = 0; i < in.num_words(); ++i) in.words()[i] = rng();
  PackedFilterBank filters(wl.k, wl.kh, wl.kw, wl.c);
  for (std::int64_t i = 0; i < wl.k * filters.words_per_filter(); ++i) filters.words()[i] = rng();
  kernels::ConvSpec spec{wl.kh, wl.kw, wl.stride};
  spec.par_grain = d.par_grain;
  Tensor out = Tensor::hwc(spec.out_h(wl.in_h), spec.out_w(wl.in_w), wl.k);
  runtime::ThreadPool pool(1);
  const PackedTensor* ins[] = {&in};
  Tensor* outs[] = {&out};
  const TiledFilterBank tiled = bitpack::tile_filters(filters, d.tile);
  const auto fn = kernels::conv_dot_tiled_batch_kernel(wl.isa, wl.vpopcnt, d.tile);
  return runtime::measure_best_seconds([&] { fn(ins, 1, tiled, spec, pool, outs); }, 5, 0.2);
}

/// One row of the tuner sweep: the static heuristic's plan vs the plan the
/// finalize-time search commits, both re-measured precisely.  When the
/// search picks the heuristic plan the same measurement is reported for
/// both sides (speedup exactly 1.0 — "tuned matches fixed-T" by
/// construction, not by timing luck).
struct TuneSweepResult {
  TuneSweepShape shape;
  simd::IsaLevel isa = simd::IsaLevel::kU64;
  tune::Decision fixed, tuned;
  double fixed_ms = 0.0, tuned_ms = 0.0;
  [[nodiscard]] double speedup() const { return fixed_ms / tuned_ms; }
};

inline TuneSweepResult measure_tuned_sweep(const TuneSweepShape& s, simd::IsaLevel isa,
                                           bool vpopcnt) {
  tune::LayerWorkload wl;
  wl.kind = 0;
  wl.isa = isa;
  wl.vpopcnt = vpopcnt;
  wl.threads = 1;
  wl.in_h = s.in;
  wl.in_w = s.in;
  wl.c = s.c;
  wl.k = s.k;
  wl.kh = s.kernel;
  wl.kw = s.kernel;
  wl.stride = 1;
  wl.fused_binarize = false;  // raw-dot rows, same as measure_tiled_conv

  runtime::ThreadPool pool(1);
  TuneSweepResult r;
  r.shape = s;
  r.isa = isa;
  r.fixed = tune::default_decision(wl);
  r.tuned = tune::search(wl, pool);
  r.fixed_ms = measure_conv_decision_seconds(wl, r.fixed) * 1e3;
  const bool same_plan =
      r.tuned.tile == r.fixed.tile && r.tuned.par_grain == r.fixed.par_grain;
  r.tuned_ms = same_plan ? r.fixed_ms : measure_conv_decision_seconds(wl, r.tuned) * 1e3;
  return r;
}

inline void print_rule(int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Figs. 8/9 body: per-operator BitFlow speedup over the single-thread
/// float baseline, across the profile's thread counts.  p = 1 is measured;
/// p > 1 replays the engine's static partition through the scaling
/// simulator (labelled "(sim)" in the header).
inline void run_multicore_figure(const Profile& prof) {
  std::printf("profile: %s, ISA cap %s\n", prof.name.c_str(),
              std::string(simd::isa_name(prof.max_isa)).c_str());
  std::printf("columns: BitFlow acceleration over single-thread float operator (1x)\n");
  std::printf("p = 1 measured; p > 1 simulated from the engine's real work partition (sim)\n\n");
  std::printf("%-9s %12s %12s", "operator", "float(ms)", "grain");
  for (int p : prof.thread_counts) std::printf("   thr%-3d(x)", p);
  std::printf("\n");
  print_rule();
  for (const auto& spec : models::table4_benchmarks()) {
    OperatorHarness h(spec, prof);
    const double tf = h.time_float();
    const double tb1 = h.time_bitflow();
    std::printf("%-9s %12.3f %12lld", spec.name.c_str(), tf * 1e3,
                static_cast<long long>(h.parallel_grain()));
    for (int p : prof.thread_counts) {
      const double tbp = p == 1 ? tb1 : simulate_threads(tb1, h.parallel_grain(), p);
      std::printf("   %8.1fx", tf / tbp);
    }
    std::printf("\n");
  }
  print_rule();
}

}  // namespace bitflow::bench
