#include "graph/network.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "baseline/float_ops.hpp"
#include "bitpack/packer.hpp"
#include "core/ait.hpp"
#include "core/failpoint.hpp"
#include "telemetry/perf_counters.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "tune/tuner.hpp"

namespace bitflow::graph {

namespace {

/// A layer as described by the user, before finalize() lowers it.
struct PendingLayer {
  LayerKind kind = LayerKind::kConv;
  std::string name;
  // conv
  FilterBank conv_weights;
  kernels::ConvSpec conv_spec;
  std::int64_t pad = 0;
  // pool
  kernels::PoolSpec pool_spec;
  // fc
  std::vector<float> fc_weights;
  std::int64_t fc_n = 0, fc_k = 0;
  // pre-packed weights (add_conv_packed / add_fc_packed)
  PackedFilterBank conv_packed;
  PackedMatrix fc_packed;
  bool prepacked = false;
  bool full_precision = false;  // first-layer float conv
  // shared
  std::vector<float> thresholds;
};

/// A lowered, executable stage.  Immutable after finalize(): stages hold the
/// packed weights and (batch-capable) kernel pointers, never scratch.
struct Stage {
  LayerKind kind = LayerKind::kConv;
  simd::IsaLevel isa = simd::IsaLevel::kU64;
  bool is_last = false;  ///< last stage emits float scores, not bits

  // Binary conv/fc stages hold only the interleaved weights and the
  // register-tiled kernels (the interleave is a permutation, so weight bytes
  // equal the filter-major bank's, except that narrow banks fold to one word
  // per filter).
  // conv
  kernels::ConvSpec conv_spec;
  TiledFilterBank filters;
  kernels::ConvBinarizeTiledBatchFn conv_bin = nullptr;
  kernels::ConvDotTiledBatchFn conv_dot = nullptr;
  // first-layer full-precision conv
  bool full_precision = false;
  std::vector<float> float_weights_t;  // (kh*kw*C) x K, im2col layout
  std::int64_t float_k = 0;

  // pool
  kernels::PoolSpec pool_spec;

  // fc
  TiledBitMatrix fc_weights;  // k x n bits (pre-transposed at finalize)
  kernels::BgemmRowsTiledFn fc_dot = nullptr;
  kernels::BgemmBinarizeRowsTiledFn fc_bin = nullptr;

  std::vector<float> thresholds;  // empty = sign at zero

  // buffer routing (indices into the context's buffers)
  int in_act = -1, out_act = -1;  // packed activation tensors
  int in_fc = -1, out_fc = -1;    // packed fc bit rows
  std::int64_t out_margin = 0;    // interior offset in the output buffer
  bool flatten_input = false;     // conv/pool output -> fc row transition
};

/// Extents of one planned buffer.
struct PlannedDims {
  std::int64_t h = 0, w = 0, c = 0;
};

/// The memory plan finalize() computes: every buffer a context must carry,
/// by extent.  Allocation happens per context in make_context().
struct BufferPlan {
  std::vector<PlannedDims> acts;         // packed activation buffers
  std::vector<std::int64_t> fc_cols;     // packed fc bit-row widths
  PlannedDims last_conv_dot{};           // float dots if the last stage is a conv
  bool need_last_conv_dot = false;
  PlannedDims last_pool_out{};           // packed output if the last stage is a pool
  bool need_last_pool_out = false;
  PlannedDims f_in_padded{}, f_dots{};   // full-precision first conv
  bool need_float_first = false;
  std::int64_t scores_size = 0;          // per-image output floats
};

}  // namespace

struct BinaryNetwork::Impl {
  NetworkConfig cfg;
  std::vector<PendingLayer> pending;
  bool finalized = false;

  // Finalized state — read-only after finalize(), shared by every context.
  TensorDesc input{};
  std::int64_t input_margin = 0;
  std::vector<LayerInfo> infos;
  std::vector<Stage> stages;
  BufferPlan plan;
  std::int64_t weight_bytes = 0;

  // Profiler metadata, fixed at finalize().  span_names/kernel_names back
  // the trace spans (TraceSpan keeps the const char* — the strings must
  // never move, so these vectors are sized once and never touched again).
  std::vector<std::string> span_names;    // "layer:<name>", one per stage
  std::vector<std::string> kernel_names;  // "<kernel>[<isa>]", one per stage
  std::vector<double> stage_ops;          // binary ops per image (2/MAC); 0 = n/a
  std::vector<double> stage_ait;          // direct-conv AIT; 0 = n/a
  // Shared lock-free accumulators: [0] = input pack, [i+1] = stage i.  Heap
  // array so recording through a const Impl& is well-formed.
  std::unique_ptr<telemetry::SpanStats[]> span_stats;

  /// Hardware-counter accumulators, indexed like span_stats ([0] = input
  /// pack).  Summed deltas from each profiled context's PerfSampler.
  struct PerfStage {
    // Ordering contract: relaxed fetch_add/load/store everywhere — these are
    // independently monotonic sums (SpanStats discipline): a reader may see
    // a torn cross-field view, acceptable for a diagnostic ratio, and no
    // other state is published through them.
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> instructions{0};
    std::atomic<std::uint64_t> llc_misses{0};
    std::atomic<std::uint64_t> samples{0};
  };
  std::unique_ptr<PerfStage[]> perf_stats;

  /// Folds one stage's counter delta into the shared accumulators.
  void record_perf(std::size_t row, const telemetry::PerfCounts& d) const {
    if (!d.valid) return;
    PerfStage& p = perf_stats[row];
    // Ordering contract: relaxed — see PerfStage declaration.
    p.cycles.fetch_add(d.cycles, std::memory_order_relaxed);
    p.instructions.fetch_add(d.instructions, std::memory_order_relaxed);
    p.llc_misses.fetch_add(d.llc_misses, std::memory_order_relaxed);
    p.samples.fetch_add(1, std::memory_order_relaxed);
  }

  // Default context backing the batch-1 infer() convenience API.  This is
  // the only mutable member after finalize(), and only infer() touches it.
  std::unique_ptr<InferenceContext> default_ctx;
  std::vector<double> no_profile;  // empty result pre-finalize

  explicit Impl(NetworkConfig c) : cfg(c) {
    if (c.num_threads < 1) throw std::invalid_argument("NetworkConfig: num_threads >= 1");
  }
};

/// Everything one inference stream mutates: pool + all planned buffers,
/// replicated per image up to max_batch, plus the pointer arrays the batched
/// kernels take (pre-sized so steady-state inference never allocates).
struct InferenceContext::Impl {
  const BinaryNetwork::Impl* net;  // identity: contexts are net-specific
  std::int64_t max_batch;
  runtime::ThreadPool pool;

  std::vector<std::vector<PackedTensor>> acts;  // [buffer][image]
  std::vector<PackedMatrix> fc_bits;            // max_batch rows each
  std::vector<Tensor> last_conv_dot;            // [image]
  std::vector<PackedTensor> last_pool_out;      // [image]
  Tensor f_in_padded;                           // shared: the float first
  Tensor f_dots;                                // layer runs per image
  std::vector<float> f_cols;
  std::vector<float> scores;                    // max_batch * scores_size

  std::vector<const PackedTensor*> in_ptrs;
  std::vector<PackedTensor*> out_ptrs;
  std::vector<Tensor*> dot_ptrs;

  std::vector<double> profile_ms;

  /// Hardware-counter sampler, opened lazily on the first profiled
  /// infer_batch so the group covers the thread actually driving the stage
  /// loop (only known then) plus this context's pool workers.  A context is
  /// one inference stream — no concurrent access, so plain members suffice.
  telemetry::PerfSampler perf;
  bool perf_open_attempted = false;

  Impl(const BinaryNetwork::Impl* n, std::int64_t mb, int threads)
      : net(n), max_batch(mb), pool(threads) {
    const BufferPlan& plan = n->plan;
    const std::size_t b = static_cast<std::size_t>(mb);
    acts.reserve(plan.acts.size());
    for (const PlannedDims& d : plan.acts) {
      std::vector<PackedTensor>& per_image = acts.emplace_back();
      per_image.reserve(b);
      for (std::int64_t i = 0; i < mb; ++i) per_image.emplace_back(d.h, d.w, d.c);
    }
    fc_bits.reserve(plan.fc_cols.size());
    for (const std::int64_t cols : plan.fc_cols) fc_bits.emplace_back(mb, cols);
    if (plan.need_last_conv_dot) {
      last_conv_dot.reserve(b);
      for (std::int64_t i = 0; i < mb; ++i) {
        last_conv_dot.push_back(Tensor::hwc(plan.last_conv_dot.h, plan.last_conv_dot.w,
                                            plan.last_conv_dot.c));
      }
    }
    if (plan.need_last_pool_out) {
      last_pool_out.reserve(b);
      for (std::int64_t i = 0; i < mb; ++i) {
        last_pool_out.emplace_back(plan.last_pool_out.h, plan.last_pool_out.w,
                                   plan.last_pool_out.c);
      }
    }
    if (plan.need_float_first) {
      f_in_padded = Tensor::hwc(plan.f_in_padded.h, plan.f_in_padded.w, plan.f_in_padded.c);
      f_dots = Tensor::hwc(plan.f_dots.h, plan.f_dots.w, plan.f_dots.c);
    }
    scores.resize(static_cast<std::size_t>(mb * plan.scores_size));
    in_ptrs.resize(b);
    out_ptrs.resize(b);
    dot_ptrs.resize(b);
  }
};

InferenceContext::InferenceContext(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
InferenceContext::InferenceContext(InferenceContext&&) noexcept = default;
InferenceContext& InferenceContext::operator=(InferenceContext&&) noexcept = default;
InferenceContext::~InferenceContext() = default;
std::int64_t InferenceContext::max_batch() const noexcept { return impl_->max_batch; }
int InferenceContext::num_threads() const noexcept { return impl_->pool.num_threads(); }
const std::vector<double>& InferenceContext::last_profile_ms() const {
  return impl_->profile_ms;
}

BinaryNetwork::BinaryNetwork(NetworkConfig cfg) : impl_(std::make_unique<Impl>(cfg)) {}
BinaryNetwork::BinaryNetwork(BinaryNetwork&&) noexcept = default;
BinaryNetwork& BinaryNetwork::operator=(BinaryNetwork&&) noexcept = default;
BinaryNetwork::~BinaryNetwork() = default;

void BinaryNetwork::add_conv(std::string name, FilterBank weights, std::int64_t stride,
                             std::int64_t pad, std::vector<float> thresholds) {
  if (impl_->finalized) throw std::logic_error("BinaryNetwork: add after finalize");
  if (!thresholds.empty() &&
      thresholds.size() != static_cast<std::size_t>(weights.num_filters())) {
    throw std::invalid_argument("add_conv: thresholds must have one entry per filter");
  }
  PendingLayer l;
  l.kind = LayerKind::kConv;
  l.name = std::move(name);
  l.conv_spec = kernels::ConvSpec{weights.kernel_h(), weights.kernel_w(), stride};
  l.conv_weights = std::move(weights);
  l.pad = pad;
  l.thresholds = std::move(thresholds);
  impl_->pending.push_back(std::move(l));
}

void BinaryNetwork::add_conv_float(std::string name, FilterBank weights, std::int64_t stride,
                                   std::int64_t pad, std::vector<float> thresholds) {
  if (impl_->finalized) throw std::logic_error("BinaryNetwork: add after finalize");
  if (!impl_->pending.empty()) {
    throw std::invalid_argument("add_conv_float: only valid as the first layer");
  }
  if (!thresholds.empty() &&
      thresholds.size() != static_cast<std::size_t>(weights.num_filters())) {
    throw std::invalid_argument("add_conv_float: thresholds must have one entry per filter");
  }
  PendingLayer l;
  l.kind = LayerKind::kConv;
  l.name = std::move(name);
  l.conv_spec = kernels::ConvSpec{weights.kernel_h(), weights.kernel_w(), stride};
  l.conv_weights = std::move(weights);
  l.full_precision = true;
  l.pad = pad;
  l.thresholds = std::move(thresholds);
  impl_->pending.push_back(std::move(l));
}

void BinaryNetwork::add_conv_packed(std::string name, PackedFilterBank filters,
                                    std::int64_t stride, std::int64_t pad,
                                    std::vector<float> thresholds) {
  if (impl_->finalized) throw std::logic_error("BinaryNetwork: add after finalize");
  if (!thresholds.empty() &&
      thresholds.size() != static_cast<std::size_t>(filters.num_filters())) {
    throw std::invalid_argument("add_conv_packed: thresholds must have one entry per filter");
  }
  PendingLayer l;
  l.kind = LayerKind::kConv;
  l.name = std::move(name);
  l.conv_spec = kernels::ConvSpec{filters.kernel_h(), filters.kernel_w(), stride};
  l.conv_packed = std::move(filters);
  l.prepacked = true;
  l.pad = pad;
  l.thresholds = std::move(thresholds);
  impl_->pending.push_back(std::move(l));
}

void BinaryNetwork::add_maxpool(std::string name, kernels::PoolSpec spec) {
  if (impl_->finalized) throw std::logic_error("BinaryNetwork: add after finalize");
  PendingLayer l;
  l.kind = LayerKind::kPool;
  l.name = std::move(name);
  l.pool_spec = spec;
  impl_->pending.push_back(std::move(l));
}

void BinaryNetwork::add_fc(std::string name, std::vector<float> weights, std::int64_t n,
                           std::int64_t k, std::vector<float> thresholds) {
  if (impl_->finalized) throw std::logic_error("BinaryNetwork: add after finalize");
  if (weights.size() != static_cast<std::size_t>(n * k)) {
    throw std::invalid_argument("add_fc: weights must be n*k floats");
  }
  if (!thresholds.empty() && thresholds.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument("add_fc: thresholds must have one entry per output");
  }
  PendingLayer l;
  l.kind = LayerKind::kFc;
  l.name = std::move(name);
  l.fc_weights = std::move(weights);
  l.fc_n = n;
  l.fc_k = k;
  l.thresholds = std::move(thresholds);
  impl_->pending.push_back(std::move(l));
}

void BinaryNetwork::add_fc_packed(std::string name, PackedMatrix weights,
                                  std::vector<float> thresholds) {
  if (impl_->finalized) throw std::logic_error("BinaryNetwork: add after finalize");
  if (!thresholds.empty() && thresholds.size() != static_cast<std::size_t>(weights.rows())) {
    throw std::invalid_argument("add_fc_packed: thresholds must have one entry per output");
  }
  PendingLayer l;
  l.kind = LayerKind::kFc;
  l.name = std::move(name);
  l.fc_n = weights.cols();
  l.fc_k = weights.rows();
  l.fc_packed = std::move(weights);
  l.prepacked = true;
  l.thresholds = std::move(thresholds);
  impl_->pending.push_back(std::move(l));
}

void BinaryNetwork::finalize(TensorDesc input) {
  Impl& im = *impl_;
  if (im.finalized) throw std::logic_error("BinaryNetwork: finalize called twice");
  if (im.pending.empty()) throw std::logic_error("BinaryNetwork: no layers");
  const std::size_t n_layers = im.pending.size();
  const simd::CpuFeatures& hw = simd::cpu_features();
  if (im.cfg.max_isa.has_value() && !hw.supports(*im.cfg.max_isa)) {
    throw std::invalid_argument(
        "finalize: configured max_isa " + std::string(simd::isa_name(*im.cfg.max_isa)) +
        " is not executable on this CPU");
  }

  // Pass 1: shape inference + validation + ISA selection.
  im.input = input;
  TensorDesc cur = input;
  bool seen_fc = false;
  auto clamp_isa = [&](simd::IsaLevel isa) {
    // Armed simd.force_fallback degrades every layer to the scalar u64
    // kernels — the ISA-parity harness guarantees this changes nothing but
    // throughput, which is exactly what the fault matrix asserts.
    if (BF_FAILPOINT_TRIGGERED("simd.force_fallback")) return simd::IsaLevel::kU64;
    if (im.cfg.max_isa.has_value() &&
        static_cast<int>(isa) > static_cast<int>(*im.cfg.max_isa)) {
      return *im.cfg.max_isa;
    }
    return isa;
  };
  for (std::size_t i = 0; i < n_layers; ++i) {
    PendingLayer& l = im.pending[i];
    LayerInfo info;
    info.name = l.name;
    info.kind = l.kind;
    info.in = cur;
    switch (l.kind) {
      case LayerKind::kConv: {
        if (seen_fc) throw std::invalid_argument("BinaryNetwork: conv after fc unsupported");
        const std::int64_t layer_c =
            l.prepacked ? l.conv_packed.channels() : l.conv_weights.channels();
        const std::int64_t layer_k =
            l.prepacked ? l.conv_packed.num_filters() : l.conv_weights.num_filters();
        if (layer_c != cur.c) {
          throw std::invalid_argument("finalize: " + l.name + " channel mismatch");
        }
        cur = infer_conv(cur, l.conv_spec, l.pad, layer_k);
        info.pad = l.pad;
        info.full_precision = l.full_precision;
        if (l.full_precision) {
          info.isa = simd::IsaLevel::kU64;
          info.isa_reason = "full-precision first layer (im2col + sgemm)";
        } else {
          info.isa = clamp_isa(select_isa(layer_c, hw, im.cfg.policy));
          info.isa_reason = explain_isa_selection(layer_c, hw, im.cfg.policy);
        }
        break;
      }
      case LayerKind::kPool: {
        if (seen_fc) throw std::invalid_argument("BinaryNetwork: pool after fc unsupported");
        cur = infer_pool(cur, l.pool_spec);
        info.isa = clamp_isa(select_isa(cur.c, hw, im.cfg.policy));
        info.isa_reason = explain_isa_selection(cur.c, hw, im.cfg.policy);
        break;
      }
      case LayerKind::kFc: {
        if (cur.num_elements() != l.fc_n) {
          throw std::invalid_argument("finalize: " + l.name + " input size mismatch");
        }
        seen_fc = true;
        cur = infer_fc(cur, l.fc_k);
        info.isa = clamp_isa(select_isa(l.fc_n, hw, im.cfg.policy));
        info.isa_reason = explain_isa_selection(l.fc_n, hw, im.cfg.policy);
        break;
      }
    }
    info.out = cur;
    im.infos.push_back(std::move(info));
  }

  // Pass 2: memory planning.  The margin of each activation buffer equals
  // the padding its *consumer* wants, so padding is realized by writing
  // interiors (Fig. 5).  Buffer i is the input of layer i.
  auto consumer_margin = [&](std::size_t layer) -> std::int64_t {
    return (layer < n_layers && im.pending[layer].kind == LayerKind::kConv)
               ? im.pending[layer].pad
               : 0;
  };
  im.input_margin = consumer_margin(0);

  // Pass 3: lower layers to stages, pack weights, record the buffer plan.
  // plan.acts[i] holds the packed input of stage i (for conv/pool stages);
  // contexts allocate one copy per batch slot.
  //
  // With auto-tuning on, each conv/fc layer's plan (tile width, parallel
  // grain) comes from tune::decide() — a cache hit commits the remembered
  // plan instantly, a miss microbenchmarks the candidates on the layer's
  // real shapes.  Off, the static default_decision() commits the fixed
  // per-ISA heuristic.  Either way every candidate is
  // bit-exact, so this pass picks speed, never values.
  tune::TuneCache tune_cache;
  std::string tune_path;
  bool tune_searched_any = false;
  std::unique_ptr<runtime::ThreadPool> tune_pool;
  if (im.cfg.auto_tune) {
    tune_path = im.cfg.tune_cache_path.empty() ? tune::default_cache_path()
                                               : im.cfg.tune_cache_path;
    if (!tune_path.empty()) tune_cache.load(tune_path);
    tune_pool = std::make_unique<runtime::ThreadPool>(im.cfg.num_threads);
  }
  TensorDesc flow = input;
  for (std::size_t i = 0; i < n_layers; ++i) {
    PendingLayer& l = im.pending[i];
    LayerInfo& info = im.infos[i];
    Stage s;
    s.kind = l.kind;
    s.isa = info.isa;
    s.is_last = (i + 1 == n_layers);
    s.thresholds = std::move(l.thresholds);
    switch (l.kind) {
      case LayerKind::kConv: {
        s.conv_spec = l.conv_spec;
        if (l.full_precision) {
          s.full_precision = true;
          s.float_k = l.conv_weights.num_filters();
          s.float_weights_t = baseline::flatten_filters_transposed(l.conv_weights);
          im.weight_bytes +=
              static_cast<std::int64_t>(s.float_weights_t.size()) * 4;
          im.plan.need_float_first = true;
          im.plan.f_in_padded = {flow.h + 2 * l.pad, flow.w + 2 * l.pad, flow.c};
          im.plan.f_dots = {info.out.h, info.out.w, info.out.c};
        } else {
          PackedFilterBank bank =
              l.prepacked ? std::move(l.conv_packed) : bitpack::pack_filters(l.conv_weights);
          tune::LayerWorkload wl;
          wl.kind = 0;
          wl.isa = info.isa;
          wl.vpopcnt = info.isa == simd::IsaLevel::kAvx512 && hw.avx512vpopcntdq;
          wl.threads = im.cfg.num_threads;
          wl.in_h = info.in.h + 2 * l.pad;  // the padded buffer the kernel reads
          wl.in_w = info.in.w + 2 * l.pad;
          wl.c = info.in.c;
          wl.k = bank.num_filters();
          wl.kh = l.conv_spec.kernel_h;
          wl.kw = l.conv_spec.kernel_w;
          wl.stride = l.conv_spec.stride;
          wl.fused_binarize = !s.is_last;
          tune::Decision dec;
          if (im.cfg.auto_tune) {
            bool searched = false;
            dec = tune::decide(wl, tune_cache, *tune_pool, &searched);
            tune_searched_any = tune_searched_any || searched;
          } else {
            dec = tune::default_decision(wl);
          }
          s.conv_spec.par_grain = dec.par_grain;
          // Re-lay into the interleaved register-tile layout; the
          // filter-major bank is dropped (same word count, permuted order).
          s.filters = bitpack::tile_filters(bank, dec.tile);
          s.conv_bin = kernels::conv_binarize_tiled_batch_kernel(info.isa, wl.vpopcnt, dec.tile);
          s.conv_dot = kernels::conv_dot_tiled_batch_kernel(info.isa, wl.vpopcnt, dec.tile);
          info.layout = kernels::WeightLayout::kInterleaved;
          info.tile = dec.tile;
          info.folded_window = s.filters.folded();
          im.weight_bytes += s.filters.rows().num_words() * 8;
          info.par_grain = dec.par_grain;
          info.tune_source = tune::decision_source_name(dec.source);
        }
        l.conv_weights = FilterBank();  // drop the float weights
        break;
      }
      case LayerKind::kPool: {
        s.pool_spec = l.pool_spec;
        break;
      }
      case LayerKind::kFc: {
        PackedMatrix w = l.prepacked
                             ? std::move(l.fc_packed)
                             : bitpack::pack_transpose_fc_weights(l.fc_weights.data(), l.fc_n,
                                                                  l.fc_k);
        im.weight_bytes += w.rows() * w.words_per_row() * 8;
        tune::LayerWorkload wl;
        wl.kind = 1;
        wl.isa = info.isa;
        wl.vpopcnt = info.isa == simd::IsaLevel::kAvx512 && hw.avx512vpopcntdq;
        wl.threads = im.cfg.num_threads;
        wl.c = w.cols();  // input neurons
        wl.k = w.rows();  // output neurons
        wl.fused_binarize = !s.is_last;
        tune::Decision dec;
        if (im.cfg.auto_tune) {
          bool searched = false;
          dec = tune::decide(wl, tune_cache, *tune_pool, &searched);
          tune_searched_any = tune_searched_any || searched;
        } else {
          dec = tune::default_decision(wl);
        }
        s.fc_weights = bitpack::tile_fc_weights(w, dec.tile);
        s.fc_dot = kernels::bgemm_rows_tiled_kernel(info.isa, wl.vpopcnt, dec.tile);
        s.fc_bin = kernels::bgemm_binarize_rows_tiled_kernel(info.isa, wl.vpopcnt, dec.tile);
        info.layout = kernels::WeightLayout::kInterleaved;
        info.tile = dec.tile;
        info.tune_source = tune::decision_source_name(dec.source);
        l.fc_weights.clear();
        l.fc_weights.shrink_to_fit();
        break;
      }
    }

    // Buffer routing.
    if (l.kind == LayerKind::kConv || l.kind == LayerKind::kPool) {
      if (im.plan.acts.size() == i && i == 0) {
        im.plan.acts.push_back(
            {flow.h + 2 * im.input_margin, flow.w + 2 * im.input_margin, flow.c});
      }
      s.in_act = static_cast<int>(i);
      const TensorDesc& out = info.out;
      s.out_margin = consumer_margin(i + 1);
      if (s.is_last && l.kind == LayerKind::kConv) {
        // Final conv: raw dot products into a float tensor.
        im.plan.need_last_conv_dot = true;
        im.plan.last_conv_dot = {out.h, out.w, out.c};
      } else if (s.is_last && l.kind == LayerKind::kPool) {
        // Rare but supported: network ends in a pool; emits decoded signs.
        im.plan.need_last_pool_out = true;
        im.plan.last_pool_out = {out.h, out.w, out.c};
      } else {
        im.plan.acts.push_back({out.h + 2 * s.out_margin, out.w + 2 * s.out_margin, out.c});
        s.out_act = static_cast<int>(im.plan.acts.size()) - 1;
      }
    } else {  // fc
      if (i == 0 || im.pending[i - 1].kind != LayerKind::kFc) {
        // First fc in the chain: its packed input row comes from flattening
        // (or, if the network starts with fc, from packing the input).
        s.flatten_input = true;
        im.plan.fc_cols.push_back(l.fc_n);
        s.in_fc = static_cast<int>(im.plan.fc_cols.size()) - 1;
      } else {
        s.in_fc = static_cast<int>(im.plan.fc_cols.size()) - 1;
      }
      if (!s.is_last) {
        im.plan.fc_cols.push_back(l.fc_k);
        s.out_fc = static_cast<int>(im.plan.fc_cols.size()) - 1;
      }
    }
    flow = info.out;
    im.stages.push_back(std::move(s));
  }
  im.plan.scores_size = flow.num_elements();
  im.pending.clear();
  im.pending.shrink_to_fit();
  if (im.cfg.auto_tune && tune_searched_any && !tune_path.empty()) {
    // Persist merged decisions so the next finalize is a pure cache walk.
    // A failed save is only a lost warm start (already counted by
    // tune.cache_io_error) — never a reason to fail finalize.
    (void)tune_cache.save(tune_path);
  }

  // Profiler metadata: interned span names, the kernel each stage will
  // actually dispatch, and the static per-image cost model each profiled
  // sample is normalized against.
  im.span_names.reserve(n_layers);
  im.kernel_names.reserve(n_layers);
  im.stage_ops.reserve(n_layers);
  im.stage_ait.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    const Stage& s = im.stages[i];
    const LayerInfo& info = im.infos[i];
    im.span_names.push_back("layer:" + info.name);
    std::string kernel;
    double ops = 0.0, ait = 0.0;
    switch (s.kind) {
      case LayerKind::kConv: {
        const double macs = static_cast<double>(info.out.h * info.out.w * info.out.c) *
                            static_cast<double>(s.conv_spec.kernel_h * s.conv_spec.kernel_w *
                                                info.in.c);
        ops = 2.0 * macs;
        if (s.full_precision) {
          kernel = "im2col_sgemm[f32]";
        } else {
          kernel = s.is_last ? "pressedconv_dot_tiled" : "pressedconv_bin_tiled";
          // Padded extents: that is the buffer the kernel actually reads
          // (and keeps the workload non-degenerate for same-padded layers).
          ait = core::analyze_binary_conv({info.in.h + 2 * info.pad, info.in.w + 2 * info.pad,
                                           info.in.c, info.out.c, s.conv_spec.kernel_h,
                                           s.conv_spec.kernel_w})
                    .ait_direct;
        }
        break;
      }
      case LayerKind::kPool:
        kernel = "binary_maxpool";
        break;
      case LayerKind::kFc: {
        const double n_in = static_cast<double>(info.in.num_elements());
        const double k_out = static_cast<double>(info.out.num_elements());
        ops = 2.0 * n_in * k_out;
        kernel = s.is_last ? "bgemm_rows_tiled" : "bgemm_binarize_rows_tiled";
        ait = core::analyze_binary_conv({1, 1, info.in.num_elements(),
                                         info.out.num_elements(), 1, 1})
                  .ait_direct;
        break;
      }
    }
    if (!s.full_precision) {
      kernel += '[';
      kernel += simd::isa_name(s.isa);
      // Surface the committed plan: ",t8" = register-tile width, ",fold" =
      // folded-window bank, ",g18" = parallel grain (omitted at the
      // pixel-level default of 1).
      kernel += ",t";
      kernel += std::to_string(info.tile);
      if (info.folded_window) kernel += ",fold";
      if (s.kind == LayerKind::kConv && s.conv_spec.par_grain > 1) {
        kernel += ",g";
        kernel += std::to_string(s.conv_spec.par_grain);
      }
      kernel += ']';
    }
    im.kernel_names.push_back(std::move(kernel));
    im.stage_ops.push_back(ops);
    im.stage_ait.push_back(ait);
  }
  im.span_stats = std::make_unique<telemetry::SpanStats[]>(n_layers + 1);
  im.perf_stats = std::make_unique<Impl::PerfStage[]>(n_layers + 1);

  im.finalized = true;
  // The default context backs the legacy batch-1 infer(); creating it here
  // preserves the "zero allocation per inference" property of that API.
  im.default_ctx = std::make_unique<InferenceContext>(make_context(1));
}

InferenceContext BinaryNetwork::make_context(std::int64_t max_batch) const {
  return make_context(max_batch, impl_->cfg.num_threads);
}

InferenceContext BinaryNetwork::make_context(std::int64_t max_batch, int num_threads) const {
  const Impl& im = *impl_;
  if (!im.finalized) throw std::logic_error("BinaryNetwork: make_context before finalize");
  if (max_batch < 1) throw std::invalid_argument("make_context: max_batch must be >= 1");
  if (num_threads < 1) throw std::invalid_argument("make_context: num_threads must be >= 1");
  return InferenceContext(
      std::make_unique<InferenceContext::Impl>(&im, max_batch, num_threads));
}

std::span<const float> BinaryNetwork::infer_batch(std::span<const Tensor* const> inputs,
                                                  InferenceContext& ctx) const {
  return infer_batch(inputs, ctx, core::CancelToken{});
}

std::span<const float> BinaryNetwork::infer_batch(std::span<const Tensor* const> inputs,
                                                  InferenceContext& ctx,
                                                  const core::CancelToken& cancel) const {
  const Impl& im = *impl_;
  InferenceContext::Impl& cx = *ctx.impl_;
  if (!im.finalized) throw std::logic_error("BinaryNetwork: infer before finalize");
  if (cx.net != &im) {
    throw std::invalid_argument("infer_batch: context belongs to a different network");
  }
  const std::int64_t n = static_cast<std::int64_t>(inputs.size());
  if (n < 1 || n > cx.max_batch) {
    throw std::invalid_argument("infer_batch: batch of " + std::to_string(n) +
                                " exceeds context max_batch " + std::to_string(cx.max_batch));
  }
  for (std::int64_t b = 0; b < n; ++b) {
    const Tensor& t = *inputs[static_cast<std::size_t>(b)];
    if (t.height() != im.input.h || t.width() != im.input.w || t.channels() != im.input.c) {
      throw std::invalid_argument("infer_batch: input " + std::to_string(b) +
                                  " extents do not match finalized network");
    }
  }
  // Profiling is armed per network (cfg.profile) or process-wide
  // (BITFLOW_PROFILE / telemetry::set_profiling); both feed the same
  // lock-free per-layer accumulators behind profile_report().  The disarmed
  // cost here is one relaxed atomic load, and each TraceSpan below adds one
  // more — the telemetry overhead budget CI enforces.
  const bool profile = im.cfg.profile || telemetry::profiling_enabled();
  cx.profile_ms.clear();
  telemetry::TraceSpan whole_span("graph.infer_batch", "graph", n);
  std::uint64_t t0 = profile ? telemetry::trace_now_ns() : 0;
  // Hardware-counter attribution rides the same stage boundaries as the
  // wall-clock profile.  When perf_event_open is unavailable (CI containers,
  // perf_event_paranoid, BITFLOW_NO_PERF) the sampler stays inactive and
  // every profile row keeps the calibrated-peak roofline (source=calibrated).
  if (profile && !cx.perf_open_attempted) {
    cx.perf_open_attempted = true;
    if (telemetry::PerfSampler::available()) {
      std::vector<int> tids = cx.pool.worker_tids();
      tids.push_back(0);  // the calling thread drives the stage loop
      (void)cx.perf.open(tids);
    }
  }
  const bool perf_on = profile && cx.perf.active();
  telemetry::PerfCounts perf_prev;
  if (perf_on) perf_prev = cx.perf.read();

  // Cooperative-cancellation checkpoints: the token rides the context's pool
  // (chunk-level skips inside parallel_for) and is polled here at every
  // layer boundary.  The serve.cancel_checkpoint failpoint shares the site
  // so the fault matrix can force a cancellation deterministically.  Inert
  // token: one null check + one relaxed load per layer.
  cx.pool.set_cancel_token(cancel);
  // The pool borrows the token only for the duration of this call: a latched
  // cancelled token left installed would make any later parallel_for on this
  // pool silently skip every chunk, so restore the inert token on every exit
  // path (normal return or throw).
  struct PoolTokenGuard {
    runtime::ThreadPool& pool;
    ~PoolTokenGuard() { pool.set_cancel_token(core::CancelToken{}); }
  } pool_token_guard{cx.pool};
  const auto checkpoint = [&cancel] {
    cancel.throw_if_cancelled();
    if (BF_FAILPOINT_TRIGGERED("serve.cancel_checkpoint")) {
      throw core::CancelledError(core::CancelReason::kCancelled);
    }
  };
  checkpoint();

  // Input stage: binarize + pack each image into its batch slot of the
  // first buffer's interior — unless the first layer is the full-precision
  // conv (consumes floats, handled per image in the stage loop) or the
  // network starts fully connected (pack straight into the fc bit rows).
  const bool starts_with_fc = im.stages.front().kind == LayerKind::kFc;
  const bool starts_full_precision = im.stages.front().full_precision;
  {
    telemetry::TraceSpan pack_span("pack_input", "graph", n);
    if (starts_full_precision) {
      // Nothing to pack: the per-image copy into f_in_padded happens in the
      // stage loop right before each image's float convolution.
    } else if (!starts_with_fc) {
      for (std::int64_t b = 0; b < n; ++b) {
        bitpack::pack_activations_into_interior(*inputs[static_cast<std::size_t>(b)],
                                                cx.acts[0][static_cast<std::size_t>(b)],
                                                im.input_margin, cx.pool);
      }
    } else {
      PackedMatrix& rows = cx.fc_bits[static_cast<std::size_t>(im.stages.front().in_fc)];
      for (std::int64_t b = 0; b < n; ++b) {
        const Tensor& t = *inputs[static_cast<std::size_t>(b)];
        bitpack::pack_row_into(t.data(), t.num_elements(), rows, b);
      }
    }
  }
  if (profile) {
    const std::uint64_t t1 = telemetry::trace_now_ns();
    cx.profile_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    im.span_stats[0].record(t1 - t0, static_cast<std::uint64_t>(n));
    t0 = t1;
    if (perf_on) {
      const telemetry::PerfCounts now = cx.perf.read();
      im.record_perf(0, now - perf_prev);
      perf_prev = now;
    }
  }

  const std::int64_t out_size = im.plan.scores_size;
  for (std::size_t i = 0; i < im.stages.size(); ++i) {
    checkpoint();  // layer boundary: abandoned batches stop within one layer
    const Stage& s = im.stages[i];
    const float* th = s.thresholds.empty() ? nullptr : s.thresholds.data();
    telemetry::TraceSpan layer_span(im.span_names[i].c_str(), "layer", n);
    telemetry::TraceSpan kernel_span(im.kernel_names[i].c_str(), "kernel", n);
    switch (s.kind) {
      case LayerKind::kConv: {
        if (s.full_precision) {
          // The float first layer shares one scratch set; images run
          // serially through it (C=3 im2col+sgemm is a tiny slice of total
          // compute, so the batch win comes from the binary layers).
          for (std::int64_t b = 0; b < n; ++b) {
            const Tensor& img = *inputs[static_cast<std::size_t>(b)];
            const std::int64_t margin = im.input_margin;
            const std::int64_t row_bytes =
                img.width() * img.channels() * static_cast<std::int64_t>(sizeof(float));
            for (std::int64_t h = 0; h < img.height(); ++h) {
              std::memcpy(cx.f_in_padded.data() + cx.f_in_padded.index(h + margin, margin, 0),
                          img.data() + img.index(h, 0, 0), static_cast<std::size_t>(row_bytes));
            }
            baseline::float_conv_im2col(cx.f_in_padded, s.float_weights_t, s.float_k,
                                        s.conv_spec, cx.pool, cx.f_dots, cx.f_cols);
            if (s.is_last) {
              std::copy(cx.f_dots.data(), cx.f_dots.data() + cx.f_dots.num_elements(),
                        cx.scores.data() + b * out_size);
            } else {
              bitpack::pack_thresholded_into_interior(
                  cx.f_dots, th, cx.acts[static_cast<std::size_t>(s.out_act)][
                                     static_cast<std::size_t>(b)],
                  s.out_margin);
            }
          }
          break;
        }
        std::vector<PackedTensor>& in = cx.acts[static_cast<std::size_t>(s.in_act)];
        for (std::int64_t b = 0; b < n; ++b) {
          cx.in_ptrs[static_cast<std::size_t>(b)] = &in[static_cast<std::size_t>(b)];
        }
        if (s.is_last) {
          for (std::int64_t b = 0; b < n; ++b) {
            cx.dot_ptrs[static_cast<std::size_t>(b)] =
                &cx.last_conv_dot[static_cast<std::size_t>(b)];
          }
          s.conv_dot(cx.in_ptrs.data(), n, s.filters, s.conv_spec, cx.pool, cx.dot_ptrs.data());
          for (std::int64_t b = 0; b < n; ++b) {
            const Tensor& dots = cx.last_conv_dot[static_cast<std::size_t>(b)];
            std::copy(dots.data(), dots.data() + dots.num_elements(),
                      cx.scores.data() + b * out_size);
          }
        } else {
          std::vector<PackedTensor>& out = cx.acts[static_cast<std::size_t>(s.out_act)];
          for (std::int64_t b = 0; b < n; ++b) {
            cx.out_ptrs[static_cast<std::size_t>(b)] = &out[static_cast<std::size_t>(b)];
          }
          s.conv_bin(cx.in_ptrs.data(), n, s.filters, s.conv_spec, th, cx.pool,
                     cx.out_ptrs.data(), s.out_margin);
        }
        break;
      }
      case LayerKind::kPool: {
        std::vector<PackedTensor>& in = cx.acts[static_cast<std::size_t>(s.in_act)];
        if (s.is_last) {
          for (std::int64_t b = 0; b < n; ++b) {
            PackedTensor& out = cx.last_pool_out[static_cast<std::size_t>(b)];
            kernels::binary_maxpool(in[static_cast<std::size_t>(b)], s.pool_spec, s.isa,
                                    cx.pool, out, 0);
            const Tensor signs = bitpack::unpack_to_signs(out);
            std::copy(signs.data(), signs.data() + signs.num_elements(),
                      cx.scores.data() + b * out_size);
          }
        } else {
          std::vector<PackedTensor>& out = cx.acts[static_cast<std::size_t>(s.out_act)];
          for (std::int64_t b = 0; b < n; ++b) {
            kernels::binary_maxpool(in[static_cast<std::size_t>(b)], s.pool_spec, s.isa,
                                    cx.pool, out[static_cast<std::size_t>(b)], s.out_margin);
          }
        }
        break;
      }
      case LayerKind::kFc: {
        PackedMatrix& in = cx.fc_bits[static_cast<std::size_t>(s.in_fc)];
        if (s.flatten_input && !starts_with_fc) {
          // The producing conv/pool stage wrote margin-0 buffers; flatten
          // each image into its own row of the batch matrix.
          std::vector<PackedTensor>& prev = cx.acts.back();
          for (std::int64_t b = 0; b < n; ++b) {
            bitpack::flatten_packed_row(prev[static_cast<std::size_t>(b)], in, b);
          }
        }
        if (s.is_last) {
          s.fc_dot(in, n, s.fc_weights, cx.pool, cx.scores.data());
        } else {
          s.fc_bin(in, n, s.fc_weights, th, cx.pool,
                   cx.fc_bits[static_cast<std::size_t>(s.out_fc)]);
        }
        break;
      }
    }
    if (profile) {
      const std::uint64_t t1 = telemetry::trace_now_ns();
      cx.profile_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      im.span_stats[i + 1].record(t1 - t0, static_cast<std::uint64_t>(n));
      t0 = t1;
      if (perf_on) {
        const telemetry::PerfCounts now = cx.perf.read();
        im.record_perf(i + 1, now - perf_prev);
        perf_prev = now;
      }
    }
  }
  // Final checkpoint: a token that fired during the last stage's parallel_for
  // made the pool skip chunks, leaving cx.scores unwritten (or stale from a
  // previous batch).  Re-checking here upholds cancel.hpp's "partial results
  // never escape" — the scores span is returned only by a run no checkpoint
  // interrupted.
  checkpoint();
  return {cx.scores.data(), static_cast<std::size_t>(n * out_size)};
}

std::span<const float> BinaryNetwork::infer(const Tensor& input_hwc) {
  Impl& im = *impl_;
  if (!im.finalized) throw std::logic_error("BinaryNetwork: infer before finalize");
  const Tensor* input = &input_hwc;
  return infer_batch({&input, 1}, *im.default_ctx);
}

bool BinaryNetwork::finalized() const noexcept { return impl_->finalized; }
const std::vector<LayerInfo>& BinaryNetwork::layers() const { return impl_->infos; }
TensorDesc BinaryNetwork::input_desc() const { return impl_->input; }
std::int64_t BinaryNetwork::output_size() const {
  return impl_->finalized ? impl_->plan.scores_size : 0;
}
int BinaryNetwork::num_threads() const noexcept { return impl_->cfg.num_threads; }
std::int64_t BinaryNetwork::packed_weight_bytes() const { return impl_->weight_bytes; }
const std::vector<double>& BinaryNetwork::last_profile_ms() const {
  return impl_->default_ctx ? impl_->default_ctx->last_profile_ms() : impl_->no_profile;
}

ProfileReport BinaryNetwork::profile_report() const {
  const Impl& im = *impl_;
  if (!im.finalized) throw std::logic_error("BinaryNetwork: profile_report before finalize");
  ProfileReport rep;
  rep.rows.reserve(im.stages.size() + 1);
  for (std::size_t i = 0; i < im.stages.size() + 1; ++i) {
    LayerProfile row;
    if (i == 0) {
      row.name = "pack_input";
      row.kernel = "bitpack";
    } else {
      row.name = im.infos[i - 1].name;
      row.kernel = im.kernel_names[i - 1];
      row.ait = im.stage_ait[i - 1];
    }
    const telemetry::SpanStats::View v = im.span_stats[i].view();
    row.calls = v.count;
    row.images = v.units;
    row.mean_ms = v.mean_ns() / 1e6;
    row.p50_ms = static_cast<double>(v.p50_ns) / 1e6;
    row.p99_ms = static_cast<double>(v.p99_ns) / 1e6;
    row.min_ms = static_cast<double>(v.min_ns) / 1e6;
    if (i > 0 && v.total_ns > 0 && im.stage_ops[i - 1] > 0.0) {
      // ops/ns == GOPS; normalized per image so fused batches don't inflate.
      row.gops = im.stage_ops[i - 1] * static_cast<double>(v.units) /
                 static_cast<double>(v.total_ns);
      // The roof only applies to layers running the binary primitive.
      if (im.stage_ait[i - 1] > 0.0) {
        row.roof_gops = telemetry::roofline_peak_gops(im.stages[i - 1].isa);
      }
    }
    // Measured hardware-counter attribution, when the sampler ran for this
    // stage; otherwise the row keeps perf_source = "calibrated" and the
    // calibrated-peak roofline above is the only evidence.
    const Impl::PerfStage& p = im.perf_stats[i];
    // Ordering contract: relaxed — see PerfStage declaration.
    if (p.samples.load(std::memory_order_relaxed) > 0) {
      const std::uint64_t cyc = p.cycles.load(std::memory_order_relaxed);
      const std::uint64_t ins = p.instructions.load(std::memory_order_relaxed);
      const std::uint64_t miss = p.llc_misses.load(std::memory_order_relaxed);
      if (cyc > 0) row.ipc = static_cast<double>(ins) / static_cast<double>(cyc);
      if (ins > 0) {
        row.llc_mpki = static_cast<double>(miss) * 1000.0 / static_cast<double>(ins);
      }
      row.perf_source = "measured";
    }
    rep.rows.push_back(std::move(row));
  }
  return rep;
}

void BinaryNetwork::reset_profile() {
  Impl& im = *impl_;
  if (!im.finalized) return;
  for (std::size_t i = 0; i < im.stages.size() + 1; ++i) {
    im.span_stats[i].reset();
    Impl::PerfStage& p = im.perf_stats[i];
    // Ordering contract: relaxed — see PerfStage declaration.
    p.cycles.store(0, std::memory_order_relaxed);
    p.instructions.store(0, std::memory_order_relaxed);
    p.llc_misses.store(0, std::memory_order_relaxed);
    p.samples.store(0, std::memory_order_relaxed);
  }
}

std::string ProfileReport::to_table() const {
  std::string out;
  char line[224];
  std::snprintf(line, sizeof line,
                "%-14s %-30s %7s %7s %9s %9s %9s %8s %14s %6s %5s %7s %10s\n", "layer",
                "kernel", "calls", "images", "mean_ms", "p50_ms", "p99_ms", "gops",
                "roof(gops)", "ait", "ipc", "mpki", "src");
  out += line;
  out.append(143, '-');
  out += '\n';
  for (const LayerProfile& r : rows) {
    char roof[24] = "n/a";
    char ait_s[16] = "n/a";
    char ipc_s[16] = "n/a";
    char mpki_s[16] = "n/a";
    if (r.roof_gops > 0.0) {
      std::snprintf(roof, sizeof roof, "%6.1f (%3.0f%%)", r.roof_gops,
                    100.0 * r.gops / r.roof_gops);
    }
    if (r.ait > 0.0) std::snprintf(ait_s, sizeof ait_s, "%.1f", r.ait);
    if (r.perf_source == "measured") {
      std::snprintf(ipc_s, sizeof ipc_s, "%.2f", r.ipc);
      std::snprintf(mpki_s, sizeof mpki_s, "%.2f", r.llc_mpki);
    }
    std::snprintf(line, sizeof line,
                  "%-14s %-30s %7llu %7llu %9.4f %9.4f %9.4f %8.1f %14s %6s %5s %7s %10s\n",
                  r.name.c_str(), r.kernel.c_str(),
                  static_cast<unsigned long long>(r.calls),
                  static_cast<unsigned long long>(r.images), r.mean_ms, r.p50_ms, r.p99_ms,
                  r.gops, roof, ait_s, ipc_s, mpki_s, r.perf_source.c_str());
    out += line;
  }
  return out;
}

}  // namespace bitflow::graph
