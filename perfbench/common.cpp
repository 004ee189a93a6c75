#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bitpack/packer.hpp"
#include "simd/cpu_features.hpp"
#include "telemetry/perf_counters.hpp"

namespace perfbench {

// --- quantiles ---------------------------------------------------------------

namespace {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.50);
  s.p90 = quantile_sorted(samples, 0.90);
  s.p99 = quantile_sorted(samples, 0.99);
  s.min = samples.front();
  s.max = samples.back();
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(s.n)));
    if (rank >= 1 && s.n - rank >= 10) {
      s.top_pct = pct;
      s.top = samples[rank - 1];
      break;
    }
  }
  return s;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

// --- spans -------------------------------------------------------------------

std::uint64_t SpanRecorder::add(std::string name, std::string detail, std::uint64_t parent,
                                std::uint64_t trace, std::int64_t start_ns,
                                std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, trace, std::move(name), std::move(detail), start_ns, end_ns});
  return id;
}

std::uint64_t SpanRecorder::open(std::string name, std::string detail, std::uint64_t parent,
                                 std::uint64_t trace, std::int64_t start_ns) {
  return add(std::move(name), std::move(detail), parent, trace, start_ns, start_ns);
}

void SpanRecorder::finish(std::uint64_t id, std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = end_ns;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os << "{\"fields\":[\"id\",\"parent\",\"trace\",\"name\",\"detail\",\"start_ns\",\"end_ns\"],"
        "\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << '[' << s.id << ',' << s.parent << ',' << s.trace << ",\""
       << json_escape(s.name) << "\",\"" << json_escape(s.detail) << "\"," << s.start_ns << ','
       << s.end_ns << ']';
  }
  os << "\n]}\n";
  return static_cast<bool>(os.flush());
}

// --- JSON --------------------------------------------------------------------

Json& Json::num(const std::string& key, double v) {
  fields_.emplace_back(key, number(v));
  return *this;
}
Json& Json::integer(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}
Json& Json::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, "\"" + json_escape(v) + "\"");
  return *this;
}
Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}
Json& Json::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}
std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ',';
    out += '"' + json_escape(fields_[i].first) + "\":" + fields_[i].second;
  }
  return out + '}';
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + ']';
}

std::string json_numbers(const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (double x : v) items.push_back(number(x));
  return json_array(items);
}

Json summary_json(const Summary& s) {
  Json j;
  j.integer("n", static_cast<std::int64_t>(s.n))
      .num("p50", s.p50)
      .num("p90", s.p90)
      .num("p99", s.p99)
      .num("min", s.min)
      .num("max", s.max)
      .num("mean", s.mean)
      .num("top_pct", s.top_pct)
      .num("top", s.top);
  return j;
}

// --- seeded generation -------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

float Rng::uniform() {
  // 24 random mantissa bits -> [0, 1), then [-1, 1).
  return static_cast<float>(next() >> 40) * (2.0f / 16777216.0f) - 1.0f;
}

void Rng::fill(float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = uniform();
}

ModelDef make_vgg16(std::uint64_t seed) {
  ModelDef def;
  def.input = graph::TensorDesc{224, 224, 3};
  Rng rng(seed * 0x100000001b3ULL + 1);
  const std::vector<std::vector<std::int64_t>> blocks = {
      {64, 64}, {128, 128}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512}};
  std::int64_t c = 3, hw = 224;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t i = 0; i < blocks[b].size(); ++i) {
      LayerDef l;
      l.kind = graph::LayerKind::kConv;
      l.name = "conv" + std::to_string(b + 1) + "." + std::to_string(i + 1);
      l.conv = FilterBank(blocks[b][i], 3, 3, c);
      rng.fill(l.conv.data(), static_cast<std::size_t>(l.conv.num_elements()));
      def.layers.push_back(std::move(l));
      c = blocks[b][i];
    }
    LayerDef p;
    p.kind = graph::LayerKind::kPool;
    p.name = "pool" + std::to_string(b + 1);
    p.pool = kernels::PoolSpec{2, 2, 2};
    def.layers.push_back(std::move(p));
    hw /= 2;
  }
  std::int64_t n = hw * hw * c;
  for (const std::int64_t k : {4096, 4096, 1000}) {
    LayerDef f;
    f.kind = graph::LayerKind::kFc;
    f.name = "fc" + std::to_string(def.layers.size() - 12);  // fc6, fc7, fc8
    f.fc.resize(static_cast<std::size_t>(n * k));
    rng.fill(f.fc.data(), f.fc.size());
    f.fc_n = n;
    f.fc_k = k;
    def.layers.push_back(std::move(f));
    n = k;
  }
  return def;
}

ModelDef make_serve_model(std::uint64_t seed) {
  ModelDef def;
  def.input = graph::TensorDesc{16, 16, 64};
  Rng rng(seed * 0x100000001b3ULL + 2);
  LayerDef c;
  c.kind = graph::LayerKind::kConv;
  c.name = "c1";
  c.conv = FilterBank(64, 3, 3, 64);
  rng.fill(c.conv.data(), static_cast<std::size_t>(c.conv.num_elements()));
  def.layers.push_back(std::move(c));
  LayerDef p;
  p.kind = graph::LayerKind::kPool;
  p.name = "p1";
  p.pool = kernels::PoolSpec{2, 2, 2};
  def.layers.push_back(std::move(p));
  LayerDef f;
  f.kind = graph::LayerKind::kFc;
  f.name = "f1";
  f.fc_n = 8 * 8 * 64;
  f.fc_k = 10;
  f.fc.resize(static_cast<std::size_t>(f.fc_n * f.fc_k));
  rng.fill(f.fc.data(), f.fc.size());
  def.layers.push_back(std::move(f));
  return def;
}

void add_layers(ModelDef& def, graph::BinaryNetwork& net) {
  for (LayerDef& l : def.layers) {
    switch (l.kind) {
      case graph::LayerKind::kConv:
        net.add_conv(l.name, std::move(l.conv), l.stride, l.pad);
        break;
      case graph::LayerKind::kPool:
        net.add_maxpool(l.name, l.pool);
        break;
      case graph::LayerKind::kFc:
        net.add_fc(l.name, std::move(l.fc), l.fc_n, l.fc_k);
        break;
    }
  }
}

io::Model to_io_model(const ModelDef& def) {
  io::Model m(def.input);
  for (const LayerDef& l : def.layers) {
    switch (l.kind) {
      case graph::LayerKind::kConv:
        m.add_conv(l.name, bitpack::pack_filters(l.conv), l.stride, l.pad);
        break;
      case graph::LayerKind::kPool:
        m.add_maxpool(l.name, l.pool);
        break;
      case graph::LayerKind::kFc:
        m.add_fc(l.name, bitpack::pack_transpose_fc_weights(l.fc.data(), l.fc_n, l.fc_k));
        break;
    }
  }
  return m;
}

std::vector<Tensor> make_inputs(graph::TensorDesc d, int count, std::uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 3);
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Tensor t = Tensor::hwc(d.h, d.w, d.c);
    rng.fill(t.data(), static_cast<std::size_t>(t.num_elements()));
    out.push_back(std::move(t));
  }
  return out;
}

// --- host and plan -------------------------------------------------------------

Json host_json() {
  const simd::CpuFeatures& f = simd::cpu_features();
  std::vector<std::string> isas;
  for (simd::IsaLevel l : {simd::IsaLevel::kU64, simd::IsaLevel::kSse, simd::IsaLevel::kAvx2,
                           simd::IsaLevel::kAvx512}) {
    if (f.supports(l)) isas.push_back("\"" + std::string(simd::isa_name(l)) + "\"");
  }
  Json j;
  j.raw("isa_levels", json_array(isas))
      .boolean("avx512vpopcntdq", f.avx512vpopcntdq)
      .integer("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .boolean("perf_counters", telemetry::PerfSampler::available());
  return j;
}

std::string plan_json(const std::vector<graph::LayerInfo>& layers) {
  std::vector<std::string> rows;
  for (const graph::LayerInfo& l : layers) {
    Json j;
    j.str("layer", l.name)
        .str("kind", graph::layer_kind_name(l.kind))
        .str("isa", std::string(simd::isa_name(l.isa)))
        .integer("tile", l.tile)
        .integer("grain", l.par_grain)
        .str("tune_source", l.tune_source)
        .str("layout", kernels::weight_layout_name(l.layout));
    rows.push_back(j.dump());
  }
  return json_array(rows);
}

std::string metric_name(const std::string& layer) {
  std::string out = layer;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // 5 = reset the peak RSS to the current RSS
  f.flush();
  if (!f) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

double peak_rss_mb(int pid) {
  const std::string status =
      "/proc/" + (pid > 0 ? std::to_string(pid) : std::string("self")) + "/status";
  std::ifstream f(status);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM line in " + status);
}

// --- replay ------------------------------------------------------------------------

struct Replay::Stage {
  graph::LayerInfo info;
  bool last = false;
  bool tiled = false;
  bool vpopcnt = false;
  std::string kernel;       // public entry point the stage calls
  std::string span_name;    // "kernels.<entry point>"
  std::string span_detail;  // "<layer> <isa> t<tile> g<grain>"
  // conv
  kernels::ConvSpec spec;
  PackedFilterBank filters;
  TiledFilterBank filters_tiled;
  kernels::ConvBinarizeBatchFn conv_bin = nullptr;
  kernels::ConvBinarizeTiledBatchFn conv_bin_tiled = nullptr;
  // pool
  kernels::PoolSpec pool;
  // fc
  PackedMatrix fc;
  TiledBitMatrix fc_tiled;
  kernels::BgemmBinarizeRowsFn fc_bin = nullptr;
  kernels::BgemmRowsFn fc_dot = nullptr;
  kernels::BgemmBinarizeRowsTiledFn fc_bin_tiled = nullptr;
  kernels::BgemmRowsTiledFn fc_dot_tiled = nullptr;
  // buffer routing
  int in_act = -1, out_act = -1, in_fc = -1, out_fc = -1;
  std::int64_t out_margin = 0;
  bool flatten_input = false;
  std::vector<const PackedTensor*> in_ptrs;
  std::vector<PackedTensor*> out_ptrs;
};

Replay::Replay(const ModelDef& def, const std::vector<graph::LayerInfo>& plan,
               std::int64_t batch, int threads)
    : pool_(std::make_unique<runtime::ThreadPool>(threads)), batch_(batch) {
  if (plan.size() != def.layers.size()) throw std::invalid_argument("replay: plan size");
  if (def.layers.back().kind != graph::LayerKind::kFc) {
    throw std::invalid_argument("replay: the last layer must be fully connected");
  }
  const simd::CpuFeatures& hw = simd::cpu_features();
  const std::size_t n = def.layers.size();
  auto consumer_pad = [&](std::size_t i) -> std::int64_t {
    return (i < n && def.layers[i].kind == graph::LayerKind::kConv) ? def.layers[i].pad : 0;
  };
  input_margin_ = consumer_pad(0);
  auto add_act = [&](std::int64_t h, std::int64_t w, std::int64_t c) {
    std::vector<PackedTensor>& per_image = acts_.emplace_back();
    for (std::int64_t b = 0; b < batch; ++b) per_image.emplace_back(h, w, c);
    return static_cast<int>(acts_.size()) - 1;
  };
  add_act(def.input.h + 2 * input_margin_, def.input.w + 2 * input_margin_, def.input.c);

  double pack_ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const LayerDef& l = def.layers[i];
    auto s = std::make_unique<Stage>();
    s->info = plan[i];
    s->last = (i + 1 == n);
    s->tiled = s->info.tile > 0;
    s->vpopcnt = s->info.isa == simd::IsaLevel::kAvx512 && hw.avx512vpopcntdq;
    const std::int64_t t0 = now_ns();
    switch (l.kind) {
      case graph::LayerKind::kConv: {
        s->spec = kernels::ConvSpec{l.conv.kernel_h(), l.conv.kernel_w(), l.stride,
                                    s->info.par_grain};
        PackedFilterBank bank = bitpack::pack_filters(l.conv);
        if (s->tiled) {
          s->filters_tiled = bitpack::tile_filters(bank, s->info.tile);
          s->conv_bin_tiled =
              kernels::conv_binarize_tiled_batch_kernel(s->info.isa, s->vpopcnt, s->info.tile);
          s->kernel = "conv_binarize_tiled_batch_kernel";
        } else {
          s->filters = std::move(bank);
          s->conv_bin = kernels::conv_binarize_batch_kernel(s->info.isa, s->vpopcnt);
          s->kernel = "conv_binarize_batch_kernel";
        }
        const graph::TensorDesc& o = s->info.out;
        ops_.push_back(2.0 * static_cast<double>(o.h * o.w * o.c) *
                       static_cast<double>(s->spec.kernel_h * s->spec.kernel_w * s->info.in.c));
        break;
      }
      case graph::LayerKind::kPool:
        s->pool = l.pool;
        s->kernel = "binary_maxpool";
        ops_.push_back(0.0);
        break;
      case graph::LayerKind::kFc: {
        PackedMatrix w = bitpack::pack_transpose_fc_weights(l.fc.data(), l.fc_n, l.fc_k);
        if (s->tiled) {
          s->fc_tiled = bitpack::tile_fc_weights(w, s->info.tile);
          s->fc_bin_tiled =
              kernels::bgemm_binarize_rows_tiled_kernel(s->info.isa, s->vpopcnt, s->info.tile);
          s->fc_dot_tiled = kernels::bgemm_rows_tiled_kernel(s->info.isa, s->vpopcnt, s->info.tile);
          s->kernel = s->last ? "bgemm_rows_tiled_kernel" : "bgemm_binarize_rows_tiled_kernel";
        } else {
          s->fc = std::move(w);
          s->fc_bin = kernels::bgemm_binarize_rows_kernel(s->info.isa, s->vpopcnt);
          s->fc_dot = kernels::bgemm_rows_kernel(s->info.isa, s->vpopcnt);
          s->kernel = s->last ? "bgemm_rows_kernel" : "bgemm_binarize_rows_kernel";
        }
        ops_.push_back(2.0 * static_cast<double>(l.fc_n) * static_cast<double>(l.fc_k));
        break;
      }
    }
    pack_ns += static_cast<double>(now_ns() - t0);
    s->span_name = "kernels." + s->kernel;
    s->span_detail = l.name + " " + std::string(simd::isa_name(s->info.isa)) + " t" +
                     std::to_string(s->info.tile) + " g" + std::to_string(s->info.par_grain);

    // Buffer routing, mirroring the network's memory plan: every conv/pool
    // output carries the next conv's padding margin.
    if (l.kind == graph::LayerKind::kConv || l.kind == graph::LayerKind::kPool) {
      s->in_act = static_cast<int>(acts_.size()) - 1;
      s->out_margin = consumer_pad(i + 1);
      const graph::TensorDesc& o = s->info.out;
      s->out_act = add_act(o.h + 2 * s->out_margin, o.w + 2 * s->out_margin, o.c);
    } else {
      if (i == 0 || def.layers[i - 1].kind != graph::LayerKind::kFc) {
        s->flatten_input = true;
        fc_rows_.emplace_back(batch, l.fc_n);
      }
      s->in_fc = static_cast<int>(fc_rows_.size()) - 1;
      if (!s->last) {
        fc_rows_.emplace_back(batch, l.fc_k);
        s->out_fc = static_cast<int>(fc_rows_.size()) - 1;
      }
    }
    s->in_ptrs.resize(static_cast<std::size_t>(batch));
    s->out_ptrs.resize(static_cast<std::size_t>(batch));
    names_.push_back(l.name);
    stages_.push_back(std::move(s));
  }
  scores_.resize(static_cast<std::size_t>(batch * def.layers.back().fc_k));
  pack_weights_s_ = pack_ns / 1e9;
  last_ms_.assign(n + 1, 0.0);
}

Replay::~Replay() = default;

const std::vector<float>& Replay::run(const std::vector<const Tensor*>& inputs,
                                      SpanRecorder* rec, std::uint64_t trace) {
  const std::int64_t n = static_cast<std::int64_t>(inputs.size());
  if (n < 1 || n > batch_) throw std::invalid_argument("replay: batch size");
  runtime::ThreadPool& pool = *pool_;
  const std::uint64_t root = rec ? rec->open("replay", "", 0, trace, now_ns()) : 0;

  std::int64_t t0 = now_ns();
  for (std::int64_t b = 0; b < n; ++b) {
    const std::int64_t s0 = now_ns();
    bitpack::pack_activations_into_interior(*inputs[static_cast<std::size_t>(b)],
                                            acts_[0][static_cast<std::size_t>(b)], input_margin_,
                                            pool);
    if (rec) {
      rec->add("bitpack.pack_activations_into_interior", "image " + std::to_string(b), root,
               trace, s0, now_ns());
    }
  }
  std::int64_t t1 = now_ns();
  last_ms_[0] = static_cast<double>(t1 - t0) / 1e6;

  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& s = *stages_[i];
    const auto idx = [](std::int64_t b) { return static_cast<std::size_t>(b); };
    if (s.flatten_input) {
      // The conv/pool -> fc transition is glue, not kernel work: it is timed
      // as its own span and stays out of the layer's kernel time.
      const std::int64_t f0 = now_ns();
      for (std::int64_t b = 0; b < n; ++b) {
        bitpack::flatten_packed_row(acts_.back()[idx(b)], fc_rows_[static_cast<std::size_t>(s.in_fc)],
                                    b);
      }
      if (rec) rec->add("bitpack.flatten_packed_row", s.info.name, root, trace, f0, now_ns());
    }
    t0 = now_ns();
    switch (s.info.kind) {
      case graph::LayerKind::kConv: {
        for (std::int64_t b = 0; b < n; ++b) {
          s.in_ptrs[idx(b)] = &acts_[static_cast<std::size_t>(s.in_act)][idx(b)];
          s.out_ptrs[idx(b)] = &acts_[static_cast<std::size_t>(s.out_act)][idx(b)];
        }
        if (s.tiled) {
          s.conv_bin_tiled(s.in_ptrs.data(), n, s.filters_tiled, s.spec, nullptr, pool,
                           s.out_ptrs.data(), s.out_margin);
        } else {
          s.conv_bin(s.in_ptrs.data(), n, s.filters, s.spec, nullptr, pool, s.out_ptrs.data(),
                     s.out_margin);
        }
        break;
      }
      case graph::LayerKind::kPool:
        for (std::int64_t b = 0; b < n; ++b) {
          kernels::binary_maxpool(acts_[static_cast<std::size_t>(s.in_act)][idx(b)], s.pool,
                                  s.info.isa, pool,
                                  acts_[static_cast<std::size_t>(s.out_act)][idx(b)],
                                  s.out_margin);
        }
        break;
      case graph::LayerKind::kFc: {
        PackedMatrix& in = fc_rows_[static_cast<std::size_t>(s.in_fc)];
        if (s.last) {
          if (s.tiled) {
            s.fc_dot_tiled(in, n, s.fc_tiled, pool, scores_.data());
          } else {
            s.fc_dot(in, n, s.fc, pool, scores_.data());
          }
        } else if (s.tiled) {
          s.fc_bin_tiled(in, n, s.fc_tiled, nullptr, pool,
                         fc_rows_[static_cast<std::size_t>(s.out_fc)]);
        } else {
          s.fc_bin(in, n, s.fc, nullptr, pool, fc_rows_[static_cast<std::size_t>(s.out_fc)]);
        }
        break;
      }
    }
    t1 = now_ns();
    last_ms_[i + 1] = static_cast<double>(t1 - t0) / 1e6;
    if (rec) rec->add(s.span_name, s.span_detail, root, trace, t0, t1);
  }
  if (rec) rec->finish(root, now_ns());
  return scores_;
}

double forkjoin_us(int threads, SpanRecorder& rec, std::uint64_t trace) {
  runtime::ThreadPool pool(threads);
  const std::function<void(runtime::Range, int)> empty = [](runtime::Range, int) {};
  for (int i = 0; i < 200; ++i) pool.parallel_for(threads, empty);  // warm-up
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    pool.parallel_for(threads, empty);
    const std::int64_t t1 = now_ns();
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (i < 100) rec.add("runtime.ThreadPool::parallel_for", "empty body", 0, trace, t0, t1);
  }
  return median(us);
}

ReplayStats replay_for(Replay& rp, const std::vector<std::vector<const Tensor*>>& batches,
                       const std::vector<std::vector<float>>& ref, double seconds,
                       const std::function<std::span<const float>(std::size_t)>& infer,
                       SpanRecorder& rec, std::uint64_t& trace_id) {
  ReplayStats st;
  const std::size_t n_layers = rp.layer_names().size();
  std::vector<std::vector<double>> layer_ms(n_layers + 1);
  std::vector<double> infer_ms, traced, untraced;
  (void)rp.run(batches[0], nullptr, 0);  // warm-up
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t it = 0; now_ns() < end || it < 9; ++it) {
    const std::size_t b = (it / 3) % batches.size();
    const int kind = static_cast<int>(it % 3);  // 0 infer_batch, 1 untraced, 2 traced replay
    const std::int64_t t0 = now_ns();
    std::span<const float> out;
    if (kind == 0) {
      out = infer(b);
    } else {
      const std::vector<float>& scores = rp.run(batches[b], kind == 2 ? &rec : nullptr,
                                                kind == 2 ? ++trace_id : 0);
      out = std::span<const float>(scores.data(), ref[b].size());
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    (kind == 0 ? infer_ms : kind == 1 ? untraced : traced).push_back(ms);
    if (out.size() != ref[b].size() ||
        std::memcmp(out.data(), ref[b].data(), ref[b].size() * sizeof(float)) != 0) {
      ++st.mismatched;
    }
    if (kind != 0) {
      for (std::size_t i = 0; i <= n_layers; ++i) layer_ms[i].push_back(rp.last_ms()[i]);
    }
    ++st.iterations;
  }
  st.pack_input_ms = median(layer_ms[0]);
  st.layers_ms = st.pack_input_ms;
  const double images = static_cast<double>(batches[0].size());
  for (std::size_t i = 0; i < n_layers; ++i) {
    const double ms = median(layer_ms[i + 1]);
    st.layers_ms += ms;
    const std::string m = metric_name(rp.layer_names()[i]);
    st.kernels.num(m + ".ms", ms);
    if (rp.layer_ops()[i] > 0.0) {
      st.kernels.num(m + ".gops", rp.layer_ops()[i] * images / (ms * 1e-3) / 1e9);
    }
  }
  st.infer_ms = median(infer_ms);
  st.traced_ms = median(traced);
  st.untraced_ms = median(untraced);
  return st;
}

}  // namespace perfbench
