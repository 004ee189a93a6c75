// Shared pieces of the repository benchmark: clocks, quantiles from raw
// samples, a span recorder, seeded model/input generation, a layer-by-layer
// replay of a finalized network through the kernels' public entry points,
// and a small JSON writer.  Everything here calls the library only through
// its public headers; nothing in src/ is modified or instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "io/model.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/pressedconv.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using namespace bitflow;  // the benchmark only ever talks to this library
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- quantiles ---------------------------------------------------------------

/// Summary of raw samples.  Quantiles use the nearest-rank definition on the
/// sorted samples; `top_pct` is the highest of {99.9, 99, 95, 90, 75, 50}
/// that has at least ten samples strictly above its rank (0 when even the
/// median has fewer), and `top` is the value at that percentile.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, min = 0.0, max = 0.0, mean = 0.0;
  double top_pct = 0.0, top = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);
/// Nearest-rank quantile `q` (0..1] of `samples`.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

// --- spans -------------------------------------------------------------------

/// One recorded interval.  `parent` is the id of the enclosing span (0 =
/// root); spans of one request or one replayed inference share `trace`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::string name;
  std::string detail;  ///< layer / plan / rate annotation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Keeps spans in memory (thread-safe) and writes them out once at the end.
class SpanRecorder {
 public:
  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, std::string detail, std::uint64_t parent,
                    std::uint64_t trace, std::int64_t start_ns, std::int64_t end_ns);
  /// Reserves an id for a span whose end is not known yet (the parent of
  /// spans recorded before it finishes); complete it with finish().
  std::uint64_t open(std::string name, std::string detail, std::uint64_t parent,
                     std::uint64_t trace, std::int64_t start_ns);
  void finish(std::uint64_t id, std::int64_t end_ns);
  /// Writes {"spans":[...]} to `path`; returns false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- JSON --------------------------------------------------------------------

/// Minimal JSON object writer (insertion-ordered keys, numbers printed with
/// full precision).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.dump()); }
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};
[[nodiscard]] std::string json_array(const std::vector<std::string>& items);
[[nodiscard]] std::string json_numbers(const std::vector<double>& v);
[[nodiscard]] Json summary_json(const Summary& s);

// --- seeded generation -------------------------------------------------------

/// splitmix64 stream: the only source of randomness in the benchmark.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [-1, 1).
  float uniform();
  void fill(float* p, std::size_t n);

 private:
  std::uint64_t state_;
};

/// One layer of a linear binary network, with its float weights.
struct LayerDef {
  graph::LayerKind kind = graph::LayerKind::kConv;
  std::string name;
  FilterBank conv;              ///< conv weights (K x 3 x 3 x C)
  std::int64_t stride = 1, pad = 1;
  kernels::PoolSpec pool{};
  std::vector<float> fc;        ///< fc weights, row-major n x k
  std::int64_t fc_n = 0, fc_k = 0;
};

/// A linear binary network (no thresholds: every layer binarizes at zero).
struct ModelDef {
  graph::TensorDesc input{};
  std::vector<LayerDef> layers;
};

/// VGG-16 at 224x224x3 (13 conv, 5 pool, fc6..fc8) with weights from `seed`.
[[nodiscard]] ModelDef make_vgg16(std::uint64_t seed);
/// The serving model: 16x16x64 input, conv c1 (64, 3x3, pad 1), pool p1
/// (2x2/2), fc f1 (4096 -> 10), weights from `seed`.
[[nodiscard]] ModelDef make_serve_model(std::uint64_t seed);
/// Appends `def`'s layers to `net`, moving the float weights out of `def`.
void add_layers(ModelDef& def, graph::BinaryNetwork& net);
/// Packs `def` into an io::Model (the serving tier's input format).
[[nodiscard]] io::Model to_io_model(const ModelDef& def);
/// `count` HWC input tensors of extents `d`, seeded.
[[nodiscard]] std::vector<Tensor> make_inputs(graph::TensorDesc d, int count,
                                              std::uint64_t seed);

// --- host and plan description ------------------------------------------------

/// ISA levels, nproc, perf-counter availability.
[[nodiscard]] Json host_json();
/// Per-layer plan from BinaryNetwork::layers(): kind, ISA, tile, grain,
/// tune_source, layout.
[[nodiscard]] std::string plan_json(const std::vector<graph::LayerInfo>& layers);
/// Metric-safe layer name: "conv1.1" -> "conv1_1".
[[nodiscard]] std::string metric_name(const std::string& layer);
/// Releases freed heap pages to the OS and resets the kernel's resident-set
/// high-water mark (VmHWM) to the current RSS, so that peak_rss_mb() covers
/// only what runs after this call.  Throws when /proc/self/clear_refs cannot
/// be written.
void reset_peak_rss();
/// VmHWM in MiB of process `pid` (0 = this process): the peak resident set
/// since the process's last reset_peak_rss() (or since start).
[[nodiscard]] double peak_rss_mb(int pid = 0);

// --- layer-by-layer replay ------------------------------------------------------

/// Re-executes one inference of a finalized linear binary network (binary
/// conv / pool layers, then fully connected ones) stage by stage through the
/// kernels' public entry points: bitpack input packing, the tiled or
/// filter-major conv and bgemm kernels, binary_maxpool.  It uses exactly the
/// plan BinaryNetwork::layers() reports and records one span per call.
class Replay {
 public:
  /// Packs (and tiles, per the plan) `def`'s weights; the packing wall time
  /// is available as pack_weights_s().  `def` keeps its float weights.
  Replay(const ModelDef& def, const std::vector<graph::LayerInfo>& plan,
         std::int64_t batch, int threads);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Runs inputs[0..n) through every stage, recording spans under a root
  /// span named "replay" with trace id `trace` (when `rec` is non-null), and
  /// returns the concatenated scores.
  const std::vector<float>& run(const std::vector<const Tensor*>& inputs, SpanRecorder* rec,
                                std::uint64_t trace);

  [[nodiscard]] double pack_weights_s() const noexcept { return pack_weights_s_; }
  /// Layer names, in stage order.
  [[nodiscard]] const std::vector<std::string>& layer_names() const noexcept {
    return names_;
  }
  /// Binary ops (2 per MAC) per image of stage i; 0 for pools.
  [[nodiscard]] const std::vector<double>& layer_ops() const noexcept { return ops_; }
  /// Durations (ms) of the last run(): [0] = input pack, [i + 1] = stage i.
  [[nodiscard]] const std::vector<double>& last_ms() const noexcept { return last_ms_; }

 private:
  struct Stage;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::int64_t batch_ = 1;
  std::int64_t input_margin_ = 0;
  std::vector<std::vector<PackedTensor>> acts_;  // [buffer][image]
  std::vector<PackedMatrix> fc_rows_;
  std::vector<float> scores_;
  std::vector<std::string> names_;
  std::vector<double> ops_;
  std::vector<double> last_ms_;
  double pack_weights_s_ = 0.0;
};

/// Median wall time (us) of an empty-body ThreadPool::parallel_for over
/// `threads` items on a pool of `threads` workers: the fork/join cost every
/// parallel layer pays.  The first 100 timed calls are recorded as spans.
[[nodiscard]] double forkjoin_us(int threads, SpanRecorder& rec, std::uint64_t trace);

/// What replay_for() measured.
struct ReplayStats {
  Json kernels;                ///< "<layer>.ms" (and ".gops" for conv/fc) medians
  double pack_input_ms = 0.0;  ///< median input pack
  double layers_ms = 0.0;      ///< input pack + sum of per-layer medians
  double infer_ms = 0.0;       ///< median untraced infer_batch
  double traced_ms = 0.0;      ///< median whole replay, spans recorded
  double untraced_ms = 0.0;    ///< median whole replay, no spans
  std::int64_t iterations = 0;  ///< infer_batch calls + replays
  std::int64_t mismatched = 0;  ///< of those, outputs that differ from `ref`
};

/// Runs batches[i % n] for `seconds` (at least 9 iterations) in a rotation of
/// three: `infer(b)` (the untraced infer_batch of batch b), an untraced
/// replay, and a traced replay.  Interleaving puts the three under the same
/// host conditions, so graph glue (infer_batch minus the per-layer sum) and
/// the tracing overhead (traced minus untraced replay) are differences of
/// like with like.  Every output is checked bit-exact against ref[i % n].
ReplayStats replay_for(Replay& rp, const std::vector<std::vector<const Tensor*>>& batches,
                       const std::vector<std::vector<float>>& ref, double seconds,
                       const std::function<std::span<const float>(std::size_t)>& infer,
                       SpanRecorder& rec, std::uint64_t& trace_id);

}  // namespace perfbench
