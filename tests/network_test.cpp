// BinaryNetwork: shape inference, memory planning (zero-cost padding),
// kernel selection, and end-to-end equivalence against manual layer-by-layer
// composition of the standalone kernels.
#include <cstdint>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "graph/network.hpp"
#include "kernels/padding.hpp"
#include "models/vgg.hpp"
#include "simd/parity.hpp"
#include "telemetry/profiler.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow::graph {
namespace {

FilterBank random_filters(std::int64_t k, std::int64_t c, std::uint64_t seed) {
  return models::random_filters(k, 3, 3, c, seed);
}

using testing::RefLayer;

RefLayer conv_layer(std::string name, FilterBank w, std::int64_t pad) {
  RefLayer l;
  l.kind = RefLayer::Kind::kConv;
  l.name = std::move(name);
  l.conv = std::move(w);
  l.pad = pad;
  return l;
}

RefLayer pool_layer(std::string name) {
  RefLayer l;
  l.kind = RefLayer::Kind::kPool;
  l.name = std::move(name);
  l.pool = kernels::PoolSpec{2, 2, 2};
  return l;
}

RefLayer fc_layer(std::string name, std::int64_t n, std::int64_t k, std::uint64_t seed) {
  RefLayer l;
  l.kind = RefLayer::Kind::kFc;
  l.name = std::move(name);
  l.fc = models::random_fc_weights(n, k, seed);
  l.fc_n = n;
  l.fc_k = k;
  return l;
}

/// Builds the engine's network from the same layers (and weights) that
/// testing::reference_network_scores() composes.
BinaryNetwork build_net(const std::vector<RefLayer>& layers, NetworkConfig cfg,
                        TensorDesc input) {
  BinaryNetwork net(cfg);
  for (const RefLayer& l : layers) {
    switch (l.kind) {
      case RefLayer::Kind::kConv:
        net.add_conv(l.name, l.conv, l.stride, l.pad, l.thresholds);
        break;
      case RefLayer::Kind::kPool:
        net.add_maxpool(l.name, l.pool);
        break;
      case RefLayer::Kind::kFc:
        net.add_fc(l.name, l.fc, l.fc_n, l.fc_k, l.thresholds);
        break;
    }
  }
  net.finalize(input);
  return net;
}

/// conv(pad 1) -> pool(2x2) -> conv(pad 1) -> fc -> fc, a miniature VGG.
std::vector<RefLayer> small_net_layers() {
  return {conv_layer("c1", random_filters(64, 16, 1), 1), pool_layer("p1"),
          conv_layer("c2", random_filters(32, 64, 2), 1),
          fc_layer("f1", 8 * 8 * 32, 40, 3), fc_layer("f2", 40, 10, 4)};
}

BinaryNetwork make_small_net(NetworkConfig cfg) {
  return build_net(small_net_layers(), cfg, TensorDesc{16, 16, 16});
}

/// Runs batches of N in {1, 2, 7, 16} fresh inputs through `net` and checks
/// every image's scores bit for bit against the filter-major composition of
/// the same layers.
void expect_matches_reference(const BinaryNetwork& net, const std::vector<RefLayer>& layers,
                              std::uint64_t seed) {
  const TensorDesc d = net.input_desc();
  const auto out = static_cast<std::size_t>(net.output_size());
  InferenceContext ctx = net.make_context(16);
  for (std::int64_t n : {1, 2, 7, 16}) {
    std::vector<Tensor> inputs;
    std::vector<const Tensor*> ptrs;
    for (std::int64_t b = 0; b < n; ++b) {
      Tensor t = Tensor::hwc(d.h, d.w, d.c);
      fill_uniform(t, seed + static_cast<std::uint64_t>(n * 17 + b));
      inputs.push_back(std::move(t));
    }
    for (const Tensor& t : inputs) ptrs.push_back(&t);
    const auto scores = net.infer_batch(ptrs, ctx);
    ASSERT_EQ(scores.size(), static_cast<std::size_t>(n) * out);
    for (std::int64_t b = 0; b < n; ++b) {
      const std::vector<float> want =
          testing::reference_network_scores(layers, inputs[static_cast<std::size_t>(b)]);
      ASSERT_EQ(want.size(), out);
      for (std::size_t i = 0; i < out; ++i) {
        ASSERT_EQ(scores[static_cast<std::size_t>(b) * out + i], want[i])
            << "image " << b << " of n=" << n << " diverges from the filter-major reference"
            << " at score " << i;
      }
    }
  }
}

TEST(BinaryNetwork, ShapeInferenceAndLayerInfo) {
  BinaryNetwork net = make_small_net({});
  ASSERT_TRUE(net.finalized());
  const auto& layers = net.layers();
  ASSERT_EQ(layers.size(), 5u);
  EXPECT_EQ(layers[0].out, (TensorDesc{16, 16, 64}));  // padded conv keeps extents
  EXPECT_EQ(layers[1].out, (TensorDesc{8, 8, 64}));
  EXPECT_EQ(layers[2].out, (TensorDesc{8, 8, 32}));
  EXPECT_EQ(layers[3].out, (TensorDesc{1, 1, 40}));
  EXPECT_EQ(layers[4].out, (TensorDesc{1, 1, 10}));
  EXPECT_EQ(net.output_size(), 10);
  EXPECT_EQ(net.input_desc(), (TensorDesc{16, 16, 16}));
  EXPECT_FALSE(layers[0].isa_reason.empty());
  EXPECT_GT(net.packed_weight_bytes(), 0);
}

TEST(BinaryNetwork, InferMatchesManualComposition) {
  NetworkConfig cfg;
  cfg.num_threads = 2;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 99);
  const auto scores = net.infer(input);
  ASSERT_EQ(scores.size(), 10u);

  // Manual composition with the standalone kernels, same weights (seeds).
  const std::vector<float> manual = testing::reference_network_scores(small_net_layers(), input);
  ASSERT_EQ(manual.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(scores[static_cast<std::size_t>(i)], manual[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(BinaryNetwork, ThreadCountInvariance) {
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 7);
  NetworkConfig c1, c4;
  c1.num_threads = 1;
  c4.num_threads = 4;
  BinaryNetwork n1 = make_small_net(c1);
  BinaryNetwork n4 = make_small_net(c4);
  const auto s1 = n1.infer(input);
  const auto s4 = n4.infer(input);
  for (std::size_t i = 0; i < s1.size(); ++i) ASSERT_EQ(s1[i], s4[i]);
}

TEST(BinaryNetwork, SchedulerPolicyDoesNotChangeResults) {
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 8);
  NetworkConfig paper, widest;
  widest.policy = SchedulerPolicy::kWidest;
  BinaryNetwork a = make_small_net(paper);
  BinaryNetwork b = make_small_net(widest);
  const auto sa = a.infer(input);
  const auto sb = b.infer(input);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
}

TEST(BinaryNetwork, RepeatedInferenceIsDeterministicAndPaddingStaysArmed) {
  // The pre-allocated margins must stay zero across runs (the engine never
  // writes them) or the second inference would differ.
  BinaryNetwork net = make_small_net({});
  Tensor a = Tensor::hwc(16, 16, 16);
  Tensor b = Tensor::hwc(16, 16, 16);
  fill_uniform(a, 1);
  fill_uniform(b, 2);
  std::vector<float> first(net.infer(a).begin(), net.infer(a).end());
  (void)net.infer(b);  // perturb every buffer
  const auto again = net.infer(a);
  for (std::size_t i = 0; i < first.size(); ++i) ASSERT_EQ(first[i], again[i]);
}

TEST(BinaryNetwork, ConvThresholdsChangeBits) {
  BinaryNetwork plain{NetworkConfig{}}, biased{NetworkConfig{}};
  plain.add_conv("c", random_filters(8, 16, 5), 1, 0);
  plain.add_fc("f", models::random_fc_weights(6 * 6 * 8, 4, 6), 6 * 6 * 8, 4);
  plain.finalize(TensorDesc{8, 8, 16});

  std::vector<float> th(8, 1e9f);  // impossible threshold: all bits 0
  biased.add_conv("c", random_filters(8, 16, 5), 1, 0, th);
  biased.add_fc("f", models::random_fc_weights(6 * 6 * 8, 4, 6), 6 * 6 * 8, 4);
  biased.finalize(TensorDesc{8, 8, 16});

  Tensor input = Tensor::hwc(8, 8, 16);
  fill_uniform(input, 9);
  const auto sp = plain.infer(input);
  const auto sb = biased.infer(input);
  // All-zero bits into the fc = all -1 inputs: dot = -(sum of weight signs).
  bool differs = false;
  for (std::size_t i = 0; i < sp.size(); ++i) differs |= sp[i] != sb[i];
  EXPECT_TRUE(differs);
}

TEST(BinaryNetwork, FcOnlyNetwork) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_fc("f1", models::random_fc_weights(64, 32, 1), 64, 32);
  net.add_fc("f2", models::random_fc_weights(32, 8, 2), 32, 8);
  net.finalize(TensorDesc{1, 1, 64});
  Tensor input(Shape{64});
  fill_uniform(input, 3);
  const auto s = net.infer(input);
  EXPECT_EQ(s.size(), 8u);
  // Cross-check the first fc against standalone kernels.
  runtime::ThreadPool pool(1);
  const auto w1 = models::random_fc_weights(64, 32, 1);
  const auto w2 = models::random_fc_weights(32, 8, 2);
  const auto x = bitpack::pack_rows(input.data(), 1, 64);
  const auto pw1 = bitpack::pack_transpose_fc_weights(w1.data(), 64, 32);
  PackedMatrix h(1, 32);
  kernels::bgemm_binarize(x, pw1, nullptr, pool, h);
  const auto pw2 = bitpack::pack_transpose_fc_weights(w2.data(), 32, 8);
  std::vector<float> manual(8);
  kernels::bgemm(h, pw2, pool, manual.data());
  for (int i = 0; i < 8; ++i) ASSERT_EQ(s[static_cast<std::size_t>(i)], manual[static_cast<std::size_t>(i)]);
}

TEST(BinaryNetwork, ConvEndingNetworkEmitsDots) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c", random_filters(8, 32, 11), 1, 0);
  net.finalize(TensorDesc{6, 6, 32});
  Tensor input = Tensor::hwc(6, 6, 32);
  fill_uniform(input, 12);
  const auto s = net.infer(input);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(4 * 4 * 8));
  // Dots have the parity of N = 3*3*32.
  for (float v : s) {
    EXPECT_EQ((static_cast<std::int64_t>(v) - 3 * 3 * 32) % 2, 0);
  }
}

TEST(BinaryNetwork, ProfileModeRecordsPerLayerTimes) {
  NetworkConfig cfg;
  cfg.profile = true;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 13);
  (void)net.infer(input);
  // input pack + 5 layers
  EXPECT_EQ(net.last_profile_ms().size(), 6u);
  for (double t : net.last_profile_ms()) EXPECT_GE(t, 0.0);
}

TEST(BinaryNetwork, ProfileReportAttributesRooflinePerLayer) {
  NetworkConfig cfg;
  cfg.profile = true;
  BinaryNetwork net = make_small_net(cfg);
  Tensor input = Tensor::hwc(16, 16, 16);
  fill_uniform(input, 13);
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) (void)net.infer(input);

  const ProfileReport report = net.profile_report();
  ASSERT_EQ(report.rows.size(), 6u);  // pack + 5 layers
  EXPECT_EQ(report.rows[0].name, "pack_input");
  EXPECT_EQ(report.rows[1].name, "c1");
  EXPECT_EQ(report.rows[5].name, "f2");
  for (const LayerProfile& row : report.rows) {
    EXPECT_EQ(row.calls, static_cast<std::uint64_t>(kRuns)) << row.name;
    EXPECT_EQ(row.images, static_cast<std::uint64_t>(kRuns)) << row.name;
    EXPECT_GE(row.mean_ms, 0.0) << row.name;
    EXPECT_GE(row.p99_ms, row.p50_ms) << row.name;
  }
  // Binary conv and fc rows carry arithmetic intensity and a roofline; the
  // pool row (no multiply-accumulates) does not.
  for (std::size_t i : {1u, 3u, 4u, 5u}) {
    EXPECT_GT(report.rows[i].gops, 0.0) << report.rows[i].name;
    EXPECT_GT(report.rows[i].roof_gops, 0.0) << report.rows[i].name;
    EXPECT_GT(report.rows[i].ait, 0.0) << report.rows[i].name;
  }
  EXPECT_EQ(report.rows[2].ait, 0.0);  // maxpool: no MAC work modeled

  const std::string table = report.to_table();
  EXPECT_NE(table.find("pack_input"), std::string::npos);
  EXPECT_NE(table.find("roof"), std::string::npos);
  EXPECT_NE(table.find("pressedconv"), std::string::npos);

  net.reset_profile();
  const ProfileReport cleared = net.profile_report();
  ASSERT_EQ(cleared.rows.size(), 6u);
  for (const LayerProfile& row : cleared.rows) EXPECT_EQ(row.calls, 0u);
}

TEST(BinaryNetwork, ProfileReportAccumulatesAcrossContextsWhenGloballyEnabled) {
  // Even with cfg.profile unset, the process-wide profiler switch arms the
  // shared accumulators, and batch inference counts every image.
  BinaryNetwork net = make_small_net({});
  telemetry::set_profiling(true);
  std::vector<Tensor> batch;
  for (int i = 0; i < 3; ++i) {
    Tensor t = Tensor::hwc(16, 16, 16);
    fill_uniform(t, 20 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(t));
  }
  const std::vector<const Tensor*> ptrs = {&batch[0], &batch[1], &batch[2]};
  InferenceContext ctx = net.make_context(3);
  (void)net.infer_batch(std::span<const Tensor* const>(ptrs), ctx);
  telemetry::set_profiling(false);
  const ProfileReport report = net.profile_report();
  ASSERT_EQ(report.rows.size(), 6u);
  for (const LayerProfile& row : report.rows) {
    EXPECT_EQ(row.calls, 1u) << row.name;
    EXPECT_EQ(row.images, 3u) << row.name;
  }
}

/// The measured-counter path of the table, which a host without
/// perf_event_open access never reaches: a "measured" row prints its ipc and
/// mpki, a "calibrated" row prints n/a in both columns.
TEST(ProfileReport, TablePrintsMeasuredCountersAndNaForCalibratedRows) {
  ProfileReport report;
  LayerProfile measured;
  measured.name = "c1";
  measured.kernel = "pressedconv_tiled[avx2]";
  measured.calls = 4;
  measured.images = 4;
  measured.ipc = 2.75;
  measured.llc_mpki = 0.4;
  measured.perf_source = "measured";
  LayerProfile calibrated = measured;
  calibrated.name = "f1";
  calibrated.perf_source = "calibrated";
  report.rows = {measured, calibrated};

  // The last three columns of a row are ipc, mpki and src.
  auto tail_columns = [](const std::string& table, const std::string& layer) {
    std::istringstream lines(table);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream cols(line);
      std::vector<std::string> tok{std::istream_iterator<std::string>(cols),
                                   std::istream_iterator<std::string>()};
      if (tok.size() >= 3 && tok[0] == layer) {
        return std::vector<std::string>(tok.end() - 3, tok.end());
      }
    }
    return std::vector<std::string>{};
  };
  const std::string table = report.to_table();
  EXPECT_EQ(tail_columns(table, "c1"), (std::vector<std::string>{"2.75", "0.40", "measured"}))
      << table;
  EXPECT_EQ(tail_columns(table, "f1"), (std::vector<std::string>{"n/a", "n/a", "calibrated"}))
      << table;
}

TEST(BinaryNetwork, BuildErrors) {
  BinaryNetwork net{NetworkConfig{}};
  EXPECT_THROW(net.finalize(TensorDesc{8, 8, 8}), std::logic_error);  // no layers
  net.add_conv("c", random_filters(4, 8, 1), 1, 1);
  EXPECT_THROW(
      {
        BinaryNetwork bad{NetworkConfig{}};
        bad.add_conv("c", random_filters(4, 16, 1), 1, 1);  // channel mismatch vs input
        bad.finalize(TensorDesc{8, 8, 8});
      },
      std::invalid_argument);
  net.finalize(TensorDesc{8, 8, 8});
  EXPECT_THROW(net.finalize(TensorDesc{8, 8, 8}), std::logic_error);    // double finalize
  EXPECT_THROW(net.add_maxpool("p", {}), std::logic_error);             // add after finalize
  Tensor wrong = Tensor::hwc(9, 9, 8);
  EXPECT_THROW((void)net.infer(wrong), std::invalid_argument);          // wrong input extents
  BinaryNetwork unfinalized{NetworkConfig{}};
  unfinalized.add_conv("c", random_filters(4, 8, 1), 1, 1);
  Tensor in = Tensor::hwc(8, 8, 8);
  EXPECT_THROW((void)unfinalized.infer(in), std::logic_error);
  // fc size mismatch
  EXPECT_THROW(
      {
        BinaryNetwork bad{NetworkConfig{}};
        bad.add_fc("f", models::random_fc_weights(10, 4, 1), 10, 4);
        bad.finalize(TensorDesc{1, 1, 12});
      },
      std::invalid_argument);
  // conv after fc unsupported
  EXPECT_THROW(
      {
        BinaryNetwork bad{NetworkConfig{}};
        bad.add_fc("f", models::random_fc_weights(64, 32, 1), 64, 32);
        bad.add_conv("c", random_filters(4, 32, 1), 1, 1);
        bad.finalize(TensorDesc{1, 1, 64});
      },
      std::invalid_argument);
}

TEST(BinaryNetwork, WeightBytesReflect32xCompression) {
  // One conv layer: K*kh*kw*C bits packed -> K*kh*kw*C/8 bytes (C mult of 64).
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c", random_filters(16, 64, 1), 1, 0);
  net.finalize(TensorDesc{4, 4, 64});
  EXPECT_EQ(net.packed_weight_bytes(), 16 * 3 * 3 * 64 / 8);
  // Float storage would be 16*3*3*64*4 bytes: exactly 32x larger.
  EXPECT_EQ(16 * 3 * 3 * 64 * 4 / net.packed_weight_bytes(), 32);
}

// --- batch-N inference ------------------------------------------------------

/// Runs `net.infer_batch` over `n` distinct inputs and asserts every image's
/// score slice is bit-identical to a batch-1 `infer()` of that image alone.
void expect_batch_matches_batch1(BinaryNetwork& net, InferenceContext& ctx, std::int64_t n,
                                 std::uint64_t seed_base) {
  const TensorDesc in = net.input_desc();
  const std::int64_t out_size = net.output_size();
  std::vector<Tensor> inputs;
  std::vector<const Tensor*> ptrs;
  for (std::int64_t b = 0; b < n; ++b) {
    Tensor t = Tensor::hwc(in.h, in.w, in.c);
    fill_uniform(t, seed_base + static_cast<std::uint64_t>(b));
    inputs.push_back(std::move(t));
  }
  for (const Tensor& t : inputs) ptrs.push_back(&t);

  const auto batch = net.infer_batch(ptrs, ctx);
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(n * out_size));
  // infer() reuses the default context, not `ctx`, so copy first anyway —
  // the span contract says it is only valid until the context's next use.
  const std::vector<float> scores(batch.begin(), batch.end());
  for (std::int64_t b = 0; b < n; ++b) {
    const auto single = net.infer(inputs[static_cast<std::size_t>(b)]);
    ASSERT_EQ(single.size(), static_cast<std::size_t>(out_size));
    for (std::int64_t i = 0; i < out_size; ++i) {
      ASSERT_EQ(scores[static_cast<std::size_t>(b * out_size + i)],
                single[static_cast<std::size_t>(i)])
          << "batch image " << b << " diverges from its batch-1 run at score " << i
          << " (n=" << n << ")";
    }
  }
}

TEST(BinaryNetwork, BatchInferenceBitExactAcrossIsaLevels) {
  // The acceptance sweep: N in {1, 2, 7, 16} on every ISA level the host
  // can execute (the kernel-variant axis incl. both AVX-512 popcount
  // lowerings is covered in isa_parity_test).
  for (simd::IsaLevel isa : simd::supported_isa_levels()) {
    NetworkConfig cfg;
    cfg.num_threads = 3;
    cfg.max_isa = isa;
    BinaryNetwork net = make_small_net(cfg);
    InferenceContext ctx = net.make_context(16);
    for (std::int64_t n : {1, 2, 7, 16}) {
      expect_batch_matches_batch1(net, ctx, n, 500 + static_cast<std::uint64_t>(n) * 31);
    }
  }
}

TEST(BinaryNetwork, BatchInferenceThreadCountInvariance) {
  // A context's pool size must not change results — same invariance the
  // single-image path guarantees, now over the fused n*H*W ranges.
  BinaryNetwork net = make_small_net({});
  std::vector<float> ref;
  for (int threads : {1, 2, 5}) {
    InferenceContext ctx = net.make_context(7, threads);
    std::vector<Tensor> inputs;
    std::vector<const Tensor*> ptrs;
    for (int b = 0; b < 7; ++b) {
      Tensor t = Tensor::hwc(16, 16, 16);
      fill_uniform(t, 900 + static_cast<std::uint64_t>(b));
      inputs.push_back(std::move(t));
    }
    for (const Tensor& t : inputs) ptrs.push_back(&t);
    const auto s = net.infer_batch(ptrs, ctx);
    if (ref.empty()) {
      ref.assign(s.begin(), s.end());
    } else {
      ASSERT_EQ(std::vector<float>(s.begin(), s.end()), ref) << threads << " threads";
    }
  }
}

TEST(BinaryNetwork, BatchInferenceFcOnlyNetwork) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_fc("f1", models::random_fc_weights(64, 32, 1), 64, 32);
  net.add_fc("f2", models::random_fc_weights(32, 8, 2), 32, 8);
  net.finalize(TensorDesc{1, 1, 64});
  InferenceContext ctx = net.make_context(5);
  expect_batch_matches_batch1(net, ctx, 5, 77);
}

TEST(BinaryNetwork, BatchInferenceFloatFirstLayerNetwork) {
  // The full-precision first layer runs serially per image but shares the
  // context's float scratch; batch results must still match batch-1.
  BinaryNetwork net{NetworkConfig{}};
  std::vector<float> th(16, 0.25f);
  net.add_conv_float("c0", models::random_filters(16, 3, 3, 3, 21), 1, 1, th);
  net.add_conv("c1", random_filters(32, 16, 22), 1, 1);
  net.add_fc("f1", models::random_fc_weights(8 * 8 * 32, 10, 23), 8 * 8 * 32, 10);
  net.finalize(TensorDesc{8, 8, 3});
  InferenceContext ctx = net.make_context(4);
  expect_batch_matches_batch1(net, ctx, 4, 555);
}

TEST(BinaryNetwork, BatchInferenceConvEndingNetworkEmitsDots) {
  BinaryNetwork net{NetworkConfig{}};
  net.add_conv("c1", random_filters(8, 16, 31), 1, 0);
  net.finalize(TensorDesc{6, 6, 16});
  InferenceContext ctx = net.make_context(3);
  expect_batch_matches_batch1(net, ctx, 3, 4040);
}

// --- finalize-time weight tiling -------------------------------------------

TEST(BinaryNetwork, TiledAndUntiledNetworksBitExact) {
  // Same weights (seeds), same inputs: the interleaved-layout network must be
  // bit-identical to the filter-major composition for every batch size.
  NetworkConfig cfg;
  cfg.num_threads = 3;
  const std::vector<RefLayer> layers = small_net_layers();
  const BinaryNetwork net = build_net(layers, cfg, TensorDesc{16, 16, 16});
  // The re-layout is a permutation: identical weight footprint.
  EXPECT_EQ(net.packed_weight_bytes(), testing::reference_weight_bytes(layers));
  expect_matches_reference(net, layers, 7100);
}

/// conv(C = 3 -> 64, pad 1) -> pool -> conv(64 -> 20, pad 1) -> fc: a VGG
/// front whose first conv folds its 3x3x3 = 27-bit window into one word.
std::vector<RefLayer> narrow_first_layers() {
  return {conv_layer("c1", random_filters(64, 3, 31), 1), pool_layer("p1"),
          conv_layer("c2", random_filters(20, 64, 32), 1), fc_layer("f1", 8 * 8 * 20, 10, 33)};
}

TEST(BinaryNetwork, FoldedFirstLayerBitExactAgainstU64AndUntiled) {
  NetworkConfig folded_cfg, u64_cfg;
  folded_cfg.num_threads = u64_cfg.num_threads = 3;
  folded_cfg.profile = true;
  u64_cfg.max_isa = simd::IsaLevel::kU64;
  const std::vector<RefLayer> layers = narrow_first_layers();
  const BinaryNetwork folded = build_net(layers, folded_cfg, TensorDesc{16, 16, 3});
  const BinaryNetwork u64 = build_net(layers, u64_cfg, TensorDesc{16, 16, 3});

  EXPECT_TRUE(folded.layers()[0].folded_window);
  EXPECT_TRUE(u64.layers()[0].folded_window);
  EXPECT_FALSE(folded.layers()[2].folded_window);  // C = 64: 576 bits
  // The folded conv1 stores one word per filter instead of nine.
  EXPECT_EQ(testing::reference_weight_bytes(layers) - folded.packed_weight_bytes(),
            64 * (9 - 1) * 8);

  expect_matches_reference(folded, layers, 8100);
  expect_matches_reference(u64, layers, 8100);

  // The profile names the plan that ran: ",fold" on conv1 only.  GOPS
  // stays counted on the logical 3x3x3 window.
  const ProfileReport rep = folded.profile_report();
  ASSERT_EQ(rep.rows.size(), 5u);  // pack_input + 4 layers
  EXPECT_NE(rep.rows[1].kernel.find(",fold"), std::string::npos) << rep.rows[1].kernel;
  EXPECT_EQ(rep.rows[3].kernel.find(",fold"), std::string::npos) << rep.rows[3].kernel;
  EXPECT_GT(rep.rows[1].gops, 0.0);
}

TEST(BinaryNetwork, LayerInfoReportsWeightLayout) {
  const BinaryNetwork net = make_small_net({});
  // Every conv/fc runs the interleaved layout at its ISA's default width
  // (K >= 8 here); the pool has no weights and reports filter-major, tile 0.
  for (const LayerInfo& l : net.layers()) {
    const bool has_weights = l.kind != LayerKind::kPool;
    EXPECT_EQ(l.layout == kernels::WeightLayout::kInterleaved, has_weights) << l.name;
    EXPECT_EQ(l.tile, has_weights ? kernels::weight_tile_width(l.isa) : 0) << l.name;
  }
  EXPECT_STREQ(kernels::weight_layout_name(kernels::WeightLayout::kInterleaved), "interleaved");
}

TEST(BinaryNetwork, TinyLayerRunsNarrowestTile) {
  // K = 3 is below every tile width: finalize takes the narrowest one (4),
  // whose kernels run all three rows through their remainder loop, and the
  // result stays bit-exact against the filter-major composition.
  NetworkConfig cfg;
  const std::vector<RefLayer> layers = {conv_layer("c", random_filters(3, 16, 41), 0),
                                        fc_layer("f", 6 * 6 * 3, 3, 42)};
  const BinaryNetwork net = build_net(layers, cfg, TensorDesc{8, 8, 16});
  for (const LayerInfo& l : net.layers()) {
    EXPECT_EQ(l.layout, kernels::WeightLayout::kInterleaved) << l.name;
    EXPECT_EQ(l.tile, 4) << l.name;
  }
  expect_matches_reference(net, layers, 4300);
}

TEST(BinaryNetwork, TiledRemainderLayerBitExact) {
  // K = 13 and fc outputs 11/5: K % T != 0 for both tile widths, so the
  // remainder (filter-major) rows of the interleaved banks are exercised
  // end-to-end through infer_batch.
  NetworkConfig cfg;
  cfg.num_threads = 2;
  const std::vector<RefLayer> layers = {conv_layer("c1", random_filters(13, 16, 51), 1),
                                        fc_layer("f1", 8 * 8 * 13, 11, 52),
                                        fc_layer("f2", 11, 5, 53)};
  const BinaryNetwork net = build_net(layers, cfg, TensorDesc{8, 8, 16});
  expect_matches_reference(net, layers, 5400);
}

TEST(BinaryNetwork, ContextAndBatchArgumentValidation) {
  BinaryNetwork unfinalized{NetworkConfig{}};
  unfinalized.add_conv("c", random_filters(8, 16, 1), 1, 0);
  EXPECT_THROW((void)unfinalized.make_context(1), std::logic_error);

  BinaryNetwork net = make_small_net({});
  BinaryNetwork other = make_small_net({});
  EXPECT_THROW((void)net.make_context(0), std::invalid_argument);
  EXPECT_THROW((void)net.make_context(2, 0), std::invalid_argument);

  InferenceContext ctx = net.make_context(2);
  EXPECT_EQ(ctx.max_batch(), 2);
  Tensor in = Tensor::hwc(16, 16, 16);
  fill_uniform(in, 1);
  const Tensor* one = &in;

  // Context from a different (identically built) network is rejected.
  EXPECT_THROW((void)other.infer_batch({&one, 1}, ctx), std::invalid_argument);
  // Batch larger than the context's capacity.
  const Tensor* three[] = {&in, &in, &in};
  EXPECT_THROW((void)net.infer_batch({three, 3}, ctx), std::invalid_argument);
  // Empty batch.
  EXPECT_THROW((void)net.infer_batch({&one, 0}, ctx), std::invalid_argument);
  // Wrong extents, and the offending index is named.
  Tensor bad = Tensor::hwc(8, 8, 16);
  const Tensor* mixed[] = {&in, &bad};
  try {
    (void)net.infer_batch({mixed, 2}, ctx);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("input 1"), std::string::npos) << e.what();
  }

  // The context stays usable after a rejected call.
  const auto s = net.infer_batch({&one, 1}, ctx);
  EXPECT_EQ(s.size(), 10u);
}

}  // namespace
}  // namespace bitflow::graph
