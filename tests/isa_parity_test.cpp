// ISA-parity harness (ROADMAP "analysis" item): every kernel family —
// xor/popcount + or_accumulate primitives, PressedConv, bgemm, binary max
// pool — must be bit-exact across every ISA variant the executing CPU
// supports, including both AVX-512 popcount lowerings where available.
//
// The scalar u64 path is the reference; shapes are randomized (seeded) and
// deliberately adversarial: odd channel counts that leave ragged tail bits,
// stride/margin combinations, tiny spatial extents, and one large-H*W case.
// Failures name the kernel, the variant, and the full shape so a divergence
// on exotic hardware is reproducible from the log alone.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/pressedconv.hpp"
#include "simd/cpu_features.hpp"
#include "simd/parity.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow {
namespace {

using kernels::ConvSpec;
using kernels::PoolSpec;
using simd::IsaLevel;
using simd::IsaVariant;

// --- primitive word-run parity ---------------------------------------------

TEST(IsaParity, BitopsPrimitivesMatchScalar) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const simd::ParityResult r = simd::check_all_bitops_parity(seed);
    ASSERT_TRUE(r.ok) << r.to_string();
  }
}

TEST(IsaParity, VariantEnumerationIsSane) {
  const auto levels = simd::supported_isa_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), IsaLevel::kU64);
  const auto variants = simd::supported_isa_variants();
  ASSERT_GE(variants.size(), levels.size());
  EXPECT_EQ(variants.front().name, "u64");
  // Exactly one variant per level, except kAvx512 which may contribute two.
  std::size_t expected = levels.size();
  if (simd::cpu_features().supports(IsaLevel::kAvx512) &&
      simd::cpu_features().avx512vpopcntdq) {
    ++expected;
  }
  EXPECT_EQ(variants.size(), expected);
}

// --- shared randomized shape set -------------------------------------------

struct ConvShape {
  std::int64_t h, w, c, k, kernel, stride, margin;
};

std::string describe(const ConvShape& s) {
  std::string d = "in " + std::to_string(s.h) + "x" + std::to_string(s.w) + "x" +
                  std::to_string(s.c) + " K=" + std::to_string(s.k) + " kernel=" +
                  std::to_string(s.kernel) + " stride=" + std::to_string(s.stride) +
                  " margin=" + std::to_string(s.margin);
  return d;
}

// Fixed adversarial shapes plus seeded random draws.  Channels are chosen to
// hit every tail class (sub-word, word-exact, each vector width, ragged just
// past each width); spatial extents span tiny (1x1 output) to a large H*W.
std::vector<ConvShape> conv_shapes() {
  std::vector<ConvShape> shapes = {
      {3, 3, 7, 3, 3, 1, 0},       // sub-word channels, smallest output
      {6, 7, 64, 8, 3, 1, 1},      // word-exact, margin-carrying output
      {5, 5, 65, 5, 3, 2, 0},      // one bit past a word, strided
      {7, 6, 129, 4, 3, 1, 2},     // one bit past SSE width, fat margin
      {6, 6, 257, 6, 5, 1, 0},     // one bit past AVX2 width, 5x5 kernel
      {8, 8, 513, 3, 3, 2, 1},     // one bit past AVX-512 width
      {4, 9, 96, 7, 1, 1, 0},      // 1x1 kernel (pure channel reduction)
      {40, 40, 63, 4, 3, 1, 0},    // large H*W, ragged tail
  };
  std::mt19937_64 rng(20260805);
  std::uniform_int_distribution<std::int64_t> dim(5, 14);
  std::uniform_int_distribution<std::int64_t> chan(1, 300);
  std::uniform_int_distribution<std::int64_t> filt(1, 40);
  std::uniform_int_distribution<std::int64_t> ker(1, 3);
  std::uniform_int_distribution<std::int64_t> stride(1, 2);
  std::uniform_int_distribution<std::int64_t> margin(0, 2);
  for (int i = 0; i < 6; ++i) {
    ConvShape s{};
    s.kernel = 2 * ker(rng) - 1;  // 1, 3, or 5
    s.h = dim(rng) + s.kernel;
    s.w = dim(rng) + s.kernel;
    s.c = chan(rng);
    s.k = filt(rng);
    s.stride = stride(rng);
    s.margin = margin(rng);
    shapes.push_back(s);
  }
  return shapes;
}

// --- PressedConv -----------------------------------------------------------

TEST(IsaParity, PressedConvDotAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 1000;
  for (const ConvShape& s : conv_shapes()) {
    PackedTensor in(s.h, s.w, s.c);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(in, seed++);
    fill_random_bits(filters, seed++);
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);

    Tensor ref = Tensor::hwc(oh, ow, s.k);
    testing::conv_dot_one(kernels::conv_dot_batch_kernel(IsaLevel::kU64, false), in, filters,
                          spec, pool, ref);
    // The scalar kernel itself is pinned against the decoded naive conv once
    // per shape, so variant agreement is agreement with ground truth.
    const Tensor naive = testing::reference_binary_conv(in, filters, spec);
    ASSERT_EQ(max_abs_diff(ref, naive), 0.0f)
        << "kernel conv_dot[u64] vs naive reference, shape " << describe(s);

    for (const IsaVariant& v : variants) {
      Tensor out = Tensor::hwc(oh, ow, s.k);
      testing::conv_dot_one(kernels::conv_dot_batch_kernel(v.isa, v.use_vpopcntdq), in, filters,
                            spec, pool, out);
      ASSERT_EQ(max_abs_diff(out, ref), 0.0f)
          << "kernel conv_dot[" << v.name << "] diverges from u64 reference, shape "
          << describe(s);
    }
  }
}

TEST(IsaParity, PressedConvBinarizeAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 2000;
  for (const ConvShape& s : conv_shapes()) {
    PackedTensor in(s.h, s.w, s.c);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(in, seed++);
    fill_random_bits(filters, seed++);
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);

    // Per-filter thresholds near zero so both binarization outcomes occur.
    std::vector<float> thresholds(static_cast<std::size_t>(s.k));
    std::mt19937_64 trng(seed);
    std::uniform_real_distribution<float> tdist(-3.0f, 3.0f);
    for (auto& t : thresholds) t = tdist(trng);

    PackedTensor ref(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
    testing::conv_binarize_one(kernels::conv_binarize_batch_kernel(IsaLevel::kU64, false), in,
                               filters, spec, thresholds.data(), pool, ref, s.margin);
    for (const IsaVariant& v : variants) {
      PackedTensor out(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
      testing::conv_binarize_one(kernels::conv_binarize_batch_kernel(v.isa, v.use_vpopcntdq), in,
                                 filters, spec, thresholds.data(), pool, out, s.margin);
      // Whole-buffer word compare: covers payload bits, tail-zero invariant,
      // and the untouched zero margin in one pass.
      for (std::int64_t i = 0; i < ref.num_words(); ++i) {
        ASSERT_EQ(out.words()[i], ref.words()[i])
            << "kernel conv_binarize[" << v.name << "] diverges from u64 at word " << i
            << ", shape " << describe(s);
      }
    }
  }
}

// --- bgemm -----------------------------------------------------------------

struct GemmShape {
  std::int64_t m, n_bits, k;
};

std::string describe(const GemmShape& s) {
  return "A " + std::to_string(s.m) + "x" + std::to_string(s.n_bits) + " bits, W " +
         std::to_string(s.k) + "x" + std::to_string(s.n_bits) + " bits";
}

std::vector<GemmShape> gemm_shapes() {
  std::vector<GemmShape> shapes = {
      {1, 1, 1},       // degenerate single bit
      {1, 63, 10},     // sub-word tail
      {1, 512, 128},   // AVX-512 exact, register-blocked K
      {2, 513, 33},    // ragged everything
      {3, 1000, 17},   // several vector widths + tail
      {1, 4096, 101},  // large-N fully connected layer shape
  };
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<std::int64_t> m(1, 4);
  std::uniform_int_distribution<std::int64_t> n(1, 2000);
  std::uniform_int_distribution<std::int64_t> k(1, 150);
  for (int i = 0; i < 6; ++i) shapes.push_back({m(rng), n(rng), k(rng)});
  return shapes;
}

TEST(IsaParity, BgemmDotAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 3000;
  for (const GemmShape& s : gemm_shapes()) {
    PackedMatrix a(s.m, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);

    std::vector<float> ref(static_cast<std::size_t>(s.m * s.k));
    kernels::bgemm_rows_kernel(IsaLevel::kU64, false)(a, a.rows(), w, pool, ref.data());
    // Pin the scalar kernel to the decoded naive dot for a few entries.
    for (std::int64_t e = 0; e < std::min<std::int64_t>(s.m * s.k, 8); ++e) {
      const std::int64_t rm = e % s.m, rk = e % s.k;
      ASSERT_EQ(ref[static_cast<std::size_t>(rm * s.k + rk)],
                static_cast<float>(testing::reference_binary_dot(a, rm, w, rk)))
          << "kernel bgemm[u64] vs naive dot at (" << rm << "," << rk << "), shape "
          << describe(s);
    }

    for (const IsaVariant& v : variants) {
      std::vector<float> y(static_cast<std::size_t>(s.m * s.k), -12345.0f);
      kernels::bgemm_rows_kernel(v.isa, v.use_vpopcntdq)(a, a.rows(), w, pool, y.data());
      for (std::int64_t i = 0; i < s.m * s.k; ++i) {
        ASSERT_EQ(y[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)])
            << "kernel bgemm[" << v.name << "] diverges from u64 at element (" << i / s.k
            << "," << i % s.k << "), shape " << describe(s);
      }
    }
  }
}

TEST(IsaParity, BgemmBinarizeAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 4000;
  for (const GemmShape& s : gemm_shapes()) {
    PackedMatrix a(s.m, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    std::vector<float> thresholds(static_cast<std::size_t>(s.k));
    std::mt19937_64 trng(seed);
    std::uniform_real_distribution<float> tdist(-5.0f, 5.0f);
    for (auto& t : thresholds) t = tdist(trng);

    PackedMatrix ref(s.m, s.k);
    kernels::bgemm_binarize_rows_kernel(IsaLevel::kU64, false)(a, a.rows(), w, thresholds.data(),
                                                               pool, ref);
    for (const IsaVariant& v : variants) {
      PackedMatrix out(s.m, s.k);
      kernels::bgemm_binarize_rows_kernel(v.isa, v.use_vpopcntdq)(a, a.rows(), w,
                                                                  thresholds.data(), pool, out);
      for (std::int64_t i = 0; i < ref.num_words(); ++i) {
        ASSERT_EQ(out.words()[i], ref.words()[i])
            << "kernel bgemm_binarize[" << v.name << "] diverges from u64 at word " << i
            << ", shape " << describe(s);
      }
    }
  }
}

// --- batch-N PressedConv ---------------------------------------------------

TEST(IsaParity, PressedConvDotBatchMatchesSingleImageAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 6000;
  for (const ConvShape& s : conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);

    for (std::int64_t n : {1, 4}) {
      std::vector<PackedTensor> in;
      std::vector<const PackedTensor*> in_ptrs;
      for (std::int64_t b = 0; b < n; ++b) {
        in.emplace_back(s.h, s.w, s.c);
        fill_random_bits(in.back(), seed++);
      }
      for (const PackedTensor& t : in) in_ptrs.push_back(&t);

      for (const IsaVariant& v : variants) {
        std::vector<Tensor> out;
        std::vector<Tensor*> out_ptrs;
        for (std::int64_t b = 0; b < n; ++b) out.push_back(Tensor::hwc(oh, ow, s.k));
        for (Tensor& t : out) out_ptrs.push_back(&t);
        kernels::conv_dot_batch_kernel(v.isa, v.use_vpopcntdq)(in_ptrs.data(), n, filters,
                                                               spec, pool, out_ptrs.data());
        // Reference: n independent single-image runs of the same variant.
        for (std::int64_t b = 0; b < n; ++b) {
          Tensor ref = Tensor::hwc(oh, ow, s.k);
          testing::conv_dot_one(kernels::conv_dot_batch_kernel(v.isa, v.use_vpopcntdq),
                                in[static_cast<std::size_t>(b)], filters, spec, pool, ref);
          ASSERT_EQ(max_abs_diff(out[static_cast<std::size_t>(b)], ref), 0.0f)
              << "kernel conv_dot_batch[" << v.name << "] image " << b << "/" << n
              << " diverges from its single-image run, shape " << describe(s);
        }
      }
    }
  }
}

TEST(IsaParity, PressedConvBinarizeBatchMatchesSingleImageAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 7000;
  for (const ConvShape& s : conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    std::vector<float> thresholds(static_cast<std::size_t>(s.k));
    std::mt19937_64 trng(seed++);
    std::uniform_real_distribution<float> tdist(-3.0f, 3.0f);
    for (auto& t : thresholds) t = tdist(trng);

    const std::int64_t n = 3;
    std::vector<PackedTensor> in;
    std::vector<const PackedTensor*> in_ptrs;
    for (std::int64_t b = 0; b < n; ++b) {
      in.emplace_back(s.h, s.w, s.c);
      fill_random_bits(in.back(), seed++);
    }
    for (const PackedTensor& t : in) in_ptrs.push_back(&t);

    for (const IsaVariant& v : variants) {
      std::vector<PackedTensor> out;
      std::vector<PackedTensor*> out_ptrs;
      for (std::int64_t b = 0; b < n; ++b) {
        out.emplace_back(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
      }
      for (PackedTensor& t : out) out_ptrs.push_back(&t);
      kernels::conv_binarize_batch_kernel(v.isa, v.use_vpopcntdq)(
          in_ptrs.data(), n, filters, spec, thresholds.data(), pool, out_ptrs.data(),
          s.margin);
      for (std::int64_t b = 0; b < n; ++b) {
        PackedTensor ref(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
        testing::conv_binarize_one(kernels::conv_binarize_batch_kernel(v.isa, v.use_vpopcntdq),
                                   in[static_cast<std::size_t>(b)], filters, spec,
                                   thresholds.data(), pool, ref, s.margin);
        for (std::int64_t i = 0; i < ref.num_words(); ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(b)].words()[i], ref.words()[i])
              << "kernel conv_binarize_batch[" << v.name << "] image " << b
              << " diverges from its single-image run at word " << i << ", shape "
              << describe(s);
        }
      }
    }
  }
}

TEST(IsaParity, ConvBatchArgChecks) {
  PackedTensor a(4, 4, 8), b(4, 4, 8), wrong(5, 4, 8);
  PackedFilterBank filters(2, 3, 3, 8);
  const ConvSpec spec{3, 3, 1};
  const PackedTensor* ok[] = {&a, &b};
  EXPECT_NO_THROW(kernels::check_conv_batch_args(ok, 2, filters, spec));
  EXPECT_THROW(kernels::check_conv_batch_args(ok, 0, filters, spec), std::invalid_argument);
  const PackedTensor* mixed[] = {&a, &wrong};
  EXPECT_THROW(kernels::check_conv_batch_args(mixed, 2, filters, spec),
               std::invalid_argument);
}

// --- row-limited bgemm -----------------------------------------------------

TEST(IsaParity, BgemmRowsMatchesFullAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 8000;
  for (const GemmShape& s : gemm_shapes()) {
    // A carries max_batch rows; only the first m_rows are computed — the
    // serving path's "fill n of max_batch rows" usage.
    const std::int64_t rows = s.m + 3;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);

    std::vector<float> full(static_cast<std::size_t>(rows * s.k));
    kernels::bgemm_rows_kernel(IsaLevel::kU64, false)(a, a.rows(), w, pool, full.data());

    for (const IsaVariant& v : variants) {
      std::vector<float> y(static_cast<std::size_t>(s.m * s.k), -777.0f);
      kernels::bgemm_rows_kernel(v.isa, v.use_vpopcntdq)(a, s.m, w, pool, y.data());
      for (std::int64_t i = 0; i < s.m * s.k; ++i) {
        ASSERT_EQ(y[static_cast<std::size_t>(i)], full[static_cast<std::size_t>(i)])
            << "kernel bgemm_rows[" << v.name << "] diverges from full bgemm at element "
            << i << ", shape " << describe(s) << " m_rows=" << s.m;
      }
    }
  }
}

TEST(IsaParity, BgemmBinarizeRowsMatchesFullAndLeavesTailUntouched) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 9000;
  for (const GemmShape& s : gemm_shapes()) {
    const std::int64_t rows = s.m + 2;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    std::vector<float> thresholds(static_cast<std::size_t>(s.k));
    std::mt19937_64 trng(seed++);
    std::uniform_real_distribution<float> tdist(-5.0f, 5.0f);
    for (auto& t : thresholds) t = tdist(trng);

    PackedMatrix full(rows, s.k);
    kernels::bgemm_binarize_rows_kernel(IsaLevel::kU64, false)(a, a.rows(), w, thresholds.data(),
                                                               pool, full);

    for (const IsaVariant& v : variants) {
      PackedMatrix out(rows, s.k);
      fill_random_bits(out, seed);  // same fill per variant: sentinel for rows >= m_rows
      PackedMatrix sentinel(rows, s.k);
      fill_random_bits(sentinel, seed);
      kernels::bgemm_binarize_rows_kernel(v.isa, v.use_vpopcntdq)(a, s.m, w,
                                                                  thresholds.data(), pool, out);
      const std::int64_t words_per_row = out.num_words() / rows;
      for (std::int64_t m = 0; m < rows; ++m) {
        const PackedMatrix& want = m < s.m ? full : sentinel;
        for (std::int64_t i = m * words_per_row; i < (m + 1) * words_per_row; ++i) {
          ASSERT_EQ(out.words()[i], want.words()[i])
              << "kernel bgemm_binarize_rows[" << v.name << "] row " << m
              << (m < s.m ? " diverges from full bgemm_binarize" : " was not left untouched")
              << " at word " << i << ", shape " << describe(s) << " m_rows=" << s.m;
        }
      }
    }
    ++seed;
  }
}

// --- register-tiled PressedConv / bgemm (interleaved weight layout) --------
//
// The conv_shapes() K values (3..40) and gemm_shapes() k values straddle the
// tile widths (4 and 8), so K < T, K = T exactly, and K % T != 0 remainder
// paths are all exercised on every variant.

TEST(IsaParity, TileFiltersIsAPermutation) {
  std::uint64_t seed = 11000;
  for (const ConvShape& s : conv_shapes()) {
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    for (std::int64_t tile : {4, 8}) {
      const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
      ASSERT_EQ(tiled.num_filters(), s.k);
      if (window_folds(s.kernel, s.kernel, s.c)) {
        // Narrow windows fold to one word per filter instead (checked bit
        // by bit in FoldedBankConcatenatesTapsAndOnlyNarrowWindowsFold).
        ASSERT_TRUE(tiled.folded()) << describe(s);
        ASSERT_EQ(tiled.rows().num_words(), s.k);
        continue;
      }
      ASSERT_FALSE(tiled.folded()) << describe(s);
      ASSERT_EQ(tiled.words_per_filter(), filters.words_per_filter());
      ASSERT_EQ(tiled.rows().num_words(), s.k * filters.words_per_filter());
      for (std::int64_t k = 0; k < s.k; ++k) {
        for (std::int64_t w = 0; w < filters.words_per_filter(); ++w) {
          ASSERT_EQ(tiled.rows().row_word(k, w), filters.filter(k)[w])
              << "tile_filters lost word " << w << " of filter " << k << " at tile " << tile
              << ", shape " << describe(s);
        }
      }
    }
  }
}

TEST(IsaParity, PressedConvTiledDotMatchesUntiledAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 12000;
  for (const ConvShape& s : conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);

    for (std::int64_t n : {1, 3}) {
      std::vector<PackedTensor> in;
      std::vector<const PackedTensor*> in_ptrs;
      for (std::int64_t b = 0; b < n; ++b) {
        in.emplace_back(s.h, s.w, s.c);
        fill_random_bits(in.back(), seed++);
      }
      for (const PackedTensor& t : in) in_ptrs.push_back(&t);

      for (const IsaVariant& v : variants) {
        const TiledFilterBank tiled =
            bitpack::tile_filters(filters, kernels::weight_tile_width(v.isa));
        std::vector<Tensor> out, ref;
        std::vector<Tensor*> out_ptrs, ref_ptrs;
        for (std::int64_t b = 0; b < n; ++b) {
          out.push_back(Tensor::hwc(oh, ow, s.k));
          ref.push_back(Tensor::hwc(oh, ow, s.k));
        }
        for (Tensor& t : out) out_ptrs.push_back(&t);
        for (Tensor& t : ref) ref_ptrs.push_back(&t);
        kernels::conv_dot_batch_kernel(v.isa, v.use_vpopcntdq)(in_ptrs.data(), n, filters,
                                                               spec, pool, ref_ptrs.data());
        kernels::conv_dot_tiled_batch_kernel(v.isa, v.use_vpopcntdq,
                                             kernels::weight_tile_width(v.isa))(
            in_ptrs.data(), n, tiled, spec, pool, out_ptrs.data());
        for (std::int64_t b = 0; b < n; ++b) {
          ASSERT_EQ(max_abs_diff(out[static_cast<std::size_t>(b)],
                                 ref[static_cast<std::size_t>(b)]),
                    0.0f)
              << "kernel conv_dot_tiled_batch[" << v.name << "] image " << b << "/" << n
              << " diverges from the filter-major kernel, shape " << describe(s);
        }
      }
    }
  }
}

TEST(IsaParity, PressedConvTiledBinarizeMatchesUntiledAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 13000;
  for (const ConvShape& s : conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    std::vector<float> thresholds(static_cast<std::size_t>(s.k));
    std::mt19937_64 trng(seed++);
    std::uniform_real_distribution<float> tdist(-3.0f, 3.0f);
    for (auto& t : thresholds) t = tdist(trng);

    const std::int64_t n = 2;
    std::vector<PackedTensor> in;
    std::vector<const PackedTensor*> in_ptrs;
    for (std::int64_t b = 0; b < n; ++b) {
      in.emplace_back(s.h, s.w, s.c);
      fill_random_bits(in.back(), seed++);
    }
    for (const PackedTensor& t : in) in_ptrs.push_back(&t);

    for (const IsaVariant& v : variants) {
      const TiledFilterBank tiled =
          bitpack::tile_filters(filters, kernels::weight_tile_width(v.isa));
      std::vector<PackedTensor> out, ref;
      std::vector<PackedTensor*> out_ptrs, ref_ptrs;
      for (std::int64_t b = 0; b < n; ++b) {
        out.emplace_back(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
        ref.emplace_back(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
      }
      for (PackedTensor& t : out) out_ptrs.push_back(&t);
      for (PackedTensor& t : ref) ref_ptrs.push_back(&t);
      kernels::conv_binarize_batch_kernel(v.isa, v.use_vpopcntdq)(
          in_ptrs.data(), n, filters, spec, thresholds.data(), pool, ref_ptrs.data(),
          s.margin);
      kernels::conv_binarize_tiled_batch_kernel(v.isa, v.use_vpopcntdq,
                                                kernels::weight_tile_width(v.isa))(
          in_ptrs.data(), n, tiled, spec, thresholds.data(), pool, out_ptrs.data(), s.margin);
      for (std::int64_t b = 0; b < n; ++b) {
        for (std::int64_t i = 0; i < ref[static_cast<std::size_t>(b)].num_words(); ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(b)].words()[i],
                    ref[static_cast<std::size_t>(b)].words()[i])
              << "kernel conv_binarize_tiled_batch[" << v.name << "] image " << b
              << " diverges from the filter-major kernel at word " << i << ", shape "
              << describe(s);
        }
      }
    }
  }
}

// --- folded-window PressedConv (narrow layers, e.g. VGG conv1.1) -----------
//
// When kh*kw*C <= 64 with more than one tap, tile_filters folds each filter
// into one word and the tiled kernels gather one window word per output
// pixel.  Every ISA variant and every tile width it stamps must stay
// bit-exact with the filter-major scalar kernel, for the dot and the fused
// binarize entry points, including thresholds the integer popcount bound
// has to get exactly right (NaN, +-inf, huge, integer, non-integer, null).

struct FoldShape {
  std::int64_t h, w, c, k, kernel, stride, pad, margin;
};

std::string describe(const FoldShape& s) {
  return "in " + std::to_string(s.h) + "x" + std::to_string(s.w) + "x" + std::to_string(s.c) +
         " (+pad " + std::to_string(s.pad) + ") K=" + std::to_string(s.k) + " kernel=" +
         std::to_string(s.kernel) + " stride=" + std::to_string(s.stride) +
         " margin=" + std::to_string(s.margin);
}

std::vector<FoldShape> fold_shapes() {
  return {
      {9, 9, 1, 64, 3, 1, 0, 0},     // C = 1: 9 bits, K = 64 exactly one word
      {8, 7, 2, 70, 3, 1, 1, 1},     // C = 2, K % T != 0 for every T, two words
      {12, 12, 3, 64, 3, 1, 1, 1},   // VGG conv1.1 shape class (27 bits), pad 1
      {11, 10, 3, 13, 3, 2, 1, 0},   // stride 2, K % T != 0
      {7, 9, 7, 130, 3, 1, 1, 2},    // C = 7: 63 bits; K > 64: three output words
      {9, 10, 2, 33, 5, 1, 0, 0},    // 5x5, C = 2: 50 bits
      {10, 9, 2, 9, 5, 2, 1, 1},     // 5x5 stride 2
      {6, 6, 3, 3, 3, 1, 0, 0},      // K = 3 below every tile width
      {8, 8, 22, 20, 3, 1, 1, 0},    // C = 22: 198 bits, must NOT fold
  };
}

/// Random (h, w, c) activations inside a zero border of `pad` pixels: the
/// buffer a padded conv layer reads.
PackedTensor padded_random_input(const FoldShape& s, std::uint64_t seed) {
  PackedTensor interior(s.h, s.w, s.c);
  fill_random_bits(interior, seed);
  PackedTensor out(s.h + 2 * s.pad, s.w + 2 * s.pad, s.c);
  for (std::int64_t y = 0; y < s.h; ++y) {
    for (std::int64_t x = 0; x < s.w; ++x) {
      std::copy_n(interior.pixel(y, x), interior.words_per_pixel(),
                  out.pixel(y + s.pad, x + s.pad));
    }
  }
  return out;
}

/// Thresholds cycling through the values the integer bound must handle
/// exactly, then random non-integers across the whole dot range.
std::vector<float> adversarial_thresholds(std::int64_t k, std::int64_t bits,
                                          std::uint64_t seed) {
  const float special[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           1e30f,
                           -1e30f,
                           0.0f,
                           -0.0f,
                           1.0f,
                           -1.0f,
                           0.5f,
                           -0.5f,
                           2.75f,
                           -3.25f,
                           static_cast<float>(bits),
                           static_cast<float>(-bits),
                           static_cast<float>(bits) + 0.5f,
                           static_cast<float>(-bits) - 0.5f};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(static_cast<float>(-bits) - 2.0f,
                                             static_cast<float>(bits) + 2.0f);
  std::vector<float> th(static_cast<std::size_t>(k));
  const std::size_t n_special = sizeof special / sizeof special[0];
  for (std::size_t i = 0; i < th.size(); ++i) {
    th[i] = i < n_special ? special[i] : dist(rng);
  }
  std::shuffle(th.begin(), th.end(), rng);
  return th;
}

TEST(IsaParity, FoldedBankConcatenatesTapsAndOnlyNarrowWindowsFold) {
  EXPECT_TRUE(window_folds(3, 3, 3));
  EXPECT_TRUE(window_folds(3, 3, 7));    // 63 bits
  EXPECT_TRUE(window_folds(5, 5, 2));    // 50 bits
  EXPECT_TRUE(window_folds(2, 2, 16));   // exactly 64 bits
  EXPECT_FALSE(window_folds(3, 3, 8));   // 72 bits
  EXPECT_FALSE(window_folds(3, 3, 22));
  EXPECT_FALSE(window_folds(1, 1, 3));   // one tap: already one word
  std::uint64_t seed = 15000;
  for (const FoldShape& s : fold_shapes()) {
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const bool folds = window_folds(s.kernel, s.kernel, s.c);
    EXPECT_EQ(folds, s.c != 22) << describe(s);
    for (std::int64_t tile : {4, 8, 16}) {
      const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
      ASSERT_EQ(tiled.folded(), folds) << describe(s);
      if (!folds) continue;
      ASSERT_EQ(tiled.words_per_filter(), 1);
      ASSERT_EQ(tiled.rows().num_words(), s.k) << "folded bank must be kh*kw times smaller";
      for (std::int64_t k = 0; k < s.k; ++k) {
        for (std::int64_t i = 0; i < s.kernel; ++i) {
          for (std::int64_t j = 0; j < s.kernel; ++j) {
            for (std::int64_t c = 0; c < s.c; ++c) {
              const std::int64_t bit = (i * s.kernel + j) * s.c + c;
              ASSERT_EQ((tiled.rows().row_word(k, 0) >> bit) & 1u,
                        filters.get_bit(k, i, j, c) ? 1u : 0u)
                  << "folded bit (" << i << "," << j << "," << c << ") of filter " << k
                  << " at tile " << tile << ", shape " << describe(s);
            }
          }
        }
        // Nothing above the window's bits.
        const std::int64_t bits = s.kernel * s.kernel * s.c;
        if (bits < 64) {
          ASSERT_EQ(tiled.rows().row_word(k, 0) >> bits, 0u);
        }
      }
    }
  }
}

TEST(IsaParity, FoldedConvDotMatchesFilterMajorAllVariantsAndTiles) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 16000;
  for (const FoldShape& s : fold_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const std::int64_t n = 2;
    std::vector<PackedTensor> in;
    std::vector<const PackedTensor*> in_ptrs;
    for (std::int64_t b = 0; b < n; ++b) in.push_back(padded_random_input(s, seed++));
    for (const PackedTensor& t : in) in_ptrs.push_back(&t);
    const std::int64_t oh = spec.out_h(in[0].height()), ow = spec.out_w(in[0].width());

    std::vector<Tensor> ref;
    std::vector<Tensor*> ref_ptrs;
    for (std::int64_t b = 0; b < n; ++b) ref.push_back(Tensor::hwc(oh, ow, s.k));
    for (Tensor& t : ref) ref_ptrs.push_back(&t);
    kernels::conv_dot_batch_kernel(IsaLevel::kU64, false)(in_ptrs.data(), n, filters, spec, pool,
                                                          ref_ptrs.data());
    ASSERT_EQ(max_abs_diff(ref[0], testing::reference_binary_conv(in[0], filters, spec)), 0.0f)
        << "kernel conv_dot_batch[u64] vs naive reference, shape " << describe(s);

    for (const IsaVariant& v : variants) {
      const kernels::TileWidthSet widths = kernels::supported_tile_widths(v.isa);
      for (std::int64_t i = 0; i < widths.count; ++i) {
        const std::int64_t tile = widths.widths[static_cast<std::size_t>(i)];
        const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
        std::vector<Tensor> out;
        std::vector<Tensor*> out_ptrs;
        for (std::int64_t b = 0; b < n; ++b) out.push_back(Tensor::hwc(oh, ow, s.k));
        for (Tensor& t : out) out_ptrs.push_back(&t);
        kernels::conv_dot_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile)(
            in_ptrs.data(), n, tiled, spec, pool, out_ptrs.data());
        for (std::int64_t b = 0; b < n; ++b) {
          ASSERT_EQ(max_abs_diff(out[static_cast<std::size_t>(b)],
                                 ref[static_cast<std::size_t>(b)]),
                    0.0f)
              << "kernel conv_dot_tiled_batch[" << v.name << ",t" << tile
              << (tiled.folded() ? ",fold" : "") << "] image " << b
              << " diverges from the filter-major u64 kernel, shape " << describe(s);
        }
      }
    }
  }
}

TEST(IsaParity, FoldedConvBinarizeMatchesFilterMajorAllVariantsAndTiles) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 17000;
  for (const FoldShape& s : fold_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const std::int64_t n = 2;
    std::vector<PackedTensor> in;
    std::vector<const PackedTensor*> in_ptrs;
    for (std::int64_t b = 0; b < n; ++b) in.push_back(padded_random_input(s, seed++));
    for (const PackedTensor& t : in) in_ptrs.push_back(&t);
    const std::int64_t oh = spec.out_h(in[0].height()), ow = spec.out_w(in[0].width());
    const std::vector<float> adversarial =
        adversarial_thresholds(s.k, s.kernel * s.kernel * s.c, seed++);

    for (const float* thresholds : {adversarial.data(), static_cast<const float*>(nullptr)}) {
      const std::string th_name = thresholds != nullptr ? "adversarial" : "null";
      auto make_outputs = [&](std::vector<PackedTensor>& t, std::vector<PackedTensor*>& p) {
        for (std::int64_t b = 0; b < n; ++b) {
          t.emplace_back(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
        }
        for (PackedTensor& x : t) p.push_back(&x);
      };
      std::vector<PackedTensor> ref;
      std::vector<PackedTensor*> ref_ptrs;
      make_outputs(ref, ref_ptrs);
      kernels::conv_binarize_batch_kernel(IsaLevel::kU64, false)(
          in_ptrs.data(), n, filters, spec, thresholds, pool, ref_ptrs.data(), s.margin);
      for (const IsaVariant& v : variants) {
        const kernels::TileWidthSet widths = kernels::supported_tile_widths(v.isa);
        for (std::int64_t i = 0; i < widths.count; ++i) {
          const std::int64_t tile = widths.widths[static_cast<std::size_t>(i)];
          const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
          std::vector<PackedTensor> out;
          std::vector<PackedTensor*> out_ptrs;
          make_outputs(out, out_ptrs);
          kernels::conv_binarize_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile)(
              in_ptrs.data(), n, tiled, spec, thresholds, pool, out_ptrs.data(), s.margin);
          // Whole-buffer compare: payload bits, zero tails and margin.
          for (std::int64_t b = 0; b < n; ++b) {
            const PackedTensor& o = out[static_cast<std::size_t>(b)];
            const PackedTensor& r = ref[static_cast<std::size_t>(b)];
            for (std::int64_t w = 0; w < r.num_words(); ++w) {
              ASSERT_EQ(o.words()[w], r.words()[w])
                  << "kernel conv_binarize_tiled_batch[" << v.name << ",t" << tile
                  << (tiled.folded() ? ",fold" : "") << "] image " << b << " word " << w
                  << " diverges from the filter-major u64 kernel, " << th_name
                  << " thresholds, shape " << describe(s);
            }
          }
        }
      }
    }
  }
}

// --- integer popcount-bound epilogue of the tiled binarize kernels ---------
//
// Every register-tiled binarize kernel tests `pops <= popcount_bound(th)`
// instead of `float(bits - 2*pops) >= th`.  The bound must agree with the
// float compare of the filter-major kernels for every threshold class, on
// every ISA variant and every stamped tile width: words per pixel 1..3
// (1 with a 3x3 window is the hoisted nine-word case), 1x1 and 5x5
// windows, stride 2, margins 0..2, and K in {3, 64, 65, 130} so K < T,
// K % T != 0 and K spanning several output words all occur.

std::vector<ConvShape> bound_conv_shapes() {
  return {
      {9, 9, 64, 64, 3, 1, 1},     // 1 word, 3x3 (hoisted), K one output word
      {8, 10, 20, 65, 3, 2, 0},    // 1 ragged word, 3x3 stride 2, K % T != 0
      {7, 7, 64, 130, 3, 1, 2},    // 1 word, 3x3, three output words
      {6, 7, 33, 3, 3, 1, 0},      // 1 word, 3x3, K below every tile width
      {7, 6, 100, 65, 3, 1, 1},    // 2 words, 3x3
      {6, 6, 128, 130, 3, 2, 2},   // 2 words, 3x3 stride 2
      {6, 7, 150, 64, 3, 1, 0},    // 3 words, 3x3
      {5, 5, 192, 3, 3, 1, 1},     // 3 words, K = 3
      {5, 6, 64, 65, 1, 1, 0},     // 1x1, 1 word
      {5, 5, 130, 130, 1, 2, 1},   // 1x1, 3 words, stride 2
      {9, 8, 3, 64, 5, 1, 1},      // 5x5, 75 bits: too wide to fold
      {9, 9, 100, 65, 5, 2, 2},    // 5x5, 2 words, stride 2
  };
}

TEST(IsaParity, TiledConvBinarizeIntegerBoundAllVariantsAndTiles) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 18000;
  for (const ConvShape& s : bound_conv_shapes()) {
    const ConvSpec spec{s.kernel, s.kernel, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);
    PackedFilterBank filters(s.k, s.kernel, s.kernel, s.c);
    fill_random_bits(filters, seed++);
    const std::int64_t n = 2;
    std::vector<PackedTensor> in;
    std::vector<const PackedTensor*> in_ptrs;
    for (std::int64_t b = 0; b < n; ++b) {
      in.emplace_back(s.h, s.w, s.c);
      fill_random_bits(in.back(), seed++);
    }
    for (const PackedTensor& t : in) in_ptrs.push_back(&t);
    const std::vector<float> adversarial =
        adversarial_thresholds(s.k, s.kernel * s.kernel * s.c, seed++);

    for (const float* thresholds : {adversarial.data(), static_cast<const float*>(nullptr)}) {
      const std::string th_name = thresholds != nullptr ? "adversarial" : "null";
      auto make_outputs = [&](std::vector<PackedTensor>& t, std::vector<PackedTensor*>& p) {
        for (std::int64_t b = 0; b < n; ++b) {
          t.emplace_back(oh + 2 * s.margin, ow + 2 * s.margin, s.k);
        }
        for (PackedTensor& x : t) p.push_back(&x);
      };
      std::vector<PackedTensor> ref;
      std::vector<PackedTensor*> ref_ptrs;
      make_outputs(ref, ref_ptrs);
      kernels::conv_binarize_batch_kernel(IsaLevel::kU64, false)(
          in_ptrs.data(), n, filters, spec, thresholds, pool, ref_ptrs.data(), s.margin);
      for (const IsaVariant& v : variants) {
        const kernels::TileWidthSet widths = kernels::supported_tile_widths(v.isa);
        for (std::int64_t i = 0; i < widths.count; ++i) {
          const std::int64_t tile = widths.widths[static_cast<std::size_t>(i)];
          const TiledFilterBank tiled = bitpack::tile_filters(filters, tile);
          ASSERT_FALSE(tiled.folded()) << describe(s);
          std::vector<PackedTensor> out;
          std::vector<PackedTensor*> out_ptrs;
          make_outputs(out, out_ptrs);
          kernels::conv_binarize_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile)(
              in_ptrs.data(), n, tiled, spec, thresholds, pool, out_ptrs.data(), s.margin);
          // Whole-buffer compare: payload bits, zero tails and margin.
          for (std::int64_t b = 0; b < n; ++b) {
            const PackedTensor& o = out[static_cast<std::size_t>(b)];
            const PackedTensor& r = ref[static_cast<std::size_t>(b)];
            for (std::int64_t w = 0; w < r.num_words(); ++w) {
              ASSERT_EQ(o.words()[w], r.words()[w])
                  << "kernel conv_binarize_tiled_batch[" << v.name << ",t" << tile
                  << "] image " << b << " word " << w
                  << " diverges from the filter-major u64 kernel, " << th_name
                  << " thresholds, shape " << describe(s);
            }
          }
        }
      }
    }
  }
}

TEST(IsaParity, TiledBgemmBinarizeIntegerBoundAllVariantsAndTiles) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  const std::vector<GemmShape> shapes = {
      {1, 1, 3},     {2, 64, 64},  {3, 513, 65},  {1, 1000, 130},
      {2, 63, 130},  {1, 4096, 65}, {2, 200, 3},  {1, 130, 64},
  };
  std::uint64_t seed = 19000;
  for (const GemmShape& s : shapes) {
    // One row past m_rows, which every kernel must leave untouched.
    const std::int64_t rows = s.m + 1;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    const std::vector<float> adversarial = adversarial_thresholds(s.k, s.n_bits, seed++);

    for (const float* thresholds : {adversarial.data(), static_cast<const float*>(nullptr)}) {
      const std::string th_name = thresholds != nullptr ? "adversarial" : "null";
      PackedMatrix ref(rows, s.k);
      kernels::bgemm_binarize_rows_kernel(IsaLevel::kU64, false)(a, s.m, w, thresholds, pool,
                                                                 ref);
      for (const IsaVariant& v : variants) {
        const kernels::TileWidthSet widths = kernels::supported_tile_widths(v.isa);
        for (std::int64_t i = 0; i < widths.count; ++i) {
          const std::int64_t tile = widths.widths[static_cast<std::size_t>(i)];
          const TiledBitMatrix tiled = bitpack::tile_fc_weights(w, tile);
          PackedMatrix out(rows, s.k);
          kernels::bgemm_binarize_rows_tiled_kernel(v.isa, v.use_vpopcntdq, tile)(
              a, s.m, tiled, thresholds, pool, out);
          for (std::int64_t wi = 0; wi < ref.num_words(); ++wi) {
            ASSERT_EQ(out.words()[wi], ref.words()[wi])
                << "kernel bgemm_binarize_rows_tiled[" << v.name << ",t" << tile
                << "] diverges from the filter-major u64 kernel at word " << wi << ", "
                << th_name << " thresholds, shape " << describe(s) << " m_rows=" << s.m;
          }
        }
      }
    }
  }
}

TEST(IsaParity, TiledKernelRejectsMismatchedTileWidth) {
  runtime::ThreadPool pool(1);
  PackedTensor in(4, 4, 8);
  PackedFilterBank filters(8, 3, 3, 8);
  const ConvSpec spec{3, 3, 1};
  const PackedTensor* in_ptr = &in;
  Tensor out = Tensor::hwc(2, 2, 8);
  Tensor* out_ptr = &out;
  for (const IsaVariant& v : simd::supported_isa_variants()) {
    const std::int64_t right = kernels::weight_tile_width(v.isa);
    const std::int64_t wrong = right == 4 ? 8 : 4;
    const TiledFilterBank bad = bitpack::tile_filters(filters, wrong);
    EXPECT_THROW(kernels::conv_dot_tiled_batch_kernel(v.isa, v.use_vpopcntdq, right)(
                     &in_ptr, 1, bad, spec, pool, &out_ptr),
                 std::invalid_argument)
        << "variant " << v.name;
  }
}

// The tile-parameterized getters are the only way the tuner and the graph
// reach a tiled kernel: a width the variant stamps must come back non-null,
// and any other width must throw rather than fall back to some other kernel.
TEST(IsaParity, TiledGettersReturnExactlyTheStampedWidths) {
  std::vector<std::int64_t> tiles;
  for (std::int64_t t = 0; t <= 17; ++t) tiles.push_back(t);
  tiles.push_back(32);
  for (const IsaVariant& v : simd::supported_isa_variants()) {
    const kernels::TileWidthSet widths = kernels::supported_tile_widths(v.isa);
    const bool wide = v.isa >= IsaLevel::kAvx2;
    EXPECT_EQ(widths.count, wide ? 3 : 2) << "variant " << v.name;
    EXPECT_TRUE(widths.contains(4)) << "variant " << v.name;
    EXPECT_TRUE(widths.contains(8)) << "variant " << v.name;
    EXPECT_EQ(widths.contains(16), wide) << "variant " << v.name;
    EXPECT_TRUE(widths.contains(kernels::weight_tile_width(v.isa))) << "variant " << v.name;
    for (const std::int64_t tile : tiles) {
      const std::string where = std::string("variant ") + std::string(v.name) + " tile " +
                                std::to_string(tile);
      if (widths.contains(tile)) {
        EXPECT_NE(kernels::conv_dot_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile), nullptr)
            << where;
        EXPECT_NE(kernels::conv_binarize_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile),
                  nullptr)
            << where;
        EXPECT_NE(kernels::bgemm_rows_tiled_kernel(v.isa, v.use_vpopcntdq, tile), nullptr)
            << where;
        EXPECT_NE(kernels::bgemm_binarize_rows_tiled_kernel(v.isa, v.use_vpopcntdq, tile),
                  nullptr)
            << where;
      } else {
        EXPECT_THROW((void)kernels::conv_dot_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile),
                     std::invalid_argument)
            << where;
        EXPECT_THROW(
            (void)kernels::conv_binarize_tiled_batch_kernel(v.isa, v.use_vpopcntdq, tile),
            std::invalid_argument)
            << where;
        EXPECT_THROW((void)kernels::bgemm_rows_tiled_kernel(v.isa, v.use_vpopcntdq, tile),
                     std::invalid_argument)
            << where;
        EXPECT_THROW(
            (void)kernels::bgemm_binarize_rows_tiled_kernel(v.isa, v.use_vpopcntdq, tile),
            std::invalid_argument)
            << where;
      }
    }
  }
}

TEST(IsaParity, BgemmTiledRowsMatchesUntiledAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 14000;
  for (const GemmShape& s : gemm_shapes()) {
    const std::int64_t rows = s.m + 2;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);

    std::vector<float> ref(static_cast<std::size_t>(s.m * s.k));
    kernels::bgemm_rows_kernel(IsaLevel::kU64, false)(a, s.m, w, pool, ref.data());

    for (const IsaVariant& v : variants) {
      const TiledBitMatrix tiled = bitpack::tile_fc_weights(w, kernels::weight_tile_width(v.isa));
      std::vector<float> y(static_cast<std::size_t>(s.m * s.k), -777.0f);
      kernels::bgemm_rows_tiled_kernel(v.isa, v.use_vpopcntdq, kernels::weight_tile_width(v.isa))(
          a, s.m, tiled, pool, y.data());
      for (std::int64_t i = 0; i < s.m * s.k; ++i) {
        ASSERT_EQ(y[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)])
            << "kernel bgemm_rows_tiled[" << v.name << "] diverges at element " << i
            << ", shape " << describe(s) << " m_rows=" << s.m;
      }
    }
  }
}

TEST(IsaParity, BgemmTiledBinarizeRowsMatchesUntiledAllVariants) {
  runtime::ThreadPool pool(3);
  const auto variants = simd::supported_isa_variants();
  std::uint64_t seed = 15000;
  for (const GemmShape& s : gemm_shapes()) {
    const std::int64_t rows = s.m + 1;
    PackedMatrix a(rows, s.n_bits), w(s.k, s.n_bits);
    fill_random_bits(a, seed++);
    fill_random_bits(w, seed++);
    std::vector<float> thresholds(static_cast<std::size_t>(s.k));
    std::mt19937_64 trng(seed++);
    std::uniform_real_distribution<float> tdist(-5.0f, 5.0f);
    for (auto& t : thresholds) t = tdist(trng);

    PackedMatrix ref(rows, s.k);
    kernels::bgemm_binarize_rows_kernel(IsaLevel::kU64, false)(a, s.m, w, thresholds.data(),
                                                               pool, ref);
    for (const IsaVariant& v : variants) {
      const TiledBitMatrix tiled = bitpack::tile_fc_weights(w, kernels::weight_tile_width(v.isa));
      PackedMatrix out(rows, s.k);
      kernels::bgemm_binarize_rows_tiled_kernel(v.isa, v.use_vpopcntdq,
                                                kernels::weight_tile_width(v.isa))(
          a, s.m, tiled, thresholds.data(), pool, out);
      const std::int64_t words_per_row = out.num_words() / rows;
      for (std::int64_t i = 0; i < s.m * words_per_row; ++i) {
        ASSERT_EQ(out.words()[i], ref.words()[i])
            << "kernel bgemm_binarize_rows_tiled[" << v.name << "] diverges at word " << i
            << ", shape " << describe(s) << " m_rows=" << s.m;
      }
    }
  }
}

// --- binary max pool -------------------------------------------------------

struct PoolShape {
  std::int64_t h, w, c, pool, stride, margin;
};

std::string describe(const PoolShape& s) {
  return "in " + std::to_string(s.h) + "x" + std::to_string(s.w) + "x" + std::to_string(s.c) +
         " pool=" + std::to_string(s.pool) + " stride=" + std::to_string(s.stride) +
         " margin=" + std::to_string(s.margin);
}

std::vector<PoolShape> pool_shapes() {
  std::vector<PoolShape> shapes = {
      {2, 2, 1, 2, 2, 0},       // single output pixel, single channel
      {6, 6, 64, 2, 2, 1},      // word-exact, margin-carrying
      {7, 9, 65, 3, 2, 0},      // ragged channels, overlapping windows
      {8, 8, 513, 2, 2, 2},     // past AVX-512 width, fat margin
      {32, 32, 100, 2, 2, 0},   // large H*W
  };
  std::mt19937_64 rng(20260807);
  std::uniform_int_distribution<std::int64_t> dim(4, 16);
  std::uniform_int_distribution<std::int64_t> chan(1, 300);
  std::uniform_int_distribution<std::int64_t> ps(2, 3);
  std::uniform_int_distribution<std::int64_t> margin(0, 1);
  for (int i = 0; i < 5; ++i) {
    PoolShape s{};
    s.pool = ps(rng);
    s.stride = ps(rng);
    s.h = dim(rng) + s.pool;
    s.w = dim(rng) + s.pool;
    s.c = chan(rng);
    s.margin = margin(rng);
    shapes.push_back(s);
  }
  return shapes;
}

TEST(IsaParity, BinaryMaxpoolAllLevels) {
  runtime::ThreadPool pool(3);
  const auto levels = simd::supported_isa_levels();
  std::uint64_t seed = 5000;
  for (const PoolShape& s : pool_shapes()) {
    PackedTensor in(s.h, s.w, s.c);
    fill_random_bits(in, seed++);
    const PoolSpec spec{s.pool, s.pool, s.stride};
    const std::int64_t oh = spec.out_h(s.h), ow = spec.out_w(s.w);

    PackedTensor ref(oh + 2 * s.margin, ow + 2 * s.margin, s.c);
    kernels::binary_maxpool(in, spec, IsaLevel::kU64, pool, ref, s.margin);
    // Pin the scalar path to the decoded naive max pool (interior only).
    const Tensor naive = testing::reference_binary_maxpool(in, spec);
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        for (std::int64_t c = 0; c < s.c; ++c) {
          ASSERT_EQ(ref.get_bit(y + s.margin, x + s.margin, c), naive.at(y, x, c) >= 0.0f)
              << "kernel binary_maxpool[u64] vs naive at (" << y << "," << x << "," << c
              << "), shape " << describe(s);
        }
      }
    }

    for (IsaLevel isa : levels) {
      PackedTensor out(oh + 2 * s.margin, ow + 2 * s.margin, s.c);
      kernels::binary_maxpool(in, spec, isa, pool, out, s.margin);
      for (std::int64_t i = 0; i < ref.num_words(); ++i) {
        ASSERT_EQ(out.words()[i], ref.words()[i])
            << "kernel binary_maxpool[" << simd::isa_name(isa)
            << "] diverges from u64 at word " << i << ", shape " << describe(s);
      }
    }
  }
}

}  // namespace
}  // namespace bitflow
