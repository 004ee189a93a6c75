// PressedConv correctness: every ISA variant against the naive +-1
// reference, across shapes, strides, channel tails, and both output forms.
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "kernels/padding.hpp"
#include "kernels/pressedconv.hpp"
#include "simd/cpu_features.hpp"
#include "tensor/util.hpp"
#include "test_util.hpp"

namespace bitflow::kernels {
namespace {

using simd::IsaLevel;

struct ConvCase {
  std::int64_t h, w, c, k, kernel, stride;
};

class PressedConvParam
    : public ::testing::TestWithParam<std::tuple<IsaLevel, ConvCase>> {};

TEST_P(PressedConvParam, DotMatchesReference) {
  const auto [isa, cs] = GetParam();
  if (!simd::cpu_features().supports(isa)) GTEST_SKIP();
  PackedTensor in(cs.h, cs.w, cs.c);
  PackedFilterBank filters(cs.k, cs.kernel, cs.kernel, cs.c);
  fill_random_bits(in, 42);
  fill_random_bits(filters, 43);
  const ConvSpec spec{cs.kernel, cs.kernel, cs.stride};
  runtime::ThreadPool pool(2);
  Tensor out = Tensor::hwc(spec.out_h(cs.h), spec.out_w(cs.w), cs.k);
  testing::conv_dot_one(conv_dot_batch_kernel(isa, simd::cpu_features().avx512vpopcntdq), in,
                        filters, spec, pool, out);
  const Tensor ref = testing::reference_binary_conv(in, filters, spec);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f)
      << "isa=" << simd::isa_name(isa) << " h=" << cs.h << " c=" << cs.c;
}

TEST_P(PressedConvParam, BinarizeMatchesDotAcrossIsa) {
  const auto [isa, cs] = GetParam();
  if (!simd::cpu_features().supports(isa)) GTEST_SKIP();
  PackedTensor in(cs.h, cs.w, cs.c);
  PackedFilterBank filters(cs.k, cs.kernel, cs.kernel, cs.c);
  fill_random_bits(in, 142);
  fill_random_bits(filters, 143);
  const ConvSpec spec{cs.kernel, cs.kernel, cs.stride};
  runtime::ThreadPool pool(2);
  const std::int64_t oh = spec.out_h(cs.h), ow = spec.out_w(cs.w);
  Tensor dots = Tensor::hwc(oh, ow, cs.k);
  const bool vp = simd::cpu_features().avx512vpopcntdq;
  testing::conv_dot_one(conv_dot_batch_kernel(isa, vp), in, filters, spec, pool, dots);
  PackedTensor out(oh, ow, cs.k);
  testing::conv_binarize_one(conv_binarize_batch_kernel(isa, vp), in, filters, spec, nullptr,
                             pool, out, 0);
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t x = 0; x < ow; ++x) {
      for (std::int64_t k = 0; k < cs.k; ++k) {
        ASSERT_EQ(out.get_bit(y, x, k), dots.at(y, x, k) >= 0.0f)
            << simd::isa_name(isa) << " @" << y << "," << x << "," << k;
      }
      // Tail bits of each output pixel stay zero (packing invariant).
      const std::int64_t last = out.words_per_pixel() - 1;
      const std::int64_t valid = cs.k - last * 64;
      if (valid < 64) {
        ASSERT_EQ(out.pixel(y, x)[last] >> valid, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    IsaByShape, PressedConvParam,
    ::testing::Combine(
        ::testing::Values(IsaLevel::kU64, IsaLevel::kSse, IsaLevel::kAvx2, IsaLevel::kAvx512),
        ::testing::Values(ConvCase{6, 6, 64, 8, 3, 1},     // word-exact channels
                          ConvCase{6, 7, 128, 4, 3, 1},    // SSE-sized
                          ConvCase{5, 5, 256, 6, 3, 1},    // AVX2-sized
                          ConvCase{4, 6, 512, 3, 3, 1},    // AVX-512-sized
                          ConvCase{7, 7, 70, 5, 3, 1},     // tail bits in play
                          ConvCase{8, 8, 3, 4, 3, 1},      // conv1.1-style tiny C
                          ConvCase{9, 9, 96, 4, 3, 2},     // stride 2
                          ConvCase{5, 5, 64, 4, 1, 1},     // 1x1 kernel
                          ConvCase{7, 6, 192, 4, 5, 1})),  // 5x5 kernel
    [](const auto& info) {
      const auto& c = std::get<1>(info.param);
      return std::string(simd::isa_name(std::get<0>(info.param))) + "_h" +
             std::to_string(c.h) + "w" + std::to_string(c.w) + "c" + std::to_string(c.c) +
             "k" + std::to_string(c.k) + "f" + std::to_string(c.kernel) + "s" +
             std::to_string(c.stride);
    });

TEST(PressedConv, AllIsaVariantsAgree) {
  PackedTensor in(8, 8, 512);
  PackedFilterBank filters(16, 3, 3, 512);
  fill_random_bits(in, 1);
  fill_random_bits(filters, 2);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(1);
  Tensor base = Tensor::hwc(6, 6, 16);
  const bool vp = simd::cpu_features().avx512vpopcntdq;
  testing::conv_dot_one(conv_dot_batch_kernel(simd::IsaLevel::kU64, vp), in, filters, spec, pool,
                        base);
  for (IsaLevel isa : {IsaLevel::kSse, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (!simd::cpu_features().supports(isa)) continue;
    Tensor out = Tensor::hwc(6, 6, 16);
    testing::conv_dot_one(conv_dot_batch_kernel(isa, vp), in, filters, spec, pool, out);
    EXPECT_EQ(max_abs_diff(base, out), 0.0f) << simd::isa_name(isa);
  }
}

TEST(PressedConv, ThreadCountInvariance) {
  PackedTensor in(12, 12, 128);
  PackedFilterBank filters(8, 3, 3, 128);
  fill_random_bits(in, 5);
  fill_random_bits(filters, 6);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool p1(1), p4(4), p7(7);
  Tensor o1 = Tensor::hwc(10, 10, 8), o4 = Tensor::hwc(10, 10, 8), o7 = Tensor::hwc(10, 10, 8);
  pressed_conv_dot(in, filters, spec, p1, o1);
  pressed_conv_dot(in, filters, spec, p4, o4);
  pressed_conv_dot(in, filters, spec, p7, o7);
  EXPECT_EQ(max_abs_diff(o1, o4), 0.0f);
  EXPECT_EQ(max_abs_diff(o1, o7), 0.0f);
}

TEST(PressedConv, BinarizeMatchesDotPlusSign) {
  PackedTensor in(7, 7, 192);
  PackedFilterBank filters(70, 3, 3, 192);  // > 64 filters: multi-word output pixels
  fill_random_bits(in, 8);
  fill_random_bits(filters, 9);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(3);
  Tensor dots = Tensor::hwc(5, 5, 70);
  pressed_conv_dot(in, filters, spec, pool, dots);
  std::vector<float> thresholds(70);
  for (int k = 0; k < 70; ++k) thresholds[static_cast<std::size_t>(k)] = static_cast<float>(k % 7) - 3.0f;
  PackedTensor out(5, 5, 70);
  pressed_conv_binarize(in, filters, spec, thresholds.data(), pool, out, 0);
  for (std::int64_t y = 0; y < 5; ++y) {
    for (std::int64_t x = 0; x < 5; ++x) {
      for (std::int64_t k = 0; k < 70; ++k) {
        const bool expect = dots.at(y, x, k) >= thresholds[static_cast<std::size_t>(k)];
        ASSERT_EQ(out.get_bit(y, x, k), expect) << y << "," << x << "," << k;
      }
    }
  }
}

TEST(PressedConv, BinarizeNullThresholdIsSignAtZero) {
  PackedTensor in(5, 5, 64);
  PackedFilterBank filters(10, 3, 3, 64);
  fill_random_bits(in, 18);
  fill_random_bits(filters, 19);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(1);
  Tensor dots = Tensor::hwc(3, 3, 10);
  pressed_conv_dot(in, filters, spec, pool, dots);
  PackedTensor out(3, 3, 10);
  pressed_conv_binarize(in, filters, spec, nullptr, pool, out, 0);
  for (std::int64_t y = 0; y < 3; ++y) {
    for (std::int64_t x = 0; x < 3; ++x) {
      for (std::int64_t k = 0; k < 10; ++k) {
        ASSERT_EQ(out.get_bit(y, x, k), dots.at(y, x, k) >= 0.0f);
      }
    }
  }
}

TEST(PressedConv, BinarizeWithMarginLeavesBorderZero) {
  PackedTensor in(6, 6, 64);
  PackedFilterBank filters(64, 3, 3, 64);
  fill_random_bits(in, 12);
  fill_random_bits(filters, 13);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(2);
  PackedTensor out(6, 6, 64);  // 4x4 logical output + margin 1
  pressed_conv_binarize(in, filters, spec, nullptr, pool, out, 1);
  for (std::int64_t h = 0; h < 6; ++h) {
    for (std::int64_t w = 0; w < 6; ++w) {
      if (h == 0 || h == 5 || w == 0 || w == 5) {
        EXPECT_EQ(out.pixel(h, w)[0], 0u) << "margin must stay zero at " << h << "," << w;
      }
    }
  }
  // Interior must match the margin-0 run.
  PackedTensor flat(4, 4, 64);
  pressed_conv_binarize(in, filters, spec, nullptr, pool, flat, 0);
  for (std::int64_t h = 0; h < 4; ++h) {
    for (std::int64_t w = 0; w < 4; ++w) {
      EXPECT_EQ(out.pixel(h + 1, w + 1)[0], flat.pixel(h, w)[0]);
    }
  }
}

TEST(PressedConv, ZeroCostPaddingEqualsExplicitPad) {
  // The engine's padded-buffer scheme must equal convolving an explicitly
  // padded input: zero bits in the margin decode to -1.
  PackedTensor in(5, 5, 96);
  PackedFilterBank filters(8, 3, 3, 96);
  fill_random_bits(in, 14);
  fill_random_bits(filters, 15);
  const PackedTensor padded = pad_packed(in, 1);
  EXPECT_EQ(padded.height(), 7);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(5, 5, 8);
  pressed_conv_dot(padded, filters, spec, pool, out);
  const Tensor ref = testing::reference_binary_conv(padded, filters, spec);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

TEST(PressedConv, DotValuesHaveCorrectParityAndRange) {
  // Property: dot = N - 2*pop is in [-N, N] and has N's parity.
  PackedTensor in(4, 4, 70);
  PackedFilterBank filters(6, 3, 3, 70);
  fill_random_bits(in, 16);
  fill_random_bits(filters, 17);
  const ConvSpec spec{3, 3, 1};
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(2, 2, 6);
  pressed_conv_dot(in, filters, spec, pool, out);
  const std::int64_t n = filters.bits_per_filter();
  for (float v : out.elements()) {
    const auto d = static_cast<std::int64_t>(v);
    EXPECT_LE(std::abs(d), n);
    EXPECT_EQ((d - n) % 2, 0);
  }
}

TEST(PressedConv, ArgumentValidation) {
  PackedTensor in(4, 4, 64);
  PackedFilterBank filters(2, 3, 3, 128);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(2, 2, 2);
  EXPECT_THROW(pressed_conv_dot(in, filters, ConvSpec{3, 3, 1}, pool, out),
               std::invalid_argument);  // channel mismatch
  PackedFilterBank ok(2, 3, 3, 64);
  EXPECT_THROW(pressed_conv_dot(in, ok, ConvSpec{5, 5, 1}, pool, out),
               std::invalid_argument);  // spec/filter mismatch
  Tensor bad = Tensor::hwc(3, 3, 2);
  EXPECT_THROW(pressed_conv_dot(in, ok, ConvSpec{3, 3, 1}, pool, bad),
               std::invalid_argument);  // mis-shaped output
  PackedTensor out_bad(3, 3, 2);
  EXPECT_THROW(pressed_conv_binarize(in, ok, ConvSpec{3, 3, 1}, nullptr, pool, out_bad, 1),
               std::invalid_argument);  // margin mismatch
}

TEST(Padding, PadPackedAndCopyInterior) {
  PackedTensor in(3, 3, 70);
  fill_random_bits(in, 50);
  const PackedTensor padded = pad_packed(in, 2);
  EXPECT_EQ(padded.height(), 7);
  EXPECT_EQ(padded.width(), 7);
  for (std::int64_t h = 0; h < 3; ++h) {
    for (std::int64_t w = 0; w < 3; ++w) {
      for (std::int64_t c = 0; c < 70; ++c) {
        ASSERT_EQ(padded.get_bit(h + 2, w + 2, c), in.get_bit(h, w, c));
      }
    }
  }
  for (std::int64_t c = 0; c < 70; ++c) {
    EXPECT_FALSE(padded.get_bit(0, 0, c));
    EXPECT_FALSE(padded.get_bit(6, 6, c));
  }
  EXPECT_THROW(pad_packed(in, -1), std::invalid_argument);
}

}  // namespace
}  // namespace bitflow::kernels
