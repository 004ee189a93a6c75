// Runtime dispatch front for the per-ISA PressedConv kernels.
#include "kernels/pressedconv.hpp"

#include <stdexcept>
#include <string>

#include "core/check.hpp"
#include "kernels/kernel_table.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::kernels {

ConvDotBatchFn conv_dot_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  return kernel_table(isa, use_vpopcntdq).conv_dot_batch;
}

ConvBinarizeBatchFn conv_binarize_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  return kernel_table(isa, use_vpopcntdq).conv_binarize_batch;
}

ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                                std::int64_t tile) {
  return tiled_slot(kernel_table(isa, use_vpopcntdq).conv_dot_tiled_batch, tile,
                    "conv_dot_tiled_batch_kernel");
}

ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa,
                                                          bool use_vpopcntdq,
                                                          std::int64_t tile) {
  return tiled_slot(kernel_table(isa, use_vpopcntdq).conv_binarize_tiled_batch, tile,
                    "conv_binarize_tiled_batch_kernel");
}

void check_conv_args(const PackedTensor& in, const PackedFilterBank& filters,
                     const ConvSpec& spec) {
  spec.validate();
  BF_CHECK(filters.num_filters() >= 1, "PressedConv: empty filter bank");
  if (in.channels() != filters.channels()) {
    throw std::invalid_argument("PressedConv: input/filter channel mismatch");
  }
  if (spec.kernel_h != filters.kernel_h() || spec.kernel_w != filters.kernel_w()) {
    throw std::invalid_argument("PressedConv: spec/filter kernel extent mismatch");
  }
  if (spec.stride < 1) throw std::invalid_argument("PressedConv: stride must be >= 1");
  (void)spec.out_h(in.height());  // throws if the kernel does not fit
  (void)spec.out_w(in.width());
}

void check_conv_batch_args(const PackedTensor* const* in, std::int64_t n,
                           const PackedFilterBank& filters, const ConvSpec& spec) {
  BF_CHECK(in != nullptr, "PressedConv batch: null input array");
  if (n < 1) throw std::invalid_argument("PressedConv batch: n must be >= 1");
  check_conv_args(*in[0], filters, spec);
  for (std::int64_t b = 1; b < n; ++b) {
    if (in[b]->height() != in[0]->height() || in[b]->width() != in[0]->width() ||
        in[b]->channels() != in[0]->channels()) {
      throw std::invalid_argument("PressedConv batch: image " + std::to_string(b) +
                                  " extents differ from image 0");
    }
  }
}

void pressed_conv_dot(const PackedTensor& in, const PackedFilterBank& filters,
                      const ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out) {
  check_conv_args(in, filters, spec);
  const std::int64_t oh = spec.out_h(in.height());
  const std::int64_t ow = spec.out_w(in.width());
  if (out.height() != oh || out.width() != ow || out.channels() != filters.num_filters() ||
      out.layout() != Layout::kHWC) {
    throw std::invalid_argument("pressed_conv_dot: output tensor mis-shaped");
  }
  const PackedTensor* in_ptr = &in;
  Tensor* out_ptr = &out;
  const simd::CpuFeatures& cpu = simd::cpu_features();
  conv_dot_batch_kernel(cpu.best_isa(), cpu.avx512vpopcntdq)(&in_ptr, 1, filters, spec, pool,
                                                             &out_ptr);
}

void pressed_conv_binarize(const PackedTensor& in, const PackedFilterBank& filters,
                           const ConvSpec& spec, const float* thresholds,
                           runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin) {
  check_conv_args(in, filters, spec);
  BF_CHECK(margin >= 0, "pressed_conv_binarize: negative margin ", margin);
  const std::int64_t oh = spec.out_h(in.height());
  const std::int64_t ow = spec.out_w(in.width());
  if (out.height() != oh + 2 * margin || out.width() != ow + 2 * margin ||
      out.channels() != filters.num_filters()) {
    throw std::invalid_argument("pressed_conv_binarize: output tensor mis-shaped for margin");
  }
  const PackedTensor* in_ptr = &in;
  PackedTensor* out_ptr = &out;
  const simd::CpuFeatures& cpu = simd::cpu_features();
  conv_binarize_batch_kernel(cpu.best_isa(), cpu.avx512vpopcntdq)(
      &in_ptr, 1, filters, spec, thresholds, pool, &out_ptr, margin);
}

}  // namespace bitflow::kernels
