// PressedConv: binary convolution over channel-packed tensors (paper
// Algorithm 1, Sec. III-B).
//
// Step 1/2 (bit-packing of input and filters along the channel dimension)
// live in bitpack/packer.hpp; the functions here are step 3: convolution of
// the pressed operands, multiplications as XOR, accumulations as popcount,
// vector parallelism along C, multi-core parallelism over the fused H*W
// output range.
//
// Two output forms are provided:
//  * `_dot`      — raw Eq. 1 inner products as floats (last layer of a
//                  network, or anywhere full-precision outputs are needed);
//  * `_binarize` — fused sign(dot - threshold[k]) re-packed straight into
//                  the (optionally margin-carrying) output of the next
//                  layer.  The per-output-channel threshold is how folded
//                  batch-normalization enters a BNN at inference time.
//
// Each ISA variant is compiled in its own TU with exactly that ISA enabled
// and exports one KernelTable (kernels/kernel_table.hpp); the `*_kernel`
// getters read the variant's entry, and the vector execution scheduler
// (graph/scheduler.hpp) chooses `isa`.  Two weight layouts have kernels:
// the filter-major bank of Algorithm 1 (the ops:: operators, the paper
// benches and the parity reference) and the interleaved register-tile bank,
// the only layout graph::BinaryNetwork runs.
#pragma once

#include <cstdint>

#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::kernels {

/// Batch-N raw-dot PressedConv: writes Eq. 1 inner products of image b into
/// out[b], an HWC float tensor of extents out_h x out_w x K that the caller
/// pre-shapes.  `in` and `out` are arrays of `n` tensor pointers with
/// identical extents; the batch axis is fused with the spatial output range
/// into one n*out_h*out_w parallel_for, so N requests cost one fork/join and
/// deep layers with small H*W still fill the pool.  Output b depends only on
/// in[b]; a single image is the n = 1 call.
using ConvDotBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                const PackedFilterBank& filters, const ConvSpec& spec,
                                runtime::ThreadPool& pool, Tensor* const* out);

/// Batch-N fused PressedConv + binarize: bit k of output pixel (y, x) is
/// `dot(y,x,k) >= thresholds[k]` (thresholds may be null for sign(dot)).
/// The result is written into the interior of each out[b] at offset
/// `margin` on each side; out[b] extents must be (out_h + 2*margin,
/// out_w + 2*margin, K) and its margin region is left untouched (zero bits
/// = -1), realizing the next layer's padding at zero cost (paper Fig. 5).
using ConvBinarizeBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                     const PackedFilterBank& filters, const ConvSpec& spec,
                                     const float* thresholds, runtime::ThreadPool& pool,
                                     PackedTensor* const* out, std::int64_t margin);

/// Batch-N raw-dot PressedConv over the interleaved weight layout: same
/// contract as ConvDotBatchFn, but the filters are a register-tile bank
/// produced by bitpack::tile_filters with tile = weight_tile_width(isa).
/// Bit-exact with the filter-major kernels; throws std::invalid_argument if
/// the bank's tile width does not match the kernel's.  A folded bank
/// (TiledFilterBank::folded(), narrow windows such as VGG conv1.1) runs the
/// folded-window loop: one gathered window word and one xor+popcount per
/// filter.
using ConvDotTiledBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                     const TiledFilterBank& filters, const ConvSpec& spec,
                                     runtime::ThreadPool& pool, Tensor* const* out);

/// Batch-N fused PressedConv + binarize over the interleaved weight layout;
/// see ConvBinarizeBatchFn for the margin contract.
using ConvBinarizeTiledBatchFn = void (*)(const PackedTensor* const* in, std::int64_t n,
                                          const TiledFilterBank& filters, const ConvSpec& spec,
                                          const float* thresholds, runtime::ThreadPool& pool,
                                          PackedTensor* const* out, std::int64_t margin);

/// Kernel getters: one-line lookups in the ISA variant's KernelTable
/// (kernels/kernel_table.hpp), which the per-ISA TUs export.  The caller
/// must have verified hardware support (simd::cpu_features().supports(isa)).
/// `use_vpopcntdq` pins the variant: at kAvx512 it selects between the
/// byte-LUT TU and the native-VPOPCNTDQ TU (the engine passes
/// simd::cpu_features().avx512vpopcntdq; the ISA-parity harness exercises
/// both on capable hosts); at narrower levels the flag is ignored.
[[nodiscard]] ConvDotBatchFn conv_dot_batch_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] ConvBinarizeBatchFn conv_binarize_batch_kernel(simd::IsaLevel isa,
                                                             bool use_vpopcntdq);

/// Register-tiled getters (interleaved weight layout): `tile` must be one of
/// supported_tile_widths(isa) and match the bank's tile width; an unstamped
/// (isa, tile) throws std::invalid_argument.  The engine's default width is
/// weight_tile_width(isa); the auto-tuner searches the rest.
[[nodiscard]] ConvDotTiledBatchFn conv_dot_tiled_batch_kernel(simd::IsaLevel isa,
                                                              bool use_vpopcntdq,
                                                              std::int64_t tile);
[[nodiscard]] ConvBinarizeTiledBatchFn conv_binarize_tiled_batch_kernel(simd::IsaLevel isa,
                                                                        bool use_vpopcntdq,
                                                                        std::int64_t tile);

/// Single-image convenience wrappers: validate the arguments and output
/// extents (throwing std::invalid_argument), then run the n = 1 batch kernel
/// of the widest ISA the executing CPU supports (honouring the
/// channel-multiple rules is the scheduler's job; these pick purely by
/// hardware).
void pressed_conv_dot(const PackedTensor& in, const PackedFilterBank& filters,
                      const ConvSpec& spec, runtime::ThreadPool& pool, Tensor& out);

void pressed_conv_binarize(const PackedTensor& in, const PackedFilterBank& filters,
                           const ConvSpec& spec, const float* thresholds,
                           runtime::ThreadPool& pool, PackedTensor& out, std::int64_t margin);

/// Validates extents shared by every PressedConv entry point; throws
/// std::invalid_argument on mismatch.  Exposed for reuse by baselines.
void check_conv_args(const PackedTensor& in, const PackedFilterBank& filters,
                     const ConvSpec& spec);

/// Batch variant: additionally requires n >= 1 and every image to share
/// image 0's extents (the fused range divides uniformly by out_h*out_w).
void check_conv_batch_args(const PackedTensor* const* in, std::int64_t n,
                           const PackedFilterBank& filters, const ConvSpec& spec);

}  // namespace bitflow::kernels
