// bgemm: binary general matrix multiplication (paper Sec. III-C and the
// gemm-level optimizations of Sec. IV).
//
// A fully connected binary operator is a bgemm of the packed activation
// matrix A (M x N bits, M = batch = 1 in inference) against the packed,
// pre-transposed weight matrix W (K x N bits, produced once at network
// initialization by bitpack::pack_transpose_fc_weights).  Output element
// (m, k) is the Eq. 1 inner product of row m of A with row k of W.
//
// Parallelism follows the paper: vector parallelism along the N (bit)
// dimension, multi-core parallelism over the K (output neuron) dimension.
// The K loop is 4-way register-blocked so each loaded activation word feeds
// four weight rows (the "tiling and loop unrolling" borrowed from sgemm).
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"
#include "simd/isa.hpp"
#include "tensor/packed_tensor.hpp"

namespace bitflow::kernels {

/// Row-limited raw-dot bgemm: y is row-major m_rows x K floats,
/// y[m*K + k] = Eq. 1 dot of A row m and W row k, for rows [0, m_rows) of A
/// only (a full product passes m_rows = a.rows()).  A and W must agree on
/// cols().  The serving path keeps a max_batch-row activation matrix and
/// fills the first n rows per micro-batch; M and K are fused into one
/// parallel_for so a batch costs one fork/join.
using BgemmRowsFn = void (*)(const PackedMatrix& a, std::int64_t m_rows, const PackedMatrix& w,
                             runtime::ThreadPool& pool, float* y);

/// Row-limited fused bgemm + binarize: bit k of output row m is dot(m,k) >=
/// thresholds[k] (null thresholds = sign).  `out` must be A.rows() x K bits;
/// rows [m_rows, out.rows()) are left untouched.
using BgemmBinarizeRowsFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                     const PackedMatrix& w, const float* thresholds,
                                     runtime::ThreadPool& pool, PackedMatrix& out);

/// Row-limited raw-dot bgemm over the interleaved weight layout: W is the
/// K x N weight matrix re-laid by bitpack::tile_fc_weights with
/// tile = weight_tile_width(isa), so each activation word feeds T contiguous
/// neuron words instead of T strided rows.  Bit-exact with BgemmRowsFn;
/// throws std::invalid_argument if W's tile width does not match the kernel.
using BgemmRowsTiledFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                  const TiledBitMatrix& w, runtime::ThreadPool& pool, float* y);

/// Row-limited fused bgemm + binarize over the interleaved weight layout.
using BgemmBinarizeRowsTiledFn = void (*)(const PackedMatrix& a, std::int64_t m_rows,
                                          const TiledBitMatrix& w, const float* thresholds,
                                          runtime::ThreadPool& pool, PackedMatrix& out);

/// Kernel getters: one-line lookups in the ISA variant's KernelTable
/// (kernels/kernel_table.hpp).  Hardware support is the caller's
/// responsibility; `use_vpopcntdq` picks the byte-LUT or native-VPOPCNTDQ
/// translation unit at kAvx512 and is ignored at narrower levels.
[[nodiscard]] BgemmRowsFn bgemm_rows_kernel(simd::IsaLevel isa, bool use_vpopcntdq);
[[nodiscard]] BgemmBinarizeRowsFn bgemm_binarize_rows_kernel(simd::IsaLevel isa,
                                                             bool use_vpopcntdq);

/// Register-tiled getters (interleaved weight layout): `tile` must be one of
/// supported_tile_widths(isa) (throws std::invalid_argument otherwise).
[[nodiscard]] BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                                       std::int64_t tile);
[[nodiscard]] BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa,
                                                                        bool use_vpopcntdq,
                                                                        std::int64_t tile);

/// Full-product wrappers: run the row-limited kernel of the widest hardware
/// ISA over every row of A.
void bgemm(const PackedMatrix& a, const PackedMatrix& w, runtime::ThreadPool& pool, float* y);
void bgemm_binarize(const PackedMatrix& a, const PackedMatrix& w, const float* thresholds,
                    runtime::ThreadPool& pool, PackedMatrix& out);

}  // namespace bitflow::kernels
