// Runtime dispatch front for the per-ISA bgemm kernels.
#include "kernels/bgemm.hpp"

#include <stdexcept>
#include <string>

#include "kernels/conv_spec.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::kernels {

namespace detail {
#define BITFLOW_DECLARE_BGEMM(SUFFIX)                                                         \
  void bgemm_rows_##SUFFIX(const PackedMatrix&, std::int64_t, const PackedMatrix&,             \
                           runtime::ThreadPool&, float*);                                      \
  void bgemm_binarize_rows_##SUFFIX(const PackedMatrix&, std::int64_t, const PackedMatrix&,    \
                                    const float*, runtime::ThreadPool&, PackedMatrix&);
BITFLOW_DECLARE_BGEMM(u64)
BITFLOW_DECLARE_BGEMM(sse)
BITFLOW_DECLARE_BGEMM(avx2)
BITFLOW_DECLARE_BGEMM(avx512)
BITFLOW_DECLARE_BGEMM(avx512vp)
#undef BITFLOW_DECLARE_BGEMM

// Defined by BITFLOW_INSTANTIATE_BGEMM_TILED in the per-ISA TUs, one suffix
// per (ISA, tile width) pair the TU stamps.
#define BITFLOW_DECLARE_BGEMM_TILED(SUFFIX)                                                    \
  void bgemm_rows_tiled_##SUFFIX(const PackedMatrix&, std::int64_t, const TiledBitMatrix&,     \
                                 runtime::ThreadPool&, float*);                                \
  void bgemm_binarize_rows_tiled_##SUFFIX(const PackedMatrix&, std::int64_t,                   \
                                          const TiledBitMatrix&, const float*,                 \
                                          runtime::ThreadPool&, PackedMatrix&);
BITFLOW_DECLARE_BGEMM_TILED(u64_t4)
BITFLOW_DECLARE_BGEMM_TILED(u64_t8)
BITFLOW_DECLARE_BGEMM_TILED(sse_t4)
BITFLOW_DECLARE_BGEMM_TILED(sse_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx2_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx2_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx2_t16)
BITFLOW_DECLARE_BGEMM_TILED(avx512_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx512_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx512_t16)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp_t4)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp_t8)
BITFLOW_DECLARE_BGEMM_TILED(avx512vp_t16)
#undef BITFLOW_DECLARE_BGEMM_TILED
}  // namespace detail

BgemmRowsFn bgemm_rows_kernel(simd::IsaLevel isa) {
  return bgemm_rows_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

BgemmBinarizeRowsFn bgemm_binarize_rows_kernel(simd::IsaLevel isa) {
  return bgemm_binarize_rows_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

BgemmRowsFn bgemm_rows_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return &detail::bgemm_rows_u64;
    case simd::IsaLevel::kSse: return &detail::bgemm_rows_sse;
    case simd::IsaLevel::kAvx2: return &detail::bgemm_rows_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? &detail::bgemm_rows_avx512vp : &detail::bgemm_rows_avx512;
  }
  throw std::invalid_argument("bgemm_rows_kernel: bad ISA level");
}

BgemmBinarizeRowsFn bgemm_binarize_rows_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return &detail::bgemm_binarize_rows_u64;
    case simd::IsaLevel::kSse: return &detail::bgemm_binarize_rows_sse;
    case simd::IsaLevel::kAvx2: return &detail::bgemm_binarize_rows_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? &detail::bgemm_binarize_rows_avx512vp
                           : &detail::bgemm_binarize_rows_avx512;
  }
  throw std::invalid_argument("bgemm_binarize_rows_kernel: bad ISA level");
}

BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa) {
  return bgemm_rows_tiled_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa) {
  return bgemm_binarize_rows_tiled_kernel(isa, simd::cpu_features().avx512vpopcntdq);
}

BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  return bgemm_rows_tiled_kernel(isa, use_vpopcntdq, weight_tile_width(isa));
}

BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa,
                                                          bool use_vpopcntdq) {
  return bgemm_binarize_rows_tiled_kernel(isa, use_vpopcntdq, weight_tile_width(isa));
}

// Nested (ISA, tile width) dispatch, same scheme as pressedconv.cpp: an
// (isa, tile) pair with no instantiation throws rather than falling back.
#define BITFLOW_TILED_DISPATCH(NAME)                                                          \
  switch (isa) {                                                                              \
    case simd::IsaLevel::kU64:                                                                \
      if (tile == 4) return &detail::NAME##_u64_t4;                                           \
      if (tile == 8) return &detail::NAME##_u64_t8;                                           \
      break;                                                                                  \
    case simd::IsaLevel::kSse:                                                                \
      if (tile == 4) return &detail::NAME##_sse_t4;                                           \
      if (tile == 8) return &detail::NAME##_sse_t8;                                           \
      break;                                                                                  \
    case simd::IsaLevel::kAvx2:                                                               \
      if (tile == 4) return &detail::NAME##_avx2_t4;                                          \
      if (tile == 8) return &detail::NAME##_avx2_t8;                                          \
      if (tile == 16) return &detail::NAME##_avx2_t16;                                        \
      break;                                                                                  \
    case simd::IsaLevel::kAvx512:                                                             \
      if (tile == 4) return use_vpopcntdq ? &detail::NAME##_avx512vp_t4                       \
                                          : &detail::NAME##_avx512_t4;                        \
      if (tile == 8) return use_vpopcntdq ? &detail::NAME##_avx512vp_t8                       \
                                          : &detail::NAME##_avx512_t8;                        \
      if (tile == 16) return use_vpopcntdq ? &detail::NAME##_avx512vp_t16                     \
                                           : &detail::NAME##_avx512_t16;                      \
      break;                                                                                  \
  }                                                                                           \
  throw std::invalid_argument(#NAME "_kernel: no instantiation for (isa, tile " +             \
                              std::to_string(tile) + ")")

BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                         std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(bgemm_rows_tiled);
}

BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa,
                                                          bool use_vpopcntdq,
                                                          std::int64_t tile) {
  BITFLOW_TILED_DISPATCH(bgemm_binarize_rows_tiled);
}

void bgemm(const PackedMatrix& a, const PackedMatrix& w, runtime::ThreadPool& pool, float* y) {
  bgemm_rows_kernel(simd::cpu_features().best_isa())(a, a.rows(), w, pool, y);
}

void bgemm_binarize(const PackedMatrix& a, const PackedMatrix& w, const float* thresholds,
                    runtime::ThreadPool& pool, PackedMatrix& out) {
  bgemm_binarize_rows_kernel(simd::cpu_features().best_isa())(a, a.rows(), w, thresholds, pool,
                                                              out);
}

}  // namespace bitflow::kernels
