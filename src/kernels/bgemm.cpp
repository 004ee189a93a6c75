// Runtime dispatch front for the per-ISA bgemm kernels.
#include "kernels/bgemm.hpp"

#include "kernels/kernel_table.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::kernels {

BgemmRowsFn bgemm_rows_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  return kernel_table(isa, use_vpopcntdq).bgemm_rows;
}

BgemmBinarizeRowsFn bgemm_binarize_rows_kernel(simd::IsaLevel isa, bool use_vpopcntdq) {
  return kernel_table(isa, use_vpopcntdq).bgemm_binarize_rows;
}

BgemmRowsTiledFn bgemm_rows_tiled_kernel(simd::IsaLevel isa, bool use_vpopcntdq,
                                         std::int64_t tile) {
  return tiled_slot(kernel_table(isa, use_vpopcntdq).bgemm_rows_tiled, tile,
                    "bgemm_rows_tiled_kernel");
}

BgemmBinarizeRowsTiledFn bgemm_binarize_rows_tiled_kernel(simd::IsaLevel isa,
                                                          bool use_vpopcntdq,
                                                          std::int64_t tile) {
  return tiled_slot(kernel_table(isa, use_vpopcntdq).bgemm_binarize_rows_tiled, tile,
                    "bgemm_binarize_rows_tiled_kernel");
}

void bgemm(const PackedMatrix& a, const PackedMatrix& w, runtime::ThreadPool& pool, float* y) {
  const simd::CpuFeatures& cpu = simd::cpu_features();
  bgemm_rows_kernel(cpu.best_isa(), cpu.avx512vpopcntdq)(a, a.rows(), w, pool, y);
}

void bgemm_binarize(const PackedMatrix& a, const PackedMatrix& w, const float* thresholds,
                    runtime::ThreadPool& pool, PackedMatrix& out) {
  const simd::CpuFeatures& cpu = simd::cpu_features();
  bgemm_binarize_rows_kernel(cpu.best_isa(), cpu.avx512vpopcntdq)(a, a.rows(), w, thresholds,
                                                                  pool, out);
}

}  // namespace bitflow::kernels
