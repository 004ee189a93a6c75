// PressedConv, AVX-512 kernel with native VPOPCNTDQ (Table I
// _mm512_popcnt_epi64 / maskz forms) — the paper's Xeon Phi path.
// Scheduler rule 1: channel dimension a multiple of 512 (VGG conv5.1).
#include "kernels/kernel_table_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx512Vp {
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_avx512(a, b, n);
  }
};
}  // namespace

namespace bitflow::kernels {
// Tile widths: the TileAcc*Avx512 popcount_epi64_512 lowers to native
// VPOPCNTDQ in this TU's -m flags — same structs as the LUT TU, different
// instruction selection.
constinit const KernelTable kernel_table_avx512vp =
    impl::make_kernel_table<OpsAvx512Vp, simd::inl::TileAcc4Scalar,
                            simd::inl::TileAcc8Avx512,
                            simd::inl::TileAcc16Avx512>();
}  // namespace bitflow::kernels
