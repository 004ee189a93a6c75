// PressedConv, AVX2 kernel (scheduler rule 2: channel dimension a multiple
// of 256 — e.g. VGG conv4.1 with C = 256).
#include "kernels/kernel_table_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx2 {
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_avx2(a, b, n);
  }
};
}  // namespace

namespace bitflow::kernels {
// Tile widths: scalar 4-chain, vector 8 and 16.
constinit const KernelTable kernel_table_avx2 =
    impl::make_kernel_table<OpsAvx2, simd::inl::TileAcc4Scalar,
                            simd::inl::TileAcc8Avx2,
                            simd::inl::TileAcc16Avx2>();
}  // namespace bitflow::kernels
