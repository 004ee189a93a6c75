// PressedConv, AVX-512 kernel without VPOPCNTDQ (byte-LUT popcount): the
// portable AVX-512 path for CPUs like Skylake-SP.
#include "kernels/kernel_table_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsAvx512Lut {
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_avx512(a, b, n);
  }
};
}  // namespace

namespace bitflow::kernels {
// Tile widths: scalar 4-chain, one or two 512-bit accumulators (popcount
// lowers to the byte-LUT in this TU's -m flags).
constinit const KernelTable kernel_table_avx512 =
    impl::make_kernel_table<OpsAvx512Lut, simd::inl::TileAcc4Scalar,
                            simd::inl::TileAcc8Avx512,
                            simd::inl::TileAcc16Avx512>();
}  // namespace bitflow::kernels
