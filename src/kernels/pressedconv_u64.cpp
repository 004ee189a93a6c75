// PressedConv, scalar 64-bit kernel (scheduler rule 4: channel dimension a
// multiple of 32/64 only — e.g. VGG conv2.1 with C = 64).
#include "kernels/kernel_table_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsU64 {
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_u64(a, b, n);
  }
};
}  // namespace

namespace bitflow::kernels {
// Tile widths 4 and 8: independent popcnt chains.
constinit const KernelTable kernel_table_u64 =
    impl::make_kernel_table<OpsU64, simd::inl::TileAcc4Scalar, simd::inl::TileAcc8Scalar>();
}  // namespace bitflow::kernels
