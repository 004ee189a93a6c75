// PressedConv, SSE kernel (scheduler rule 3: channel dimension a multiple of
// 128 — e.g. VGG conv3.1 with C = 128).
#include "kernels/kernel_table_impl.hpp"
#include "simd/bitops_inline.hpp"
#include "simd/bitops_tile.hpp"

namespace {
struct OpsSse {
  static std::uint64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                    std::int64_t n) {
    return bitflow::simd::inl::xor_popcount_sse(a, b, n);
  }
};
}  // namespace

namespace bitflow::kernels {
// 128-bit SSE has no profitable qword popcount fan-out, so both tile widths
// use scalar hardware-popcnt chains (4 or 8 of them).
constinit const KernelTable kernel_table_sse =
    impl::make_kernel_table<OpsSse, simd::inl::TileAcc4Scalar, simd::inl::TileAcc8Scalar>();
}  // namespace bitflow::kernels
