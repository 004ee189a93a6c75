// Convolution geometry shared by every conv kernel in the repository.
//
// BitFlow kernels compute *valid* convolutions: spatial padding is realized
// upstream by writing the producing layer's output into the interior of a
// pre-allocated, zero-initialized buffer (paper Fig. 5, "zero-cost
// padding"), so by the time a kernel runs, its input already carries the
// margin.  Padding bits are 0, which decode to -1 under the BNN encoding.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "core/check.hpp"
#include "simd/isa.hpp"

namespace bitflow::kernels {

/// How a layer's weight words are laid out in memory after finalize().
enum class WeightLayout : std::uint8_t {
  /// One filter's (or FC row's) words are contiguous: [K][fh*fw*PC].
  kFilterMajor = 0,
  /// T-way register-tile interleave: full tiles [K/T][fh*fw*PC][T] followed
  /// by the K%T remainder rows in filter-major order (TiledBitMatrix).
  kInterleaved = 1,
};

[[nodiscard]] constexpr const char* weight_layout_name(WeightLayout layout) noexcept {
  switch (layout) {
    case WeightLayout::kFilterMajor:
      return "filter_major";
    case WeightLayout::kInterleaved:
      return "interleaved";
  }
  return "unknown";
}

/// Register-tile width T for the interleaved layout on a given ISA: how many
/// filters one TileAcc tracks at once.  4 on scalar/SSE (four independent
/// 64-bit popcnt chains), 8 on AVX2/AVX-512 (qword lanes of one or two
/// vector accumulators).  T always divides 64, so filter tiles never
/// straddle a 64-bit output word in the fused-binarize kernels.
///
/// This is the *default* width — what finalize() commits when auto-tuning is
/// off.  The tuner searches over supported_tile_widths() instead.
[[nodiscard]] constexpr std::int64_t weight_tile_width(simd::IsaLevel isa) noexcept {
  return isa >= simd::IsaLevel::kAvx2 ? 8 : 4;
}

/// The register-tile widths an ISA has kernel instantiations for — the
/// auto-tuner's candidate set, read from the non-null tile slots of the
/// ISA's KernelTable (kernels/kernel_table.hpp).  Scalar/SSE stamp T in
/// {4, 8} (independent popcnt chains); AVX2/AVX-512 add T = 16 (two/four
/// vector accumulators).  Every width divides 64 (tiles never straddle an
/// output word).
struct TileWidthSet {
  std::array<std::int64_t, 3> widths{};
  std::int64_t count = 0;
  [[nodiscard]] bool contains(std::int64_t t) const noexcept {
    for (std::int64_t i = 0; i < count; ++i) {
      if (widths[static_cast<std::size_t>(i)] == t) return true;
    }
    return false;
  }
};

[[nodiscard]] TileWidthSet supported_tile_widths(simd::IsaLevel isa);

/// Geometry of one convolution: filter extents and stride.  Output extents
/// follow from the (already padded) input extents.
struct ConvSpec {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;
  /// Parallel-axis granularity for the fused n*out_h*out_w parallel_for
  /// range: static block boundaries are rounded to multiples of this, so
  /// e.g. par_grain = out_w splits work by whole output rows instead of by
  /// pixels.  1 (the default) reproduces the pixel-level split exactly.  A
  /// tuner knob only — the partition never changes any output bit, just
  /// which worker computes which pixel.
  std::int64_t par_grain = 1;

  /// Contract check on the geometry itself (independent of any input):
  /// positive filter extents and stride.
  void validate() const {
    BF_CHECK(kernel_h >= 1 && kernel_w >= 1, "ConvSpec: filter extents ", kernel_h, "x",
             kernel_w);
    BF_CHECK(stride >= 1, "ConvSpec: stride ", stride);
    BF_CHECK(par_grain >= 1, "ConvSpec: par_grain ", par_grain);
  }

  [[nodiscard]] std::int64_t out_h(std::int64_t in_h) const {
    const std::int64_t o = (in_h - kernel_h) / stride + 1;
    if (o <= 0) throw std::invalid_argument("ConvSpec: kernel taller than input");
    return o;
  }
  [[nodiscard]] std::int64_t out_w(std::int64_t in_w) const {
    const std::int64_t o = (in_w - kernel_w) / stride + 1;
    if (o <= 0) throw std::invalid_argument("ConvSpec: kernel wider than input");
    return o;
  }
};

}  // namespace bitflow::kernels
