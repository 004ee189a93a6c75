// Shared binarize epilogue of the register-tiled kernels (conv over the
// interleaved or folded bank, bgemm over the tiled FC matrix).
//
// Included only by pressedconv_impl.hpp and bgemm_impl.hpp.  Every tiled
// binarize kernel walks 64-filter output words; a parallel_for chunk turns
// a word's per-filter float thresholds into integer popcount bounds once
// (Vorabbi et al.'s folded batchnorm+sign), not per pixel or row, and each
// tile of T popcounts lands in the word as one T-bit lane mask at a
// constant offset.  The kernels differ only in how a tile's popcounts are
// formed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

// Internal linkage (the unnamed namespace): every per-ISA TU compiles these
// bodies with its own -m flags, so the linker must never pick one TU's copy
// of a shared instantiation (e.g. a Tile-only template or a helper it did
// not inline) for another TU's calls — an AVX-512 copy on the u64 path.
namespace bitflow::kernels::impl {
namespace {

/// The binarize test `float(bits - 2*pops) >= th` as an integer bound on
/// pops: since bits - 2*pops is an exact integer, it holds iff
/// pops <= floor((bits - ceil(th)) / 2).  Clamped to [-1, bits]: -1 never
/// passes (NaN, +inf, th > bits), `bits` always does (-inf, th <= -bits).
/// A null threshold array means th = 0.
inline std::int64_t popcount_bound(std::int64_t bits, const float* thresholds,
                                   std::int64_t k) noexcept {
  if (thresholds == nullptr) return bits / 2;
  const float th = thresholds[k];
  if (std::isnan(th)) return -1;
  const double b =
      std::floor((static_cast<double>(bits) - std::ceil(static_cast<double>(th))) / 2.0);
  return static_cast<std::int64_t>(std::clamp(b, -1.0, static_cast<double>(bits)));
}

/// Bounds of filters [k0, k_end) (at most one output word) into bound[0..).
inline void popcount_bounds(std::int64_t bits, const float* thresholds, std::int64_t k0,
                            std::int64_t k_end, std::int64_t* bound) noexcept {
  for (std::int64_t k = k0; k < k_end; ++k) bound[k - k0] = popcount_bound(bits, thresholds, k);
}

/// Packs the output word of filters [k0, k_end), k0 a multiple of 64: bit
/// k - k0 is `pops(k) <= bound[k - k0]`.  The whole tiles among them come
/// from `accumulate_tile(acc, t)` and are compared lane-wise by the Tile
/// (Tile::kWidth divides 64, so a tile never straddles two words); the
/// filters at or past `tiled_rows` are the bank's filter-major remainder,
/// one `row_popcount(k)` each.
template <typename Tile, typename AccumulateTile, typename RowPopcount>
inline std::uint64_t binarize_word(std::int64_t k0, std::int64_t k_end, std::int64_t tiled_rows,
                                   const std::int64_t* bound, AccumulateTile&& accumulate_tile,
                                   RowPopcount&& row_popcount) {
  constexpr std::int64_t kT = Tile::kWidth;
  static_assert(64 % kT == 0, "filter tiles must not straddle output words");
  std::uint64_t packed = 0;
  const std::int64_t t_end = std::min(k_end, tiled_rows) / kT;
  for (std::int64_t t = k0 / kT; t < t_end; ++t) {
    Tile acc{};
    accumulate_tile(acc, t);
    const std::int64_t b0 = t * kT - k0;
    packed |= acc.le_mask(bound + b0) << b0;
  }
  for (std::int64_t k = std::max(k0, tiled_rows); k < k_end; ++k) {
    packed |= static_cast<std::uint64_t>(row_popcount(k) <= bound[k - k0]) << (k - k0);
  }
  return packed;
}

}  // namespace
}  // namespace bitflow::kernels::impl
