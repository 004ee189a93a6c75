// Builds a per-ISA KernelTable straight from the kernel templates.
//
// Included only by the per-ISA kernel TUs.  A TU names its Ops policy and the
// tile accumulators it stamps, once each; the table's entries point at the
// internal-linkage template instantiations compiled with that TU's -m flags
// (their signatures are the *Fn types, so no wrapper functions are needed).
#pragma once

#include <cstddef>

#include "kernels/bgemm_impl.hpp"
#include "kernels/kernel_table.hpp"
#include "kernels/pressedconv_impl.hpp"

// Internal linkage, as in binarize_impl.hpp.
namespace bitflow::kernels::impl {
namespace {

constexpr std::size_t tile_slot(std::int64_t width) {
  std::size_t i = 0;
  while (i < kTileSlotWidths.size() && kTileSlotWidths[i] != width) ++i;
  return i;
}

template <typename Ops, typename Tile>
constexpr void stamp_tile(KernelTable& t) {
  constexpr std::size_t i = tile_slot(Tile::kWidth);
  static_assert(i < kTileSlotWidths.size(), "tile width has no KernelTable slot");
  t.conv_dot_tiled_batch[i] = &conv_dot_tiled_batch_impl<Ops, Tile>;
  t.conv_binarize_tiled_batch[i] = &conv_binarize_tiled_batch_impl<Ops, Tile>;
  t.bgemm_rows_tiled[i] = &bgemm_rows_tiled_impl<Ops, Tile>;
  t.bgemm_binarize_rows_tiled[i] = &bgemm_binarize_rows_tiled_impl<Ops, Tile>;
}

/// The table of one ISA policy: its filter-major kernels plus the tiled
/// kernels of each accumulator in `Tiles` (one per stamped tile width).
template <typename Ops, typename... Tiles>
constexpr KernelTable make_kernel_table() {
  KernelTable t;
  t.conv_dot_batch = &conv_dot_batch_impl<Ops>;
  t.conv_binarize_batch = &conv_binarize_batch_impl<Ops>;
  t.bgemm_rows = &bgemm_rows_impl<Ops>;
  t.bgemm_binarize_rows = &bgemm_binarize_rows_impl<Ops>;
  (stamp_tile<Ops, Tiles>(t), ...);
  return t;
}

}  // namespace
}  // namespace bitflow::kernels::impl
