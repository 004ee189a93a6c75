// One table of kernel entry points per ISA variant.
//
// Each per-ISA TU (pressedconv_<isa>.cpp) compiles the kernel templates with
// exactly its own -m flags and exports one constant-initialised KernelTable:
// the four filter-major (paper Algorithm 1) kernels plus, for each of the
// four register-tiled families, one slot per tile width.  A slot is null
// where the TU stamps no instantiation for that width, so the stamped
// (ISA, tile width) set is written once, in the TU's list of tile
// accumulators, and everything else (the getters, supported_tile_widths,
// the tuner's candidates) reads it from here.
#pragma once

#include <array>
#include <cstdint>

#include "kernels/bgemm.hpp"
#include "kernels/pressedconv.hpp"
#include "simd/isa.hpp"

namespace bitflow::kernels {

/// The tile widths a KernelTable has a slot for, in slot order.
inline constexpr std::array<std::int64_t, 3> kTileSlotWidths{4, 8, 16};

template <typename Fn>
using TileSlots = std::array<Fn, kTileSlotWidths.size()>;

struct KernelTable {
  ConvDotBatchFn conv_dot_batch = nullptr;
  ConvBinarizeBatchFn conv_binarize_batch = nullptr;
  BgemmRowsFn bgemm_rows = nullptr;
  BgemmBinarizeRowsFn bgemm_binarize_rows = nullptr;
  /// Slot i runs tile width kTileSlotWidths[i]; null where not stamped.
  TileSlots<ConvDotTiledBatchFn> conv_dot_tiled_batch{};
  TileSlots<ConvBinarizeTiledBatchFn> conv_binarize_tiled_batch{};
  TileSlots<BgemmRowsTiledFn> bgemm_rows_tiled{};
  TileSlots<BgemmBinarizeRowsTiledFn> bgemm_binarize_rows_tiled{};
};

/// The table of one ISA variant.  At kAvx512 `use_vpopcntdq` selects the
/// native-VPOPCNTDQ TU over the byte-LUT one; narrower levels ignore it.
/// Hardware support is the caller's responsibility.
[[nodiscard]] const KernelTable& kernel_table(simd::IsaLevel isa, bool use_vpopcntdq);

[[noreturn]] void throw_unstamped_tile(const char* getter, std::int64_t tile);

/// The slot of `slots` for tile width `tile`; throws std::invalid_argument
/// when the width has no slot or the slot is null, so a plan can never name
/// a kernel that is not there.
template <typename Fn>
[[nodiscard]] Fn tiled_slot(const TileSlots<Fn>& slots, std::int64_t tile, const char* getter) {
  for (std::size_t i = 0; i < kTileSlotWidths.size(); ++i) {
    if (kTileSlotWidths[i] == tile && slots[i] != nullptr) return slots[i];
  }
  throw_unstamped_tile(getter, tile);
}

// Defined in pressedconv_<isa>.cpp, one per TU.
extern const KernelTable kernel_table_u64;
extern const KernelTable kernel_table_sse;
extern const KernelTable kernel_table_avx2;
extern const KernelTable kernel_table_avx512;
extern const KernelTable kernel_table_avx512vp;

}  // namespace bitflow::kernels
