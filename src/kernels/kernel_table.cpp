// Runtime dispatch front: one switch from an ISA variant to its table.
#include "kernels/kernel_table.hpp"

#include <stdexcept>
#include <string>

#include "kernels/conv_spec.hpp"

namespace bitflow::kernels {

const KernelTable& kernel_table(simd::IsaLevel isa, bool use_vpopcntdq) {
  switch (isa) {
    case simd::IsaLevel::kU64: return kernel_table_u64;
    case simd::IsaLevel::kSse: return kernel_table_sse;
    case simd::IsaLevel::kAvx2: return kernel_table_avx2;
    case simd::IsaLevel::kAvx512:
      return use_vpopcntdq ? kernel_table_avx512vp : kernel_table_avx512;
  }
  throw std::invalid_argument("kernel_table: bad ISA level");
}

void throw_unstamped_tile(const char* getter, std::int64_t tile) {
  throw std::invalid_argument(std::string(getter) + ": no instantiation for (isa, tile " +
                              std::to_string(tile) + ")");
}

// Both AVX-512 popcount lowerings stamp the same widths (the getter-contract
// test pins this), so the byte-LUT table speaks for kAvx512.
TileWidthSet supported_tile_widths(simd::IsaLevel isa) {
  const KernelTable& table = kernel_table(isa, false);
  TileWidthSet set;
  for (std::size_t i = 0; i < kTileSlotWidths.size(); ++i) {
    if (table.conv_dot_tiled_batch[i] != nullptr) {
      set.widths[static_cast<std::size_t>(set.count++)] = kTileSlotWidths[i];
    }
  }
  return set;
}

}  // namespace bitflow::kernels
