// Generic PressedConv inner loops, templated over an ISA policy.
//
// Included only by the per-ISA kernel TUs (pressedconv_<isa>.cpp, through
// kernel_table_impl.hpp); each TU instantiates the templates with a policy
// whose xor_popcount resolves to the inline primitive of that TU's enabled
// ISA, so the word loop inlines into the spatial loops with no function-call
// overhead.
//
// Loop structure (paper Alg. 1):
//   multi-core  : fused b*y*x output range, static blocks     (parallel_for)
//   per pixel   : filters k, 2-way unrolled to share the input window loads
//   per filter  : kernel rows i — the kw * words_per_pixel packed words of
//                 one window row are contiguous in both operands (NHWC
//                 channel packing), one xor+popcount run each
//   vector      : inside the run, the policy's ISA
//
// Batch-N: every entry point is implemented over a batch of N images (the
// batch axis is fused with the spatial output range into one n*out_h*out_w
// parallel_for, so deep layers with small H*W still expose enough grains to
// fill the pool, and N requests cost one fork/join instead of N).  Each
// image has its own input/output tensor; a pixel's value depends only on
// its own image's words, so batch-N output b is bit-identical to a batch-1
// run of image b — a single image is the n = 1 call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "kernels/binarize_impl.hpp"
#include "kernels/conv_spec.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

// Internal linkage, as in binarize_impl.hpp.
namespace bitflow::kernels::impl {
namespace {

/// Specialized inner body for the dominant BNN case of 3x3 filters over a
/// single packed word per pixel (C <= 64, e.g. VGG conv2.1): the nine
/// window words are hoisted into registers once per output pixel and each
/// filter costs exactly nine xor+popcnt — no word-run loop, no pointer
/// arithmetic in the hot loop.  This is the "loop unrolling" of the paper's
/// gemm-level optimizations applied where it pays the most.
inline void conv_dot_3x3_w1_batch(const PackedTensor* const* in, std::int64_t n,
                                  const PackedFilterBank& filters, const ConvSpec& spec,
                                  runtime::ThreadPool& pool, Tensor* const* out) {
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const std::uint64_t* f_words = filters.words();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* w0 = in[img]->words() + (y * stride) * in_w + (x * stride);
      const std::uint64_t* w1 = w0 + in_w;
      const std::uint64_t* w2 = w1 + in_w;
      const std::uint64_t a0 = w0[0], a1 = w0[1], a2 = w0[2];
      const std::uint64_t a3 = w1[0], a4 = w1[1], a5 = w1[2];
      const std::uint64_t a6 = w2[0], a7 = w2[1], a8 = w2[2];
      float* out_px = out[img]->data() + pix * num_k;
      const std::uint64_t* f = f_words;
      for (std::int64_t k = 0; k < num_k; ++k, f += 9) {
        std::int64_t pops = __builtin_popcountll(a0 ^ f[0]);
        pops += __builtin_popcountll(a1 ^ f[1]);
        pops += __builtin_popcountll(a2 ^ f[2]);
        pops += __builtin_popcountll(a3 ^ f[3]);
        pops += __builtin_popcountll(a4 ^ f[4]);
        pops += __builtin_popcountll(a5 ^ f[5]);
        pops += __builtin_popcountll(a6 ^ f[6]);
        pops += __builtin_popcountll(a7 ^ f[7]);
        pops += __builtin_popcountll(a8 ^ f[8]);
        out_px[k] = static_cast<float>(bits - 2 * pops);
      }
    }
  });
}

template <typename Ops>
void conv_dot_batch_impl(const PackedTensor* const* in, std::int64_t n,
                         const PackedFilterBank& filters, const ConvSpec& spec,
                         runtime::ThreadPool& pool, Tensor* const* out) {
  if (in[0]->words_per_pixel() == 1 && filters.kernel_h() == 3 && filters.kernel_w() == 3) {
    conv_dot_3x3_w1_batch(in, n, filters, spec, pool, out);
    return;
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t kw = filters.kernel_w();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = kw * pc;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      float* out_px = out[img]->data() + pix * num_k;
      std::int64_t k = 0;
      // 2-way filter unroll: both filters consume the same window row, so
      // its words are loaded from L1 once per pair.
      for (; k + 2 <= num_k; k += 2) {
        const std::uint64_t* f0 = filters.filter(k);
        const std::uint64_t* f1 = filters.filter(k + 1);
        std::uint64_t pops0 = 0, pops1 = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::uint64_t* row = window + i * in_w * pc;
          pops0 += Ops::xor_popcount(row, f0 + i * row_words, row_words);
          pops1 += Ops::xor_popcount(row, f1 + i * row_words, row_words);
        }
        out_px[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops0));
        out_px[k + 1] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops1));
      }
      for (; k < num_k; ++k) {
        const std::uint64_t* f0 = filters.filter(k);
        std::uint64_t pops = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
        }
        out_px[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops));
      }
    }
  });
}

/// Fused binarize counterpart of conv_dot_3x3_w1_batch.
inline void conv_binarize_3x3_w1_batch(const PackedTensor* const* in, std::int64_t n,
                                       const PackedFilterBank& filters, const ConvSpec& spec,
                                       const float* thresholds, runtime::ThreadPool& pool,
                                       PackedTensor* const* out, std::int64_t margin) {
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const std::uint64_t* f_words = filters.words();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* w0 = in[img]->words() + (y * stride) * in_w + (x * stride);
      const std::uint64_t* w1 = w0 + in_w;
      const std::uint64_t* w2 = w1 + in_w;
      const std::uint64_t a0 = w0[0], a1 = w0[1], a2 = w0[2];
      const std::uint64_t a3 = w1[0], a4 = w1[1], a5 = w1[2];
      const std::uint64_t a6 = w2[0], a7 = w2[1], a8 = w2[2];
      std::uint64_t* out_px = out[img]->pixel(y + margin, x + margin);
      const std::uint64_t* f = f_words;
      std::int64_t k = 0;
      std::int64_t word_idx = 0;
      while (k < num_k) {
        const std::int64_t block = std::min<std::int64_t>(64, num_k - k);
        std::uint64_t packed = 0;
        for (std::int64_t b = 0; b < block; ++b, ++k, f += 9) {
          std::int64_t pops = __builtin_popcountll(a0 ^ f[0]);
          pops += __builtin_popcountll(a1 ^ f[1]);
          pops += __builtin_popcountll(a2 ^ f[2]);
          pops += __builtin_popcountll(a3 ^ f[3]);
          pops += __builtin_popcountll(a4 ^ f[4]);
          pops += __builtin_popcountll(a5 ^ f[5]);
          pops += __builtin_popcountll(a6 ^ f[6]);
          pops += __builtin_popcountll(a7 ^ f[7]);
          pops += __builtin_popcountll(a8 ^ f[8]);
          const float dot = static_cast<float>(bits - 2 * pops);
          const float th = thresholds != nullptr ? thresholds[k] : 0.0f;
          packed |= static_cast<std::uint64_t>(dot >= th) << b;
        }
        out_px[word_idx++] = packed;
      }
    }
  });
}

template <typename Ops>
void conv_binarize_batch_impl(const PackedTensor* const* in, std::int64_t n,
                              const PackedFilterBank& filters, const ConvSpec& spec,
                              const float* thresholds, runtime::ThreadPool& pool,
                              PackedTensor* const* out, std::int64_t margin) {
  if (in[0]->words_per_pixel() == 1 && filters.kernel_h() == 3 && filters.kernel_w() == 3) {
    conv_binarize_3x3_w1_batch(in, n, filters, spec, thresholds, pool, out, margin);
    return;
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t kw = filters.kernel_w();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = kw * pc;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      std::uint64_t* out_px = out[img]->pixel(y + margin, x + margin);
      std::int64_t k = 0;
      std::int64_t word_idx = 0;
      while (k < num_k) {
        const std::int64_t block = std::min<std::int64_t>(64, num_k - k);
        std::uint64_t packed = 0;
        for (std::int64_t b = 0; b < block; ++b, ++k) {
          const std::uint64_t* f0 = filters.filter(k);
          std::uint64_t pops = 0;
          for (std::int64_t i = 0; i < kh; ++i) {
            pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
          }
          const float dot = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops));
          const float th = thresholds != nullptr ? thresholds[k] : 0.0f;
          packed |= static_cast<std::uint64_t>(dot >= th) << b;
        }
        out_px[word_idx++] = packed;
      }
    }
  });
}

// --- folded-window variants (narrow layers, bank.folded()) -------------------
//
// When the whole kh*kw*C window fits one word (VGG conv1.1: 27 bits), the
// tiled bank holds one folded word per filter (bitpack::tile_filters), so
// its interleaved [w][lane] layout is plain filter order and tile_block(t)
// is T consecutive filter words.  Each output pixel gathers its window into
// the same bit layout straight from the padded input, then one
// accumulate() per tile yields T complete popcounts — one xor+popcount per
// filter instead of kh*kw over words that are mostly zero padding.
//
// Bit-exact with the unfolded kernels: the folded operands hold exactly the
// same valid bits, and the zero channel tails that the unfolded words carry
// contribute nothing to either popcount.

/// Gathers the kh x kw window at `window` (one word per pixel, row pitch
/// `in_w` words) into one word, tap t's C bits at offset t*C.  Relies on the
/// zero-tail invariant of packed activations: a pixel word holds no bits
/// at or above C, so shift + or places it without a mask.
inline std::uint64_t gather_window(const std::uint64_t* window, std::int64_t kh,
                                   std::int64_t kw, std::int64_t in_w, std::int64_t c) noexcept {
  std::uint64_t a = 0;
  std::int64_t off = 0;
  for (std::int64_t i = 0; i < kh; ++i) {
    const std::uint64_t* row = window + i * in_w;
    for (std::int64_t j = 0; j < kw; ++j, off += c) a |= row[j] << off;
  }
  return a;
}

template <typename Tile>
void conv_dot_folded_batch(const PackedTensor* const* in, std::int64_t n,
                           const TiledFilterBank& filters, const ConvSpec& spec,
                           runtime::ThreadPool& pool, Tensor* const* out) {
  constexpr std::int64_t kT = Tile::kWidth;
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h(), kw = filters.kernel_w(), c = filters.channels();
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t full_tiles = bank.full_tiles();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t a =
          gather_window(in[img]->words() + (y * stride) * in_w + x * stride, kh, kw, in_w, c);
      float* out_px = out[img]->data() + pix * num_k;
      for (std::int64_t t = 0; t < full_tiles; ++t) {
        Tile acc{};
        acc.accumulate(a, bank.tile_block(t));
        std::uint64_t pops[kT];
        acc.reduce(pops);
        float* out_t = out_px + t * kT;
        for (std::int64_t l = 0; l < kT; ++l) {
          out_t[l] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops[l]));
        }
      }
      for (std::int64_t k = full_tiles * kT; k < num_k; ++k) {
        const std::int64_t pops =
            __builtin_popcountll(a ^ bank.remainder_row(k - full_tiles * kT)[0]);
        out_px[k] = static_cast<float>(bits - 2 * pops);
      }
    }
  });
}

/// Shared loop of the tiled binarize kernels: one 64-filter output word at
/// a time, so a chunk's integer bounds for that word sit on the stack, then
/// `pixel_word(window, k0, k_end, bound)` packs the word of every output
/// pixel in the chunk from its window origin in the input.
template <typename PixelWord>
void conv_binarize_words(const PackedTensor* const* in, std::int64_t n,
                         const TiledFilterBank& filters, const ConvSpec& spec,
                         const float* thresholds, runtime::ThreadPool& pool,
                         PackedTensor* const* out, std::int64_t margin, PixelWord&& pixel_word) {
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t k0 = 0; k0 < num_k; k0 += 64) {
      const std::int64_t k_end = std::min<std::int64_t>(k0 + 64, num_k);
      std::int64_t bound[64];
      popcount_bounds(bits, thresholds, k0, k_end, bound);
      for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
        const std::int64_t img = idx / pixels;
        const std::int64_t pix = idx - img * pixels;
        const std::int64_t y = pix / out_w;
        const std::int64_t x = pix % out_w;
        const std::uint64_t* window =
            in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
        out[img]->pixel(y + margin, x + margin)[k0 / 64] = pixel_word(window, k0, k_end, bound);
      }
    }
  });
}

template <typename Tile>
void conv_binarize_folded_batch(const PackedTensor* const* in, std::int64_t n,
                                const TiledFilterBank& filters, const ConvSpec& spec,
                                const float* thresholds, runtime::ThreadPool& pool,
                                PackedTensor* const* out, std::int64_t margin) {
  const std::int64_t kh = filters.kernel_h(), kw = filters.kernel_w(), c = filters.channels();
  const std::int64_t in_w = in[0]->width();
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t tiled_rows = bank.tiled_rows();
  conv_binarize_words(
      in, n, filters, spec, thresholds, pool, out, margin,
      [&](const std::uint64_t* window, std::int64_t k0, std::int64_t k_end,
          const std::int64_t* bound) {
        const std::uint64_t a = gather_window(window, kh, kw, in_w, c);
        return binarize_word<Tile>(
            k0, k_end, tiled_rows, bound,
            [&](Tile& acc, std::int64_t t) { acc.accumulate(a, bank.tile_block(t)); },
            [&](std::int64_t k) -> std::int64_t {
              return __builtin_popcountll(a ^ bank.remainder_row(k - tiled_rows)[0]);
            });
      });
}

// --- register-tiled variants over the interleaved weight layout --------------
//
// Activation-stationary dataflow (YFlows): the filter loop is tiled by
// T = Tile::kWidth, and inside a tile the roles invert — each packed
// activation word is loaded once, broadcast, and XOR+popcounted against the T
// matching filter words, which the finalize-time interleave
// (bitpack::tile_filters) made contiguous.  T per-filter counters live in
// registers across the whole kh*kw*pc word walk and spill exactly once per
// tile.  The K % T remainder filters were left filter-major by the repack and
// take the word-run path of the untiled kernel.
//
// Tile is an explicit template parameter (not Ops::Tile) so each per-ISA TU
// can fill one KernelTable slot per supported width — the auto-tuner's T axis.

template <typename Ops, typename Tile>
void conv_dot_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                               const TiledFilterBank& filters, const ConvSpec& spec,
                               runtime::ThreadPool& pool, Tensor* const* out) {
  constexpr std::int64_t kT = Tile::kWidth;
  if (filters.tile() != kT) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  if (filters.folded()) {
    conv_dot_folded_batch<Tile>(in, n, filters, spec, pool, out);
    return;
  }
  const std::int64_t out_h = spec.out_h(in[0]->height());
  const std::int64_t out_w = spec.out_w(in[0]->width());
  const std::int64_t pixels = out_h * out_w;
  const std::int64_t kh = filters.kernel_h();
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t row_words = filters.kernel_w() * pc;
  const std::int64_t bits = filters.bits_per_filter();
  const std::int64_t num_k = filters.num_filters();
  const std::int64_t in_w = in[0]->width();
  const std::int64_t stride = spec.stride;
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t full_tiles = bank.full_tiles();

  pool.parallel_for(n * pixels, spec.par_grain, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t img = idx / pixels;
      const std::int64_t pix = idx - img * pixels;
      const std::int64_t y = pix / out_w;
      const std::int64_t x = pix % out_w;
      const std::uint64_t* window =
          in[img]->words() + ((y * stride) * in_w + (x * stride)) * pc;
      float* out_px = out[img]->data() + pix * num_k;
      for (std::int64_t t = 0; t < full_tiles; ++t) {
        Tile acc{};
        // The interleaved block walks word-major over the whole filter, so
        // `f` just advances by kT per activation word across kernel rows.
        const std::uint64_t* f = bank.tile_block(t);
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::uint64_t* row = window + i * in_w * pc;
          for (std::int64_t w = 0; w < row_words; ++w, f += kT) {
            acc.accumulate(row[w], f);
          }
        }
        std::uint64_t pops[kT];
        acc.reduce(pops);
        float* out_t = out_px + t * kT;
        for (std::int64_t l = 0; l < kT; ++l) {
          out_t[l] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops[l]));
        }
      }
      for (std::int64_t k = full_tiles * kT; k < num_k; ++k) {
        const std::uint64_t* f0 = bank.remainder_row(k - full_tiles * kT);
        std::uint64_t pops = 0;
        for (std::int64_t i = 0; i < kh; ++i) {
          pops += Ops::xor_popcount(window + i * in_w * pc, f0 + i * row_words, row_words);
        }
        out_px[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops));
      }
    }
  });
}

/// The window walk of the tiled binarize kernel.  kKh and kRowWords are the
/// kernel rows and the kw * words_per_pixel words per row when known at
/// compile time (0 = read from the bank): a 3x3 window of one or two words
/// per pixel (VGG C = 64 and C = 128 layers) then loads its 9 or 18 window
/// words once per pixel and output word, and every tile is a straight run
/// of accumulates over registers.  Rows of 12 words (C = 256) measured no
/// gain, so wider windows take the loop.
template <typename Ops, typename Tile, std::int64_t kKh = 0, std::int64_t kRowWords = 0>
void conv_binarize_window_batch(const PackedTensor* const* in, std::int64_t n,
                                const TiledFilterBank& filters, const ConvSpec& spec,
                                const float* thresholds, runtime::ThreadPool& pool,
                                PackedTensor* const* out, std::int64_t margin) {
  constexpr std::int64_t kT = Tile::kWidth;
  const std::int64_t pc = in[0]->words_per_pixel();
  const std::int64_t kh = kKh != 0 ? kKh : filters.kernel_h();
  const std::int64_t row_words = kRowWords != 0 ? kRowWords : filters.kernel_w() * pc;
  const std::int64_t pitch = in[0]->width() * pc;
  const TiledBitMatrix& bank = filters.rows();
  const std::int64_t tiled_rows = bank.tiled_rows();
  conv_binarize_words(
      in, n, filters, spec, thresholds, pool, out, margin,
      [&](const std::uint64_t* window, std::int64_t k0, std::int64_t k_end,
          const std::int64_t* bound) {
        const auto row_popcount = [&](std::int64_t k) {
          const std::uint64_t* f0 = bank.remainder_row(k - tiled_rows);
          std::uint64_t pops = 0;
          for (std::int64_t i = 0; i < kh; ++i) {
            pops += Ops::xor_popcount(window + i * pitch, f0 + i * row_words, row_words);
          }
          return static_cast<std::int64_t>(pops);
        };
        if constexpr (kRowWords != 0) {
          std::uint64_t a[kKh * kRowWords];
          for (std::int64_t i = 0; i < kKh; ++i) {
            for (std::int64_t w = 0; w < kRowWords; ++w) {
              a[i * kRowWords + w] = window[i * pitch + w];
            }
          }
          return binarize_word<Tile>(
              k0, k_end, tiled_rows, bound,
              [&](Tile& acc, std::int64_t t) {
                const std::uint64_t* f = bank.tile_block(t);
                for (std::int64_t j = 0; j < kKh * kRowWords; ++j) {
                  acc.accumulate(a[j], f + j * kT);
                }
              },
              row_popcount);
        } else {
          // The interleaved block walks word-major over the whole filter, so
          // `f` just advances by kT per activation word across kernel rows.
          return binarize_word<Tile>(
              k0, k_end, tiled_rows, bound,
              [&](Tile& acc, std::int64_t t) {
                const std::uint64_t* f = bank.tile_block(t);
                for (std::int64_t i = 0; i < kh; ++i) {
                  const std::uint64_t* row = window + i * pitch;
                  for (std::int64_t w = 0; w < row_words; ++w, f += kT) acc.accumulate(row[w], f);
                }
              },
              row_popcount);
        }
      });
}

template <typename Ops, typename Tile>
void conv_binarize_tiled_batch_impl(const PackedTensor* const* in, std::int64_t n,
                                    const TiledFilterBank& filters, const ConvSpec& spec,
                                    const float* thresholds, runtime::ThreadPool& pool,
                                    PackedTensor* const* out, std::int64_t margin) {
  if (filters.tile() != Tile::kWidth) {
    throw std::invalid_argument("PressedConv tiled: bank tile width does not match kernel");
  }
  if (filters.folded()) {
    conv_binarize_folded_batch<Tile>(in, n, filters, spec, thresholds, pool, out, margin);
    return;
  }
  const std::int64_t row_words = filters.kernel_w() * in[0]->words_per_pixel();
  if (filters.kernel_h() == 3 && row_words == 3) {
    conv_binarize_window_batch<Ops, Tile, 3, 3>(in, n, filters, spec, thresholds, pool, out,
                                                margin);
  } else if (filters.kernel_h() == 3 && row_words == 6) {
    conv_binarize_window_batch<Ops, Tile, 3, 6>(in, n, filters, spec, thresholds, pool, out,
                                                margin);
  } else {
    conv_binarize_window_batch<Ops, Tile>(in, n, filters, spec, thresholds, pool, out, margin);
  }
}

}  // namespace
}  // namespace bitflow::kernels::impl
