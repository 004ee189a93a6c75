// Generic bgemm inner loops, templated over an ISA policy (same scheme as
// pressedconv_impl.hpp — included only by the per-ISA kernel TUs).
//
// Batch-N: the row-limited `_rows` variants compute only the first `m_rows`
// rows of A (the serving path keeps a max_batch-row activation matrix and
// fills the first n rows per micro-batch).  The M and K dimensions are fused
// into one m_rows*k_rows parallel_for, so a batch of N requests through a
// small FC layer costs one fork/join instead of N — same fusion the batched
// PressedConv applies to N*H*W.  Each output element depends only on its own
// (m, k) pair, so results are bit-identical for any m_rows and any thread
// count; a full product is the m_rows = rows() call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "kernels/binarize_impl.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/packed_tensor.hpp"

// Internal linkage, as in binarize_impl.hpp.
namespace bitflow::kernels::impl {
namespace {

template <typename Ops>
void bgemm_rows_impl(const PackedMatrix& a, std::int64_t m_rows, const PackedMatrix& w,
                     runtime::ThreadPool& pool, float* y) {
  if (a.cols() != w.cols()) throw std::invalid_argument("bgemm: N mismatch");
  if (m_rows < 0 || m_rows > a.rows()) {
    throw std::invalid_argument("bgemm: m_rows out of range");
  }
  const std::int64_t k_rows = w.rows();
  const std::int64_t n_words = a.words_per_row();
  const std::int64_t bits = a.cols();
  // Multi-core parallelism over the fused M*K output range (paper Sec.
  // III-C parallelizes K; fusing M keeps small layers saturated at M > 1).
  pool.parallel_for(m_rows * k_rows, [&](runtime::Range r, int) {
    std::int64_t idx = r.begin;
    while (idx < r.end) {
      const std::int64_t m = idx / k_rows;
      const std::int64_t k_begin = idx - m * k_rows;
      const std::int64_t k_end = std::min(k_rows, k_begin + (r.end - idx));
      const std::uint64_t* xa = a.row(m);
      float* ym = y + m * k_rows;
      std::int64_t k = k_begin;
      // 4-way K blocking: the activation row streams from L1/L2 once per
      // four weight rows.
      for (; k + 4 <= k_end; k += 4) {
        const std::uint64_t p0 = Ops::xor_popcount(xa, w.row(k + 0), n_words);
        const std::uint64_t p1 = Ops::xor_popcount(xa, w.row(k + 1), n_words);
        const std::uint64_t p2 = Ops::xor_popcount(xa, w.row(k + 2), n_words);
        const std::uint64_t p3 = Ops::xor_popcount(xa, w.row(k + 3), n_words);
        ym[k + 0] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p0));
        ym[k + 1] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p1));
        ym[k + 2] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p2));
        ym[k + 3] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p3));
      }
      for (; k < k_end; ++k) {
        const std::uint64_t p = Ops::xor_popcount(xa, w.row(k), n_words);
        ym[k] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p));
      }
      idx += k_end - k_begin;
    }
  });
}

template <typename Ops>
void bgemm_binarize_rows_impl(const PackedMatrix& a, std::int64_t m_rows, const PackedMatrix& w,
                              const float* thresholds, runtime::ThreadPool& pool,
                              PackedMatrix& out) {
  if (a.cols() != w.cols()) throw std::invalid_argument("bgemm_binarize: N mismatch");
  if (out.rows() != a.rows() || out.cols() != w.rows()) {
    throw std::invalid_argument("bgemm_binarize: output mis-shaped");
  }
  if (m_rows < 0 || m_rows > a.rows()) {
    throw std::invalid_argument("bgemm_binarize: m_rows out of range");
  }
  const std::int64_t k_rows = w.rows();
  const std::int64_t n_words = a.words_per_row();
  const std::int64_t bits = a.cols();
  const std::int64_t out_words = out.words_per_row();
  // Parallelize over whole output words (fused across rows) so no two
  // workers share a word.
  pool.parallel_for(m_rows * out_words, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t m = idx / out_words;
      const std::int64_t wi = idx - m * out_words;
      const std::uint64_t* xa = a.row(m);
      const std::int64_t k0 = wi * 64;
      const std::int64_t block = std::min<std::int64_t>(64, k_rows - k0);
      std::uint64_t packed = 0;
      for (std::int64_t b = 0; b < block; ++b) {
        const std::uint64_t p = Ops::xor_popcount(xa, w.row(k0 + b), n_words);
        const float dot = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p));
        const float th = thresholds != nullptr ? thresholds[k0 + b] : 0.0f;
        packed |= static_cast<std::uint64_t>(dot >= th) << b;
      }
      out.row(m)[wi] = packed;
    }
  });
}

// --- register-tiled variants over the interleaved weight layout --------------
//
// The untiled kernels' 4-way K blocking reads four strided weight rows per
// activation word; after the finalize-time interleave (bitpack::
// tile_fc_weights) the T = Tile::kWidth matching weight words are one
// contiguous line, and the T neuron counters stay in registers across the
// whole activation row.  Remainder neurons (K % T) stayed row-major in the
// tiled matrix and take the word-run path.
//
// Tile is an explicit template parameter (not Ops::Tile) so each per-ISA TU
// can fill one KernelTable slot per supported width — the auto-tuner's T axis.

template <typename Ops, typename Tile>
void bgemm_rows_tiled_impl(const PackedMatrix& a, std::int64_t m_rows, const TiledBitMatrix& w,
                           runtime::ThreadPool& pool, float* y) {
  constexpr std::int64_t kT = Tile::kWidth;
  if (w.tile() != kT) {
    throw std::invalid_argument("bgemm tiled: matrix tile width does not match kernel");
  }
  if (w.row_words() != a.words_per_row()) throw std::invalid_argument("bgemm tiled: N mismatch");
  if (m_rows < 0 || m_rows > a.rows()) {
    throw std::invalid_argument("bgemm tiled: m_rows out of range");
  }
  const std::int64_t k_rows = w.rows();
  const std::int64_t n_words = a.words_per_row();
  const std::int64_t bits = a.cols();
  const std::int64_t full_tiles = w.full_tiles();
  const std::int64_t tiled_rows = w.tiled_rows();
  // One grain per (row of A, filter tile or remainder neuron) — the fused
  // range keeps small layers saturated at M > 1, like the untiled kernel.
  const std::int64_t groups = full_tiles + w.remainder_rows();
  pool.parallel_for(m_rows * groups, [&](runtime::Range r, int) {
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t m = idx / groups;
      const std::int64_t g = idx - m * groups;
      const std::uint64_t* xa = a.row(m);
      float* ym = y + m * k_rows;
      if (g < full_tiles) {
        Tile acc{};
        const std::uint64_t* f = w.tile_block(g);
        for (std::int64_t wi = 0; wi < n_words; ++wi, f += kT) {
          acc.accumulate(xa[wi], f);
        }
        std::uint64_t pops[kT];
        acc.reduce(pops);
        float* yk = ym + g * kT;
        for (std::int64_t l = 0; l < kT; ++l) {
          yk[l] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(pops[l]));
        }
      } else {
        const std::int64_t rr = g - full_tiles;
        const std::uint64_t p = Ops::xor_popcount(xa, w.remainder_row(rr), n_words);
        ym[tiled_rows + rr] = static_cast<float>(bits - 2 * static_cast<std::int64_t>(p));
      }
    }
  });
}

template <typename Ops, typename Tile>
void bgemm_binarize_rows_tiled_impl(const PackedMatrix& a, std::int64_t m_rows,
                                    const TiledBitMatrix& w, const float* thresholds,
                                    runtime::ThreadPool& pool, PackedMatrix& out) {
  constexpr std::int64_t kT = Tile::kWidth;
  if (w.tile() != kT) {
    throw std::invalid_argument("bgemm_binarize tiled: matrix tile width does not match kernel");
  }
  if (w.row_words() != a.words_per_row()) {
    throw std::invalid_argument("bgemm_binarize tiled: N mismatch");
  }
  if (out.rows() != a.rows() || out.cols() != w.rows()) {
    throw std::invalid_argument("bgemm_binarize tiled: output mis-shaped");
  }
  if (m_rows < 0 || m_rows > a.rows()) {
    throw std::invalid_argument("bgemm_binarize tiled: m_rows out of range");
  }
  const std::int64_t k_rows = w.rows();
  const std::int64_t n_words = a.words_per_row();
  const std::int64_t bits = a.cols();
  const std::int64_t tiled_rows = w.tiled_rows();
  const std::int64_t out_words = out.words_per_row();
  // Word-major over the fused (output word, row) range: consecutive grains
  // share one 64-neuron weight block and its integer bounds, which are
  // recomputed only when the word changes.
  pool.parallel_for(out_words * m_rows, [&](runtime::Range r, int) {
    std::int64_t bound[64];
    std::int64_t bound_word = -1;
    for (std::int64_t idx = r.begin; idx < r.end; ++idx) {
      const std::int64_t wi = idx / m_rows;
      const std::int64_t m = idx - wi * m_rows;
      const std::int64_t k0 = wi * 64;
      const std::int64_t k_end = std::min<std::int64_t>(k0 + 64, k_rows);
      if (wi != bound_word) {
        popcount_bounds(bits, thresholds, k0, k_end, bound);
        bound_word = wi;
      }
      const std::uint64_t* xa = a.row(m);
      out.row(m)[wi] = binarize_word<Tile>(
          k0, k_end, tiled_rows, bound,
          [&](Tile& acc, std::int64_t t) {
            const std::uint64_t* f = w.tile_block(t);
            for (std::int64_t nw = 0; nw < n_words; ++nw, f += kT) acc.accumulate(xa[nw], f);
          },
          [&](std::int64_t k) {
            return static_cast<std::int64_t>(
                Ops::xor_popcount(xa, w.remainder_row(k - tiled_rows), n_words));
          });
    }
  });
}

}  // namespace
}  // namespace bitflow::kernels::impl
