// Multi-base binary weight approximation — the accuracy-recovery extension
// the paper points to in Sec. V ("Lin's work approximates full-precision
// weights with the linear combination of multiple binary weight bases...
// BitFlow benefits from those advances").
//
// A float filter bank W is approximated as
//
//     W  ~=  sum_m  alpha_m ⊙ B_m,      B_m in {-1,+1},  alpha_m per filter
//
// found greedily on the residual: B_m = sign(R_m) and the least-squares
// scale alpha_m[k] = mean |R_m[k]| (the optimum for fixed B), with
// R_{m+1} = R_m - alpha_m ⊙ B_m.  Inference is then M PressedConv passes
// whose integer dots are combined with the alphas — every pass rides the
// same XOR+popcount kernels, so M binary convolutions still cost a small
// fraction of one float convolution while recovering most of the accuracy
// a single sign() throws away.  bench_multibase quantifies both sides.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/pressedconv.hpp"
#include "ops/operators.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::ops {

/// The M binary bases and per-filter scales approximating one filter bank.
struct MultiBaseFilters {
  std::vector<PackedFilterBank> bases;       ///< M packed {-1,+1} banks
  std::vector<std::vector<float>> alphas;    ///< [m][k] per-filter scales

  [[nodiscard]] int num_bases() const noexcept { return static_cast<int>(bases.size()); }
};

/// Greedy residual decomposition of `w` into `num_bases` binary bases.
[[nodiscard]] MultiBaseFilters approximate_filters(const FilterBank& w, int num_bases);

/// Root-mean-square error of the approximation, per filter.
[[nodiscard]] std::vector<float> approximation_rmse(const FilterBank& w,
                                                    const MultiBaseFilters& mb);

/// Multi-base binary convolution: output(y,x,k) = sum_m alpha_m[k] *
/// dot_m(y,x,k).  Input activations are binarized once (sign), packed once,
/// and reused across all M bases.
class MultiBaseConvOp {
 public:
  MultiBaseConvOp(const FilterBank& weights, int num_bases, std::int64_t stride,
                  std::int64_t pad, BinaryOpOptions options = {});

  /// Full per-inference pipeline from a float activation tensor; `out`
  /// receives the scaled multi-base dot sums (out_h x out_w x K floats).
  void run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out);

  [[nodiscard]] int num_bases() const noexcept { return mb_.num_bases(); }
  [[nodiscard]] simd::IsaLevel isa() const noexcept { return isa_; }
  [[nodiscard]] const MultiBaseFilters& filters() const noexcept { return mb_; }
  [[nodiscard]] const kernels::ConvSpec& spec() const noexcept { return spec_; }

 private:
  kernels::ConvSpec spec_;
  std::int64_t pad_;
  MultiBaseFilters mb_;
  simd::IsaLevel isa_;
  kernels::ConvDotBatchFn dot_fn_;
  PackedTensor in_buf_;
  Tensor base_out_;
};

}  // namespace bitflow::ops
