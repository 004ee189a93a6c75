#include "ops/operators.hpp"

#include <stdexcept>

#include "baseline/float_ops.hpp"
#include "bitpack/packer.hpp"

namespace bitflow::ops {

namespace {

simd::IsaLevel pick_isa(std::int64_t packed_dim, const BinaryOpOptions& options) {
  if (options.force_isa.has_value()) return *options.force_isa;
  return graph::select_isa(packed_dim, simd::cpu_features(), options.policy);
}

}  // namespace

// --- BinaryConvOp -----------------------------------------------------------

BinaryConvOp::BinaryConvOp(FilterBank weights, std::int64_t stride, std::int64_t pad,
                           BinaryOpOptions options)
    : spec_{weights.kernel_h(), weights.kernel_w(), stride},
      pad_(pad),
      filters_(bitpack::pack_filters(weights)),
      isa_(pick_isa(weights.channels(), options)),
      dot_fn_(kernels::conv_dot_batch_kernel(isa_, simd::cpu_features().avx512vpopcntdq)),
      bin_fn_(kernels::conv_binarize_batch_kernel(isa_, simd::cpu_features().avx512vpopcntdq)) {
  if (pad < 0) throw std::invalid_argument("BinaryConvOp: negative pad");
}

void BinaryConvOp::run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) {
  if (in.channels() != filters_.channels()) {
    throw std::invalid_argument("BinaryConvOp: channel mismatch");
  }
  const std::int64_t ph = in.height() + 2 * pad_;
  const std::int64_t pw = in.width() + 2 * pad_;
  if (in_buf_.height() != ph || in_buf_.width() != pw || in_buf_.channels() != in.channels()) {
    in_buf_ = PackedTensor(ph, pw, in.channels());
  }
  bitpack::pack_activations_into_interior(in, in_buf_, pad_);
  const std::int64_t oh = spec_.out_h(ph), ow = spec_.out_w(pw);
  if (out.height() != oh || out.width() != ow || out.channels() != filters_.num_filters()) {
    throw std::invalid_argument("BinaryConvOp: output mis-shaped");
  }
  const PackedTensor* in_ptr = &in_buf_;
  Tensor* out_ptr = &out;
  dot_fn_(&in_ptr, 1, filters_, spec_, pool, &out_ptr);
}

void BinaryConvOp::run_packed(const PackedTensor& in_padded, const float* thresholds,
                              runtime::ThreadPool& pool, PackedTensor& out,
                              std::int64_t margin) const {
  kernels::check_conv_args(in_padded, filters_, spec_);
  const PackedTensor* in_ptr = &in_padded;
  PackedTensor* out_ptr = &out;
  bin_fn_(&in_ptr, 1, filters_, spec_, thresholds, pool, &out_ptr, margin);
}

// --- BinaryFcOp --------------------------------------------------------------

BinaryFcOp::BinaryFcOp(const float* w, std::int64_t n, std::int64_t k, BinaryOpOptions options)
    : n_(n),
      weights_(bitpack::pack_transpose_fc_weights(w, n, k)),
      isa_(pick_isa(n, options)),
      dot_fn_(kernels::bgemm_rows_kernel(isa_, simd::cpu_features().avx512vpopcntdq)),
      x_buf_(1, n) {}

void BinaryFcOp::run(const float* x, runtime::ThreadPool& pool, float* y) {
  // Fused binarize+pack of the activation row (bit64_u path).
  PackedMatrix packed = bitpack::pack_rows(x, 1, n_);
  x_buf_ = std::move(packed);
  dot_fn_(x_buf_, x_buf_.rows(), weights_, pool, y);
}

// --- BinaryPoolOp -------------------------------------------------------------

BinaryPoolOp::BinaryPoolOp(kernels::PoolSpec spec, std::int64_t channels,
                           BinaryOpOptions options)
    : spec_(spec), isa_(pick_isa(channels, options)) {}

void BinaryPoolOp::run(const Tensor& in, runtime::ThreadPool& pool, PackedTensor& out) {
  if (in_buf_.height() != in.height() || in_buf_.width() != in.width() ||
      in_buf_.channels() != in.channels()) {
    in_buf_ = PackedTensor(in.height(), in.width(), in.channels());
  }
  bitpack::pack_activations_into(in, in_buf_);
  kernels::binary_maxpool(in_buf_, spec_, isa_, pool, out, 0);
}

void BinaryPoolOp::run_packed(const PackedTensor& in, runtime::ThreadPool& pool,
                              PackedTensor& out, std::int64_t margin) const {
  kernels::binary_maxpool(in, spec_, isa_, pool, out, margin);
}

// --- FloatConvOp ---------------------------------------------------------------

FloatConvOp::FloatConvOp(const FilterBank& weights, std::int64_t stride, std::int64_t pad)
    : spec_{weights.kernel_h(), weights.kernel_w(), stride},
      pad_(pad),
      k_(weights.num_filters()),
      weights_t_(baseline::flatten_filters_transposed(weights)) {
  if (pad < 0) throw std::invalid_argument("FloatConvOp: negative pad");
}

void FloatConvOp::run(const Tensor& in, runtime::ThreadPool& pool, Tensor& out) {
  if (pad_ > 0) {
    const Tensor padded = baseline::pad_float(in, pad_);
    baseline::float_conv_im2col(padded, weights_t_, k_, spec_, pool, out, cols_scratch_);
  } else {
    baseline::float_conv_im2col(in, weights_t_, k_, spec_, pool, out, cols_scratch_);
  }
}

}  // namespace bitflow::ops
