// Shared helpers for the BitFlow test suite: reference (naive) binary
// operators computed on decoded +-1 floats, against which every optimized
// kernel is checked.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baseline/float_ops.hpp"
#include "bitpack/packer.hpp"
#include "kernels/bgemm.hpp"
#include "kernels/binary_maxpool.hpp"
#include "kernels/conv_spec.hpp"
#include "kernels/pressedconv.hpp"
#include "tensor/filter_bank.hpp"
#include "tensor/packed_tensor.hpp"
#include "tensor/tensor.hpp"
#include "tensor/util.hpp"

namespace bitflow::testing {

/// Naive binary convolution: decode signs, run the float direct reference.
/// `in` must already carry any padding (the kernels' contract).
inline Tensor reference_binary_conv(const PackedTensor& in, const PackedFilterBank& filters,
                                    const kernels::ConvSpec& spec) {
  const Tensor signs = bitpack::unpack_to_signs(in);
  const FilterBank fsigns = bitpack::unpack_to_signs(filters);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(spec.out_h(in.height()), spec.out_w(in.width()),
                           filters.num_filters());
  baseline::float_conv_direct(signs, fsigns, spec, pool, out);
  return out;
}

/// Runs a batch raw-dot conv kernel on one image (the n = 1 call).
inline void conv_dot_one(kernels::ConvDotBatchFn fn, const PackedTensor& in,
                         const PackedFilterBank& filters, const kernels::ConvSpec& spec,
                         runtime::ThreadPool& pool, Tensor& out) {
  const PackedTensor* in_ptr = &in;
  Tensor* out_ptr = &out;
  fn(&in_ptr, 1, filters, spec, pool, &out_ptr);
}

/// Runs a batch fused conv+binarize kernel on one image (the n = 1 call).
inline void conv_binarize_one(kernels::ConvBinarizeBatchFn fn, const PackedTensor& in,
                              const PackedFilterBank& filters, const kernels::ConvSpec& spec,
                              const float* thresholds, runtime::ThreadPool& pool,
                              PackedTensor& out, std::int64_t margin) {
  const PackedTensor* in_ptr = &in;
  PackedTensor* out_ptr = &out;
  fn(&in_ptr, 1, filters, spec, thresholds, pool, &out_ptr, margin);
}

/// Naive Eq. 1 dot of packed rows via bit decoding.
inline std::int64_t reference_binary_dot(const PackedMatrix& a, std::int64_t row_a,
                                         const PackedMatrix& b, std::int64_t row_b) {
  std::int64_t dot = 0;
  for (std::int64_t i = 0; i < a.cols(); ++i) {
    dot += static_cast<std::int64_t>(a.sign_value(row_a, i) * b.sign_value(row_b, i));
  }
  return dot;
}

/// Naive binary max pool on decoded signs.
inline Tensor reference_binary_maxpool(const PackedTensor& in, const kernels::PoolSpec& spec) {
  const Tensor signs = bitpack::unpack_to_signs(in);
  runtime::ThreadPool pool(1);
  Tensor out = Tensor::hwc(spec.out_h(in.height()), spec.out_w(in.width()), in.channels());
  baseline::float_maxpool(signs, spec, pool, out);
  return out;
}

/// One layer of a sequential binary network with its float weights, so a
/// test can build graph::BinaryNetwork and reference_network_scores() from
/// the same values.
struct RefLayer {
  enum class Kind { kConv, kPool, kFc };
  Kind kind = Kind::kConv;
  std::string name;
  FilterBank conv;  ///< conv: K filters of kh x kw x C
  std::int64_t stride = 1, pad = 0;
  kernels::PoolSpec pool{};
  std::vector<float> fc;  ///< fc: row-major n x k (paper Table III)
  std::int64_t fc_n = 0, fc_k = 0;
  std::vector<float> thresholds;  ///< empty = sign at zero
};

/// Scores of one image through `layers`, composed layer by layer from the
/// validated filter-major dispatchers (pressed_conv_*, binary_maxpool,
/// bgemm*) — the reference the engine's interleaved-layout network must
/// match bit for bit.  Follows the engine's memory plan: each conv/pool
/// output carries the next conv's padding margin, and the last layer emits
/// float dots (conv, fc) or decoded signs (pool).
inline std::vector<float> reference_network_scores(const std::vector<RefLayer>& layers,
                                                   const Tensor& input) {
  using Kind = RefLayer::Kind;
  runtime::ThreadPool pool(1);
  const auto margin_before = [&](std::size_t i) -> std::int64_t {
    return i < layers.size() && layers[i].kind == Kind::kConv ? layers[i].pad : 0;
  };
  PackedTensor act;
  PackedMatrix row;
  bool flat = layers.front().kind == Kind::kFc;
  if (flat) {
    row = bitpack::pack_rows(input.data(), 1, input.num_elements());
  } else {
    const std::int64_t m = margin_before(0);
    act = PackedTensor(input.height() + 2 * m, input.width() + 2 * m, input.channels());
    bitpack::pack_activations_into_interior(input, act, m);
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const RefLayer& l = layers[i];
    const bool last = i + 1 == layers.size();
    const float* th = l.thresholds.empty() ? nullptr : l.thresholds.data();
    const std::int64_t m = margin_before(i + 1);
    switch (l.kind) {
      case Kind::kConv: {
        const PackedFilterBank filters = bitpack::pack_filters(l.conv);
        const kernels::ConvSpec spec{l.conv.kernel_h(), l.conv.kernel_w(), l.stride};
        const std::int64_t oh = spec.out_h(act.height()), ow = spec.out_w(act.width());
        if (last) {
          Tensor dots = Tensor::hwc(oh, ow, filters.num_filters());
          kernels::pressed_conv_dot(act, filters, spec, pool, dots);
          return {dots.data(), dots.data() + dots.num_elements()};
        }
        PackedTensor out(oh + 2 * m, ow + 2 * m, filters.num_filters());
        kernels::pressed_conv_binarize(act, filters, spec, th, pool, out, m);
        act = std::move(out);
        break;
      }
      case Kind::kPool: {
        PackedTensor out(l.pool.out_h(act.height()) + 2 * m, l.pool.out_w(act.width()) + 2 * m,
                         act.channels());
        kernels::binary_maxpool(act, l.pool, pool, out, m);
        if (last) {
          const Tensor signs = bitpack::unpack_to_signs(out);
          return {signs.data(), signs.data() + signs.num_elements()};
        }
        act = std::move(out);
        break;
      }
      case Kind::kFc: {
        if (!flat) {
          row = PackedMatrix(1, l.fc_n);
          bitpack::flatten_packed(act, row);
          flat = true;
        }
        const PackedMatrix w = bitpack::pack_transpose_fc_weights(l.fc.data(), l.fc_n, l.fc_k);
        if (last) {
          std::vector<float> y(static_cast<std::size_t>(l.fc_k));
          kernels::bgemm(row, w, pool, y.data());
          return y;
        }
        PackedMatrix out(1, l.fc_k);
        kernels::bgemm_binarize(row, w, th, pool, out);
        row = std::move(out);
        break;
      }
    }
  }
  return {};
}

/// Bytes of the layers' packed weights in the filter-major layout (one
/// word run per filter or fc row).
inline std::int64_t reference_weight_bytes(const std::vector<RefLayer>& layers) {
  std::int64_t bytes = 0;
  for (const RefLayer& l : layers) {
    if (l.kind == RefLayer::Kind::kConv) {
      const PackedFilterBank f = bitpack::pack_filters(l.conv);
      bytes += f.num_filters() * f.words_per_filter() * 8;
    } else if (l.kind == RefLayer::Kind::kFc) {
      const PackedMatrix w = bitpack::pack_transpose_fc_weights(l.fc.data(), l.fc_n, l.fc_k);
      bytes += w.rows() * w.words_per_row() * 8;
    }
  }
  return bytes;
}

}  // namespace bitflow::testing
