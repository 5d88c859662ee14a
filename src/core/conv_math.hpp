// Conv/BN/pool forward math (NCHW, im2col-based).
//
// Home of the value-path loops of conv2d / batch_norm2d / global_avg_pool,
// which the autograd ops (autograd/ops.cpp) call.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace yf::core {

struct Conv2dDims {
  std::int64_t n, c, h, w;  // input
  std::int64_t f, kh, kw;   // filters
  std::int64_t oh, ow;      // output spatial
  std::int64_t stride, pad;
};

/// Fill the derived fields (oh/ow) of a ConvDims from input/filter/stride.
Conv2dDims conv2d_dims(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                       std::int64_t f, std::int64_t kh, std::int64_t kw, std::int64_t stride,
                       std::int64_t pad);

/// im2col: input [N,C,H,W] -> col [N*OH*OW, C*KH*KW].
void im2col_into(tensor::Tensor& col, const tensor::Tensor& input, const Conv2dDims& d);

/// col2im: scatter-add of col gradient back to input layout.
void col2im_add(const tensor::Tensor& dcol, const Conv2dDims& d, tensor::Tensor& dinput);

/// outmat [N*OH*OW, F] (= col @ Wᵀ) + bias [F] -> out [N,F,OH,OW].
void conv2d_bias_nchw_into(tensor::Tensor& out, const tensor::Tensor& outmat,
                           const tensor::Tensor& bias, const Conv2dDims& d);

/// Training-mode BN statistics: per-channel mean and 1/std over [N,C,H,W].
void batchnorm2d_stats_into(tensor::Tensor& mean, tensor::Tensor& inv_std,
                            const tensor::Tensor& x, std::int64_t n, std::int64_t c,
                            std::int64_t h, std::int64_t w, double eps);

/// xhat = (x - mean)/std (cached for backward), out = gamma*xhat + beta.
void batchnorm2d_normalize_into(tensor::Tensor& out, tensor::Tensor& xhat,
                                const tensor::Tensor& x, const tensor::Tensor& gamma,
                                const tensor::Tensor& beta, const tensor::Tensor& mean,
                                const tensor::Tensor& inv_std, std::int64_t n, std::int64_t c,
                                std::int64_t h, std::int64_t w);

/// [N,C,H,W] -> [N,C] spatial mean.
void global_avg_pool_into(tensor::Tensor& out, const tensor::Tensor& x, std::int64_t n,
                          std::int64_t c, std::int64_t h, std::int64_t w);

}  // namespace yf::core
