// Mini ResNet for SynthCIFAR (DESIGN.md §2 substitution for ResNet-110/164).
//
// BN residual CNN, matching the paper's architecture family: stem conv+BN,
// `blocks_per_stage` residual blocks per stage (3 stages, channel doubling
// + stride-2 downsample between stages), global average pooling, linear
// classifier. `with_batchnorm = false` gives the BN-free ablation variant
// (residual branches then scaled by `residual_scale` to stay bounded).
#pragma once

#include <memory>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace yf::nn {

/// conv3x3 -> BN -> relu -> conv3x3 -> BN, added to a (possibly
/// downsampled) skip path, then relu.
class ResidualBlock : public Module {
 public:
  /// If `downsample` is true the block halves H,W (stride 2) and the skip
  /// path uses a 1x1 stride-2 projection from in_ch to out_ch.
  ResidualBlock(std::int64_t in_ch, std::int64_t out_ch, bool downsample, tensor::Rng& rng,
                double residual_scale = 0.5, bool with_batchnorm = true);

  autograd::Variable forward(const autograd::Variable& x) const;

 private:
  std::shared_ptr<Conv2d> conv1_, conv2_, proj_;
  std::shared_ptr<BatchNorm2d> bn1_, bn2_;
  bool downsample_;
  double residual_scale_;
};

struct MiniResNetConfig {
  std::int64_t in_channels = 3;
  std::int64_t base_channels = 8;     ///< channels in the first stage
  std::int64_t blocks_per_stage = 2;  ///< 3 stages total
  std::int64_t num_classes = 10;
  double residual_scale = 0.5;        ///< used only when BN is off
  bool with_batchnorm = true;
};

class MiniResNet : public Module {
 public:
  MiniResNet(const MiniResNetConfig& cfg, tensor::Rng& rng);

  /// images [N, C, H, W] -> logits [N, num_classes].
  autograd::Variable forward(const autograd::Variable& images) const;

 private:
  std::shared_ptr<Conv2d> stem_;
  std::shared_ptr<BatchNorm2d> stem_bn_;
  std::vector<std::shared_ptr<ResidualBlock>> blocks_;
  std::shared_ptr<Linear> head_;
};

}  // namespace yf::nn
