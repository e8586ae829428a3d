/**
 * @file
 * 2-D convolution as implicit GEMM (the dataflow of cuDNN's implicit-GEMM
 * algorithm): forward and dW pack their operands straight from the
 * image, so the column matrix is never formed. The one k x p buffer
 * backward takes (encoded-stash tile, dX column gradient) is the
 * cuDNN-workspace analogue accounted for in paper Figure 1.
 *
 * Backward needs: the stashed *input* feature map X (for the weight
 * gradient) and dY — paper Figure 4(d). This is why Binarize cannot apply
 * to ReLU->Conv pairs and SSDC is used instead.
 */

#pragma once

#include <vector>

#include "graph/layer.hpp"
#include "tensor/im2col.hpp"

namespace gist {

/** Convolution hyperparameters. */
struct ConvSpec
{
    std::int64_t out_channels = 0;
    std::int64_t kernel_h = 0;
    std::int64_t kernel_w = 0;
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_h = 0;
    std::int64_t pad_w = 0;
    bool bias = true;

    static ConvSpec
    square(std::int64_t out_c, std::int64_t k, std::int64_t stride = 1,
           std::int64_t pad = 0, bool with_bias = true)
    {
        return ConvSpec{ out_c, k, k, stride, stride, pad, pad, with_bias };
    }
};

/** Conv2D layer. */
class ConvLayer : public Layer
{
  public:
    /** @param in_channels input channel count (fixes the weight shape). */
    ConvLayer(std::int64_t in_channels, ConvSpec spec);

    LayerKind kind() const override { return LayerKind::Conv; }
    Shape outputShape(std::span<const Shape> in) const override;
    BackwardNeeds backwardNeeds() const override { return { true, false }; }
    void initParams(Rng &rng) override;
    std::vector<Tensor *> params() override;
    std::vector<Tensor *> paramGrads() override;
    std::uint64_t workspaceBytes(std::span<const Shape> in) const override;
    void forward(const FwdCtx &ctx) override;
    void backward(const BwdCtx &ctx) override;

    const ConvSpec &spec() const { return spec_; }
    std::int64_t inChannels() const { return in_c; }

  private:
    ConvGeometry geometry(const Shape &in) const;

    std::int64_t in_c;
    Shape last_in_shape; ///< remembered by forward for chunked backward
    ConvSpec spec_;
    Tensor weight;  ///< (out_c, in_c, kh, kw)
    Tensor bias_;   ///< (out_c)
    Tensor d_weight;
    Tensor d_bias;
};

} // namespace gist
