/**
 * @file
 * Fully-connected layer (flattens any NCHW input to N x features).
 * Backward needs its stashed input X for the weight gradient, so FC
 * inputs land in the "Others" stash category (DPR territory).
 */

#pragma once

#include "graph/layer.hpp"

namespace gist {

/** Fully-connected (inner product) layer. */
class FcLayer : public Layer
{
  public:
    FcLayer(std::int64_t in_features, std::int64_t out_features,
            bool bias = true);

    LayerKind kind() const override { return LayerKind::Fc; }
    Shape outputShape(std::span<const Shape> in) const override;
    BackwardNeeds backwardNeeds() const override { return { true, false }; }
    void initParams(Rng &rng) override;
    std::vector<Tensor *> params() override;
    std::vector<Tensor *> paramGrads() override;
    void forward(const FwdCtx &ctx) override;
    void backward(const BwdCtx &ctx) override;

  private:
    std::int64_t in_features;
    std::int64_t out_features;
    bool has_bias;
    Tensor weight; ///< (out, in)
    Tensor bias_;  ///< (out)
    Tensor d_weight;
    Tensor d_bias;
};

} // namespace gist
