/**
 * @file
 * Spatial batch normalization (per-channel over N, H, W).
 *
 * Backward needs the stashed input X plus the saved per-channel batch
 * statistics (a tiny aux stash). BN outputs therefore fall into the
 * paper's "Others" stash category and are DPR targets; the paper also
 * notes BN is the layer where *recomputation* is a viable alternative.
 */

#pragma once

#include "graph/layer.hpp"

namespace gist {

/** Batch normalization layer. */
class BatchNormLayer : public Layer
{
  public:
    explicit BatchNormLayer(std::int64_t channels, float eps = 1e-5f,
                            float momentum = 0.9f);

    LayerKind kind() const override { return LayerKind::BatchNorm; }
    Shape outputShape(std::span<const Shape> in) const override;
    BackwardNeeds backwardNeeds() const override { return { true, false }; }
    void initParams(Rng &rng) override;
    std::vector<Tensor *> params() override;
    std::vector<Tensor *> paramGrads() override;
    std::vector<Tensor *> stateTensors() override;
    std::uint64_t auxStashBytes(std::span<const Shape> in) const override;
    void forward(const FwdCtx &ctx) override;
    void backward(const BwdCtx &ctx) override;
    void releaseAuxStash() override;

  private:
    /** forward()/backward() for channels [c0, c1): a parallel chunk. */
    void forwardChannels(const FwdCtx &ctx, std::int64_t c0,
                         std::int64_t c1);
    void backwardChannels(const BwdCtx &ctx, std::int64_t c0,
                          std::int64_t c1);

    std::int64_t channels;
    float eps;
    float momentum;
    Tensor gamma;
    Tensor beta;
    Tensor d_gamma;
    Tensor d_beta;
    Tensor running_mean;
    Tensor running_var;
    std::vector<float> saved_mean;   ///< aux stash (per channel)
    std::vector<float> saved_invstd; ///< aux stash (per channel)
};

} // namespace gist
