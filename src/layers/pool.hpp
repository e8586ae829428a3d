/**
 * @file
 * Max and average pooling.
 *
 * MaxPool has two stash modes (paper Section IV-A):
 *  - Dense (baseline CNTK): stashes both its input X and output Y and
 *    recovers the max locations in the backward pass by scanning.
 *  - IndexMap (Gist/Binarize): records a Y->X argmax map (4 bits per
 *    output element) during forward, removing the backward dependence on
 *    X and Y entirely.
 *
 * AvgPool's backward needs only dY and geometry, so nothing is stashed.
 */

#pragma once

#include "encodings/pool_index_map.hpp"
#include "graph/layer.hpp"
#include "tensor/im2col.hpp"

namespace gist {

/** Pooling window hyperparameters. */
struct PoolSpec
{
    std::int64_t kernel_h = 0;
    std::int64_t kernel_w = 0;
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_h = 0;
    std::int64_t pad_w = 0;

    static PoolSpec
    square(std::int64_t k, std::int64_t stride, std::int64_t pad = 0)
    {
        return PoolSpec{ k, k, stride, stride, pad, pad };
    }
};

/** Max pooling layer. */
class MaxPoolLayer : public Layer
{
  public:
    enum class StashMode { Dense, IndexMap };

    explicit MaxPoolLayer(PoolSpec spec) : spec_(spec) {}

    void setStashMode(StashMode mode) { stash_mode = mode; }
    StashMode stashMode() const { return stash_mode; }

    LayerKind kind() const override { return LayerKind::MaxPool; }
    Shape outputShape(std::span<const Shape> in) const override;
    BackwardNeeds backwardNeeds() const override
    {
        const bool dense = stash_mode == StashMode::Dense;
        return { dense, dense };
    }
    std::uint64_t auxStashBytes(std::span<const Shape> in) const override;
    void forward(const FwdCtx &ctx) override;
    void backward(const BwdCtx &ctx) override;
    void releaseAuxStash() override;

    const PoolSpec &spec() const { return spec_; }

    /** The argmax map of the last training forward (IndexMap mode). */
    const PoolIndexMap &indexMap() const { return index_map; }

  private:
    ConvGeometry geometry(const Shape &in) const;

    PoolSpec spec_;
    StashMode stash_mode = StashMode::Dense;
    PoolIndexMap index_map;
};

/** Average pooling layer (use kernel == spatial dims for global pooling). */
class AvgPoolLayer : public Layer
{
  public:
    explicit AvgPoolLayer(PoolSpec spec) : spec_(spec) {}

    LayerKind kind() const override { return LayerKind::AvgPool; }
    Shape outputShape(std::span<const Shape> in) const override;
    BackwardNeeds backwardNeeds() const override { return { false, false }; }
    void forward(const FwdCtx &ctx) override;
    void backward(const BwdCtx &ctx) override;

    const PoolSpec &spec() const { return spec_; }

  private:
    ConvGeometry geometry(const Shape &in) const;

    PoolSpec spec_;
    Shape last_in_shape; ///< remembered for backward (shapes only)
};

} // namespace gist
