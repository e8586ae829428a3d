#include "layers/relu.hpp"

#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

Shape
ReluLayer::outputShape(std::span<const Shape> in) const
{
    GIST_ASSERT(in.size() == 1, "relu takes one input");
    return in[0];
}

std::uint64_t
ReluLayer::auxStashBytes(std::span<const Shape> in) const
{
    if (stash_mode == StashMode::Dense)
        return 0;
    return binarizeBytes(in[0].numel());
}

void
ReluLayer::forward(const FwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.output, "relu forward args");
    reluForward(ctx.inputs[0]->span(), ctx.output->span());
    if (ctx.training && stash_mode == StashMode::Mask)
        mask.encode(ctx.output->span());
}

void
ReluLayer::backward(const BwdCtx &ctx)
{
    GIST_ASSERT(ctx.d_output, "relu backward needs dY");
    Tensor *dx = ctx.d_inputs[0];
    if (!dx)
        return;
    const auto dy = ctx.d_output->span();
    const auto dxs = dx->span();
    if (stash_mode == StashMode::Mask) {
        GIST_ASSERT(mask.numel() ==
                        static_cast<std::int64_t>(dy.size()),
                    "relu mask not captured for this minibatch");
        mask.reluBackward(dy, dxs);
        return;
    }
    GIST_ASSERT(ctx.output, "relu (dense mode) needs its stashed Y");
    const float *y = ctx.output->data();
    const auto kernel = simd::ops().reluBackward;
    const auto n = static_cast<std::int64_t>(dy.size());
    parallelFor(0, n, chooseGrain(n, 4096),
                [&](std::int64_t lo, std::int64_t hi) {
                    kernel(y + lo, dy.data() + lo, hi - lo,
                           dxs.data() + lo);
                });
}

void
ReluLayer::releaseAuxStash()
{
    mask.clear();
}

} // namespace gist
