/**
 * @file
 * Binarize mask tests: the 32x compression claim, sign capture, and
 * equivalence of mask-based ReLU backward with the dense computation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "encodings/binarize.hpp"
#include "layers/relu.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/** ReluLayer's dense-mode backward from a zero dx: y > 0 ? dy : 0. */
std::vector<float>
layerReluBackward(const std::vector<float> &y, const std::vector<float> &dy)
{
    const Shape shape{ static_cast<std::int64_t>(y.size()) };
    Tensor yt(shape), dyt(shape), dxt(shape);
    std::copy(y.begin(), y.end(), yt.data());
    std::copy(dy.begin(), dy.end(), dyt.data());
    ReluLayer relu;
    BwdCtx ctx;
    ctx.inputs = { nullptr };
    ctx.output = &yt;
    ctx.d_output = &dyt;
    ctx.d_inputs = { &dxt };
    relu.backward(ctx);
    return { dxt.data(), dxt.data() + dxt.numel() };
}

TEST(Binarize, SizeIsOneBitPerValue)
{
    EXPECT_EQ(binarizeBytes(8), 1u);
    EXPECT_EQ(binarizeBytes(9), 2u);
    EXPECT_EQ(binarizeBytes(256), 32u);
    // 32x compression vs FP32 for multiples of 8.
    EXPECT_EQ(binarizeBytes(1024) * 32, 1024u * 4);
}

TEST(Binarize, CapturesStrictPositivity)
{
    const std::vector<float> values = { -1.0f, 0.0f, 1.0f, -0.0f, 1e-30f };
    BinarizedMask mask;
    mask.encode(values);
    EXPECT_FALSE(mask.positive(0));
    EXPECT_FALSE(mask.positive(1)); // zero is not positive
    EXPECT_TRUE(mask.positive(2));
    EXPECT_FALSE(mask.positive(3));
    EXPECT_TRUE(mask.positive(4));
}

TEST(Binarize, MaskBackwardMatchesDenseBackward)
{
    Rng rng(21);
    for (int n : { 1, 7, 8, 9, 63, 64, 65, 1000 }) {
        std::vector<float> y(static_cast<size_t>(n));
        std::vector<float> dy(static_cast<size_t>(n));
        for (auto &v : y)
            v = rng.normal();
        for (auto &v : dy)
            v = rng.normal();
        // ReLU outputs are non-negative; zero out the negatives like the
        // forward pass would.
        for (auto &v : y)
            v = v > 0.0f ? v : 0.0f;

        const std::vector<float> dx_dense = layerReluBackward(y, dy);

        BinarizedMask mask;
        mask.encode(y);
        std::vector<float> dx_mask(static_cast<size_t>(n));
        mask.reluBackward(dy, dx_mask);

        EXPECT_EQ(dx_dense, dx_mask) << "n=" << n;
    }
}

TEST(Binarize, SetAndResize)
{
    BinarizedMask mask;
    mask.resize(20);
    EXPECT_EQ(mask.numel(), 20);
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(mask.positive(i));
    mask.set(5, true);
    mask.set(19, true);
    EXPECT_TRUE(mask.positive(5));
    EXPECT_TRUE(mask.positive(19));
    mask.set(5, false);
    EXPECT_FALSE(mask.positive(5));
    EXPECT_TRUE(mask.positive(19));
}

TEST(Binarize, ClearReleases)
{
    BinarizedMask mask;
    mask.resize(100);
    EXPECT_GT(mask.bytes(), 0u);
    mask.clear();
    EXPECT_EQ(mask.bytes(), 0u);
    EXPECT_EQ(mask.numel(), 0);
}

TEST(Binarize, ReluBackwardFromRawBits)
{
    std::vector<float> y = { 1.0f, -1.0f, 2.0f, 0.0f };
    std::vector<float> dy = { 10.0f, 20.0f, 30.0f, 40.0f };
    BinarizedMask mask;
    mask.encode(y);
    // The kernel accumulates: a -0.0 gradient plus +0.0 becomes +0.0.
    std::vector<float> dx = { 1.0f, -0.0f, 0.0f, 0.5f };
    simd::ops().binarizeBackward(mask.raw().data(), dy.data(), 4,
                                 dx.data());
    EXPECT_EQ(dx, (std::vector<float>{ 11.0f, 0.0f, 30.0f, 0.5f }));
    EXPECT_FALSE(std::signbit(dx[1]));
}

} // namespace
} // namespace gist
