/**
 * @file
 * Direct unit tests for the elementwise/reduction kernels in
 * tensor/ops.hpp (the layer tests cover them indirectly; these pin the
 * exact semantics), plus ReLU backward through ReluLayer and the mask.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "encodings/binarize.hpp"
#include "layers/relu.hpp"
#include "tensor/ops.hpp"
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

TEST(Ops, ReluForwardClamps)
{
    const std::vector<float> x = { -2.0f, -0.0f, 0.0f, 3.5f, 1e-20f };
    std::vector<float> y(x.size());
    reluForward(x, y);
    EXPECT_EQ(y, (std::vector<float>{ 0.0f, 0.0f, 0.0f, 3.5f, 1e-20f }));
}

TEST(Ops, ReluBackwardGatesOnOutputSign)
{
    const std::vector<float> y = { 0.0f, 1.0f, 0.0f, 2.0f };
    const std::vector<float> dy = { 10.0f, 20.0f, 30.0f, 40.0f };
    EXPECT_EQ(layerReluBackward(y, dy),
              (std::vector<float>{ 0.0f, 20.0f, 0.0f, 40.0f }));
}

TEST(Ops, AddAndAccumulate)
{
    const std::vector<float> a = { 1.0f, 2.0f };
    const std::vector<float> b = { 10.0f, 20.0f };
    std::vector<float> out(2);
    add(a, b, out);
    EXPECT_EQ(out, (std::vector<float>{ 11.0f, 22.0f }));
    accumulate(a, out);
    EXPECT_EQ(out, (std::vector<float>{ 12.0f, 24.0f }));
}

TEST(Ops, Scale)
{
    std::vector<float> x = { 2.0f, -4.0f };
    scale(x, 0.5f);
    EXPECT_EQ(x, (std::vector<float>{ 1.0f, -2.0f }));
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder)
{
    const std::vector<float> logits = { 1.0f, 2.0f, 3.0f,
                                        -1.0f, -1.0f, -1.0f };
    std::vector<float> probs(6);
    softmaxRows(logits.data(), probs.data(), 2, 3);
    EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-6f);
    EXPECT_LT(probs[0], probs[1]);
    EXPECT_LT(probs[1], probs[2]);
    // Uniform row.
    for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(probs[3 + c], 1.0f / 3.0f, 1e-6f);
}

TEST(Ops, SoftmaxRowsIsShiftInvariantAndOverflowSafe)
{
    const std::vector<float> logits = { 1000.0f, 1001.0f, 999.0f };
    std::vector<float> probs(3);
    softmaxRows(logits.data(), probs.data(), 1, 3);
    for (float p : probs)
        EXPECT_TRUE(std::isfinite(p));
    const std::vector<float> shifted = { 0.0f, 1.0f, -1.0f };
    std::vector<float> probs2(3);
    softmaxRows(shifted.data(), probs2.data(), 1, 3);
    for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(probs[c], probs2[c], 1e-6f);
}

TEST(Ops, CrossEntropyWithGradMatchesDefinition)
{
    // Two rows, three classes, labels {2, 0}.
    const std::vector<float> logits = { 0.1f, 0.2f, 0.7f,
                                        0.5f, 0.1f, 0.4f };
    std::vector<float> probs(6);
    softmaxRows(logits.data(), probs.data(), 2, 3);
    const std::vector<std::int32_t> labels = { 2, 0 };
    std::vector<float> dlogits(6);
    const float loss = crossEntropyWithGrad(probs.data(), labels.data(),
                                            2, 3, dlogits.data());
    const float expected =
        -0.5f * (std::log(probs[2]) + std::log(probs[3]));
    EXPECT_NEAR(loss, expected, 1e-6f);
    // Gradient: (p - onehot) / rows.
    EXPECT_NEAR(dlogits[2], (probs[2] - 1.0f) / 2.0f, 1e-6f);
    EXPECT_NEAR(dlogits[0], probs[0] / 2.0f, 1e-6f);
    EXPECT_NEAR(dlogits[3], (probs[3] - 1.0f) / 2.0f, 1e-6f);
    // Each row's gradient sums to zero.
    EXPECT_NEAR(dlogits[0] + dlogits[1] + dlogits[2], 0.0f, 1e-6f);
}

TEST(Ops, ReluBackwardFromMaskAgreesWithDense)
{
    Rng rng(3);
    std::vector<float> y(257);
    std::vector<float> dy(257);
    for (size_t i = 0; i < y.size(); ++i) {
        y[i] = rng.normal();
        y[i] = y[i] > 0 ? y[i] : 0.0f;
        dy[i] = rng.normal();
    }
    const std::vector<float> dense = layerReluBackward(y, dy);

    BinarizedMask mask;
    mask.resize(static_cast<std::int64_t>(y.size()));
    for (size_t i = 0; i < y.size(); ++i)
        mask.set(static_cast<std::int64_t>(i), y[i] > 0.0f);
    std::vector<float> masked(y.size());
    mask.reluBackward(dy, masked);
    EXPECT_EQ(dense, masked);
}

} // namespace
} // namespace gist
