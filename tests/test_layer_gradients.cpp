/**
 * @file
 * Numerical gradient checks for every layer: analytic backward vs
 * central differences of a random linear functional of the output.
 * This validates the autodiff substrate the Gist experiments run on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/gist.hpp"
#include "layers/layers.hpp"
#include "models/builder.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/** Loss = sum_i w_i * y_i, accumulated in double for stability. */
double
linearLoss(const Tensor &y, const std::vector<float> &w)
{
    double loss = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i)
        loss += static_cast<double>(y.at(i)) *
                w[static_cast<size_t>(i)];
    return loss;
}

struct CheckOptions
{
    double eps = 1e-2;
    double tol = 2e-2;
    /** Skip input elements this close to zero (ReLU/pool kinks). */
    double kink_guard = 0.0;
    bool check_params = true;
};

/**
 * Run forward+backward once, then compare every input (and parameter)
 * gradient against central differences.
 */
void
checkGradients(Layer &layer, std::vector<Tensor> inputs,
               const CheckOptions &opts, std::uint64_t seed = 7)
{
    Rng rng(seed);
    std::vector<Shape> in_shapes;
    for (const auto &t : inputs)
        in_shapes.push_back(t.shape());
    Tensor output(layer.outputShape(in_shapes));

    std::vector<float> w(static_cast<size_t>(output.numel()));
    for (auto &v : w)
        v = rng.uniform(-1.0f, 1.0f);

    auto forward = [&]() {
        FwdCtx ctx;
        for (auto &t : inputs)
            ctx.inputs.push_back(&t);
        ctx.output = &output;
        ctx.training = true;
        layer.forward(ctx);
        return linearLoss(output, w);
    };

    forward();

    Tensor d_output(output.shape());
    for (std::int64_t i = 0; i < d_output.numel(); ++i)
        d_output.at(i) = w[static_cast<size_t>(i)];

    std::vector<Tensor> d_inputs;
    for (const auto &t : inputs)
        d_inputs.emplace_back(t.shape());

    BwdCtx bctx;
    for (auto &t : inputs)
        bctx.inputs.push_back(&t);
    bctx.output = &output;
    bctx.d_output = &d_output;
    for (auto &t : d_inputs)
        bctx.d_inputs.push_back(&t);
    layer.backward(bctx);

    auto check_one = [&](float &slot, float analytic, const char *what,
                         std::int64_t idx) {
        const float saved = slot;
        slot = saved + static_cast<float>(opts.eps);
        const double up = forward();
        slot = saved - static_cast<float>(opts.eps);
        const double down = forward();
        slot = saved;
        const double numeric = (up - down) / (2.0 * opts.eps);
        const double denom =
            std::max(1.0, std::abs(numeric) + std::abs(analytic));
        EXPECT_NEAR(analytic, numeric, opts.tol * denom)
            << what << " index " << idx;
    };

    for (size_t k = 0; k < inputs.size(); ++k) {
        for (std::int64_t i = 0; i < inputs[k].numel(); ++i) {
            if (opts.kink_guard > 0.0 &&
                std::abs(inputs[k].at(i)) < opts.kink_guard)
                continue;
            check_one(inputs[k].at(i), d_inputs[k].at(i), "input", i);
        }
    }

    if (opts.check_params) {
        auto params = layer.params();
        // Re-run backward after the perturbation loop restored state so
        // param grads are fresh (they were computed above and inputs
        // were restored bit-exactly, so they are still valid).
        auto grads = layer.paramGrads();
        ASSERT_EQ(params.size(), grads.size());
        for (size_t p = 0; p < params.size(); ++p) {
            for (std::int64_t i = 0; i < params[p]->numel(); ++i)
                check_one(params[p]->at(i), grads[p]->at(i), "param", i);
        }
    }
}

/** Random tensor with |values| in [lo, lo+1), signs mixed. */
Tensor
mixedSignTensor(const Shape &shape, float lo, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        const float mag = lo + static_cast<float>(rng.uniform());
        t.at(i) = rng.uniform() < 0.5 ? -mag : mag;
    }
    return t;
}

TEST(LayerGradients, ConvWithStrideAndPad)
{
    Rng rng(1);
    ConvLayer conv(3, ConvSpec::square(4, 3, 2, 1));
    conv.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 5, 5), 0.1f, 11));
    checkGradients(conv, std::move(inputs), {});
}

TEST(LayerGradients, ConvOneByOne)
{
    Rng rng(2);
    ConvLayer conv(4, ConvSpec::square(6, 1));
    conv.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(1, 4, 3, 3), 0.1f, 12));
    checkGradients(conv, std::move(inputs), {});
}

TEST(LayerGradients, ConvStrideTwoNonSquare)
{
    // Stride (2, 1) with a 3x2 kernel on 8x6: dX runs as two sub-pixel
    // phases with two and one kernel rows, and the last input row is
    // read by no output.
    Rng rng(4);
    ConvLayer conv(2, ConvSpec{ 3, 3, 2, 2, 1, 0, 0, true });
    conv.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 2, 8, 6), 0.1f, 14));
    checkGradients(conv, std::move(inputs), {});
}

TEST(LayerGradients, ConvOneByOneStrideTwo)
{
    // A 1x1 stride-2 projection: only dX's even rows and columns get a
    // gradient; the other three phases have no taps.
    Rng rng(5);
    ConvLayer conv(3, ConvSpec::square(4, 1, 2, 0));
    conv.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 5, 6), 0.1f, 15));
    checkGradients(conv, std::move(inputs), {});
}

TEST(LayerGradients, ConvWithoutBias)
{
    Rng rng(3);
    ConvLayer conv(2, ConvSpec{ 3, 3, 3, 1, 1, 1, 1, false });
    conv.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(1, 2, 4, 4), 0.1f, 13));
    checkGradients(conv, std::move(inputs), {});
}

TEST(LayerGradients, ReluDenseMode)
{
    ReluLayer relu;
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.2f, 14));
    CheckOptions opts;
    opts.kink_guard = 0.05;
    checkGradients(relu, std::move(inputs), opts);
}

TEST(LayerGradients, ReluMaskMode)
{
    ReluLayer relu;
    relu.setStashMode(ReluLayer::StashMode::Mask);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.2f, 15));
    CheckOptions opts;
    opts.kink_guard = 0.05;
    checkGradients(relu, std::move(inputs), opts);
}

TEST(LayerGradients, MaxPoolDenseMode)
{
    MaxPoolLayer pool(PoolSpec::square(2, 2));
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 2, 6, 6), 0.1f, 16));
    CheckOptions opts;
    opts.eps = 1e-3; // keep the argmax stable under perturbation
    checkGradients(pool, std::move(inputs), opts);
}

TEST(LayerGradients, MaxPoolIndexMapMode)
{
    MaxPoolLayer pool(PoolSpec::square(3, 2, 1));
    pool.setStashMode(MaxPoolLayer::StashMode::IndexMap);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(1, 3, 7, 7), 0.1f, 17));
    CheckOptions opts;
    opts.eps = 1e-3;
    checkGradients(pool, std::move(inputs), opts);
}

TEST(LayerGradients, AvgPoolWithPadding)
{
    AvgPoolLayer pool(PoolSpec::square(3, 2, 1));
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 2, 5, 5), 0.1f, 18));
    checkGradients(pool, std::move(inputs), {});
}

TEST(LayerGradients, GlobalAvgPool)
{
    AvgPoolLayer pool(PoolSpec::square(4, 1));
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.1f, 19));
    checkGradients(pool, std::move(inputs), {});
}

TEST(LayerGradients, FullyConnected)
{
    Rng rng(4);
    FcLayer fc(12, 7);
    fc.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(3, 3, 2, 2), 0.1f, 20));
    checkGradients(fc, std::move(inputs), {});
}

TEST(LayerGradients, BatchNorm)
{
    Rng rng(5);
    BatchNormLayer bn(3);
    bn.initParams(rng);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(4, 3, 3, 3), 0.1f, 21));
    CheckOptions opts;
    opts.tol = 5e-2; // normalization amplifies fp32 noise
    checkGradients(bn, std::move(inputs), opts);
}

TEST(LayerGradients, Lrn)
{
    LrnLayer lrn(5, 1e-2f, 0.75f, 2.0f);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 8, 3, 3), 0.1f, 22));
    CheckOptions opts;
    opts.tol = 4e-2;
    checkGradients(lrn, std::move(inputs), opts);
}

TEST(LayerGradients, LrnSmallWindowSteepBeta)
{
    // Window 3 leaves channels at the edges with asymmetric sums;
    // beta > 1 steepens the denominator's nonlinearity.
    LrnLayer lrn(3, 5e-2f, 1.2f, 1.0f);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 5, 3, 3), 0.1f, 47));
    CheckOptions opts;
    opts.tol = 4e-2;
    checkGradients(lrn, std::move(inputs), opts);
}

TEST(LayerGradients, LrnWindowWiderThanChannels)
{
    // n = 7 over C = 4: every window clamps at both channel edges.
    LrnLayer lrn(7, 1e-2f, 0.75f, 2.0f);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 4, 3, 3), 0.1f, 48));
    CheckOptions opts;
    opts.tol = 4e-2;
    checkGradients(lrn, std::move(inputs), opts);
}

TEST(LayerGradients, MaxPoolOverlappingDense)
{
    // Kernel 3, stride 1, pad 1: every input belongs to up to 9
    // windows, so the backward must accumulate across overlaps.
    MaxPoolLayer pool(PoolSpec::square(3, 1, 1));
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(1, 2, 5, 5), 0.1f, 49));
    CheckOptions opts;
    opts.eps = 1e-3; // keep the argmax stable under perturbation
    checkGradients(pool, std::move(inputs), opts);
}

TEST(LayerGradients, MaxPoolOverlappingIndexMap)
{
    // Same overlap pattern routed through the 4-bit argmax map.
    MaxPoolLayer pool(PoolSpec::square(3, 1));
    pool.setStashMode(MaxPoolLayer::StashMode::IndexMap);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 2, 6, 6), 0.1f, 50));
    CheckOptions opts;
    opts.eps = 1e-3;
    checkGradients(pool, std::move(inputs), opts);
}

/**
 * Full-executor check: under the lossless config the ReLU output
 * feeding the second conv is stashed in CSR. The conv backward reads
 * it either from a full decode (elide off) or tile by tile from the
 * encoding (elide on). Either way the conv weight/bias gradients must
 * match central differences of the minibatch loss.
 */
void
checkConvParamGradsFullExecutor(bool elide)
{
    NetBuilder net(2, 3, 8, 8);
    net.conv(4, 3, 1, 1);
    net.relu();
    net.conv(4, 3, 1, 1);
    net.fc(3);
    net.loss(3);
    Graph g = net.take();
    Rng rng(31);
    g.initParams(rng);
    Executor exec(g);
    GistConfig cfg = GistConfig::lossless();
    cfg.elide_decode_buffer = elide;
    applyToExecutor(buildSchedule(g, cfg), exec);
    Rng drng(32);
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    const std::vector<std::int32_t> labels = { 0, 1 };
    auto run = [&]() {
        return static_cast<double>(exec.runMinibatch(batch, labels));
    };
    run();

    // Snapshot the analytic grads now: every perturbed rerun below
    // recomputes (and thus trashes) the gradient tensors.
    struct ConvCheck
    {
        const std::string *name;
        std::vector<Tensor *> params;
        std::vector<std::vector<float>> analytic;
    };
    std::vector<ConvCheck> convs;
    for (auto &node : g.nodes()) {
        if (!node.layer || node.kind() != LayerKind::Conv)
            continue;
        ConvCheck c;
        c.name = &node.name;
        c.params = node.layer->params();
        for (Tensor *grad : node.layer->paramGrads())
            c.analytic.emplace_back(grad->data(),
                                    grad->data() + grad->numel());
        ASSERT_EQ(c.params.size(), c.analytic.size());
        convs.push_back(std::move(c));
    }
    ASSERT_EQ(convs.size(), 2u);

    const double eps = 1e-2;
    for (ConvCheck &c : convs) {
        for (size_t p = 0; p < c.params.size(); ++p) {
            for (std::int64_t i = 0; i < c.params[p]->numel(); ++i) {
                const float saved = c.params[p]->at(i);
                const double analytic = static_cast<double>(
                    c.analytic[p][static_cast<size_t>(i)]);
                c.params[p]->at(i) = saved + static_cast<float>(eps);
                const double up = run();
                c.params[p]->at(i) = saved - static_cast<float>(eps);
                const double down = run();
                c.params[p]->at(i) = saved;
                const double numeric = (up - down) / (2.0 * eps);
                const double denom = std::max(
                    1.0, std::abs(numeric) + std::abs(analytic));
                EXPECT_NEAR(analytic, numeric, 3e-2 * denom)
                    << *c.name << " param " << p << " index " << i
                    << (elide ? " elide" : "");
            }
        }
    }
}

TEST(LayerGradients, ConvParamGradsUnderEncodedStashes)
{
    // Full decode of the CSR stash before the conv backward.
    checkConvParamGradsFullExecutor(false);
}

TEST(LayerGradients, ConvParamGradsFusedConsume)
{
    // The conv backward packs its dW operand tile by tile straight
    // from the CSR encoding; the same numeric gates must hold.
    checkConvParamGradsFullExecutor(true);
}

TEST(LayerGradients, Concat)
{
    ConcatLayer concat;
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 2, 3, 3), 0.1f, 23));
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 3, 3), 0.1f, 24));
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 1, 3, 3), 0.1f, 25));
    checkGradients(concat, std::move(inputs), {});
}

TEST(LayerGradients, EltwiseAdd)
{
    AddLayer add;
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.1f, 26));
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.1f, 27));
    checkGradients(add, std::move(inputs), {});
}

TEST(LayerGradients, Sigmoid)
{
    SigmoidLayer sigmoid;
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.1f, 45));
    checkGradients(sigmoid, std::move(inputs), {});
}

TEST(LayerGradients, Tanh)
{
    TanhLayer tanh_layer;
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.1f, 46));
    checkGradients(tanh_layer, std::move(inputs), {});
}

TEST(LayerGradients, Flatten)
{
    FlattenLayer flatten;
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 2, 2), 0.1f, 28));
    checkGradients(flatten, std::move(inputs), {});
}

TEST(LayerGradients, DropoutKeepAll)
{
    // p = 0 keeps dropout deterministic across the re-forwarding the
    // checker does; mask behavior is covered in test_layers.cpp.
    DropoutLayer dropout(0.0f);
    std::vector<Tensor> inputs;
    inputs.push_back(mixedSignTensor(Shape::nchw(2, 3, 4, 4), 0.1f, 29));
    checkGradients(dropout, std::move(inputs), {});
}

TEST(LayerGradients, SoftmaxCrossEntropy)
{
    // The loss layer's output *is* the scalar loss: check dlogits
    // against central differences of the forward loss directly.
    const std::int64_t batch = 4;
    const std::int64_t classes = 5;
    SoftmaxCrossEntropyLayer loss(classes);
    const std::vector<std::int32_t> labels = { 0, 3, 2, 4 };
    loss.setLabels(labels);

    Tensor logits = mixedSignTensor(Shape{ batch, classes }, 0.1f, 30);
    Tensor out(Shape{ 1 });

    auto forward = [&]() {
        FwdCtx ctx;
        ctx.inputs = { &logits };
        ctx.output = &out;
        loss.forward(ctx);
        return static_cast<double>(loss.lastLoss());
    };
    forward();

    Tensor dlogits(logits.shape());
    BwdCtx bctx;
    bctx.inputs = { &logits };
    bctx.d_inputs = { &dlogits };
    loss.backward(bctx);

    const double eps = 1e-2;
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
        const float saved = logits.at(i);
        logits.at(i) = saved + static_cast<float>(eps);
        const double up = forward();
        logits.at(i) = saved - static_cast<float>(eps);
        const double down = forward();
        logits.at(i) = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(dlogits.at(i), numeric, 2e-3) << "logit " << i;
    }
}

} // namespace
} // namespace gist
