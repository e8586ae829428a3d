#include "layers/fc.hpp"

#include <cmath>

#include "tensor/gemm.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gist {

FcLayer::FcLayer(std::int64_t in_features_n, std::int64_t out_features_n,
                 bool bias)
    : in_features(in_features_n), out_features(out_features_n),
      has_bias(bias)
{
    GIST_ASSERT(in_features > 0 && out_features > 0, "bad fc dims");
    weight = Tensor::placeholder(Shape{ out_features, in_features });
    bias_ = Tensor::placeholder(Shape{ out_features });
    d_weight = Tensor::placeholder(weight.shape());
    d_bias = Tensor::placeholder(bias_.shape());
}

Shape
FcLayer::outputShape(std::span<const Shape> in) const
{
    GIST_ASSERT(in.size() == 1, "fc takes one input");
    const std::int64_t batch = in[0].dim(0);
    const std::int64_t features = in[0].numel() / batch;
    GIST_ASSERT(features == in_features, "fc expects ", in_features,
                " features, got ", features, " from ", in[0].toString());
    return Shape{ batch, out_features };
}

void
FcLayer::initParams(Rng &rng)
{
    const float stddev = static_cast<float>(
        std::sqrt(2.0 / static_cast<double>(in_features)));
    weight.reallocate();
    for (std::int64_t i = 0; i < weight.numel(); ++i)
        weight.at(i) = rng.normal(0.0f, stddev);
    bias_.reallocate();
    d_weight.reallocate();
    d_bias.reallocate();
}

std::vector<Tensor *>
FcLayer::params()
{
    if (has_bias)
        return { &weight, &bias_ };
    return { &weight };
}

std::vector<Tensor *>
FcLayer::paramGrads()
{
    if (has_bias)
        return { &d_weight, &d_bias };
    return { &d_weight };
}

void
FcLayer::forward(const FwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.output, "fc forward args");
    const Tensor &x = *ctx.inputs[0];
    Tensor &y = *ctx.output;
    const std::int64_t batch = x.shape().dim(0);
    // Y (batch x out) = X (batch x in) * W^T (in x out)
    gemm(false, true, batch, out_features, in_features, 1.0f, x.data(),
         weight.data(), 0.0f, y.data());
    if (has_bias) {
        for (std::int64_t r = 0; r < batch; ++r) {
            float *row = y.data() + r * out_features;
            for (std::int64_t c = 0; c < out_features; ++c)
                row[c] += bias_.at(c);
        }
    }
}

void
FcLayer::backward(const BwdCtx &ctx)
{
    const Tensor *x = ctx.inputs.empty() ? nullptr : ctx.inputs[0];
    const EncodedStash x_enc =
        ctx.encoded_inputs.empty() ? EncodedStash{} : ctx.encoded_inputs[0];
    GIST_ASSERT(ctx.inputs.size() == 1 && (x || x_enc.valid()) &&
                    ctx.d_output,
                "fc backward needs stashed X (dense or encoded) and dY");
    const Tensor &dy = *ctx.d_output;
    const std::int64_t batch = dy.shape().dim(0);

    if (x) {
        // dW = dY^T (out x batch) * X (batch x in)
        gemm(true, false, out_features, in_features, batch, 1.0f,
             dy.data(), x->data(), 0.0f, d_weight.data());
    } else {
        // X stays encoded: each KC-row slice of it is decoded once into
        // arena scratch inside the GEMM — bitwise-identical to decoding
        // X fully, without the batch * in_features FP32 buffer.
        const auto pack = [&](std::int64_t offset, float *dst,
                              std::int64_t n) {
            x_enc.decodeRange(offset,
                              { dst, static_cast<size_t>(n) });
        };
        gemmPackedB(true, out_features, in_features, batch, 1.0f,
                    dy.data(), pack, 0.0f, d_weight.data());
    }
    if (has_bias) {
        d_bias.setZero();
        for (std::int64_t r = 0; r < batch; ++r) {
            const float *row = dy.data() + r * out_features;
            for (std::int64_t c = 0; c < out_features; ++c)
                d_bias.at(c) += row[c];
        }
    }
    if (Tensor *dx = ctx.d_inputs[0]) {
        // dX += dY (batch x out) * W (out x in)
        gemm(false, false, batch, in_features, out_features, 1.0f,
             dy.data(), weight.data(), 1.0f, dx->data());
    }
}

} // namespace gist
