#include "layers/conv.hpp"

#include <algorithm>
#include <cmath>

#include "memory/arena.hpp"
#include "tensor/gemm.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gist {

namespace {

/**
 * db[oc] += sum_j dY_b[oc][j] for images b ascending: each (image, oc)
 * row is summed left to right from +0, then added to db. Rows go eight
 * at a time so that eight independent add chains hide the add latency;
 * every chain keeps the order of a plain loop.
 */
void
biasGrad(const float *dy, std::int64_t batch, std::int64_t out_c,
         std::int64_t p, float *db)
{
    constexpr std::int64_t kRows = 8;
    for (std::int64_t img = 0; img < batch; ++img) {
        const float *dy_img = dy + img * out_c * p;
        std::int64_t oc = 0;
        for (; oc + kRows <= out_c; oc += kRows) {
            float acc[kRows] = {};
            for (std::int64_t j = 0; j < p; ++j)
                for (std::int64_t i = 0; i < kRows; ++i)
                    acc[i] += dy_img[(oc + i) * p + j];
            for (std::int64_t i = 0; i < kRows; ++i)
                db[oc + i] += acc[i];
        }
        for (; oc < out_c; ++oc) {
            float acc = 0.0f;
            for (std::int64_t j = 0; j < p; ++j)
                acc += dy_img[oc * p + j];
            db[oc] += acc;
        }
    }
}

} // namespace

ConvLayer::ConvLayer(std::int64_t in_channels, ConvSpec spec)
    : in_c(in_channels), spec_(spec)
{
    GIST_ASSERT(in_c > 0 && spec_.out_channels > 0 && spec_.kernel_h > 0 &&
                    spec_.kernel_w > 0,
                "bad conv spec");
    weight = Tensor::placeholder(
        Shape{ spec_.out_channels, in_c, spec_.kernel_h, spec_.kernel_w });
    bias_ = Tensor::placeholder(Shape{ spec_.out_channels });
    d_weight = Tensor::placeholder(weight.shape());
    d_bias = Tensor::placeholder(bias_.shape());
}

ConvGeometry
ConvLayer::geometry(const Shape &in) const
{
    GIST_ASSERT(in.rank() == 4 && in.c() == in_c, "conv expects NCHW with ",
                in_c, " channels, got ", in.toString());
    ConvGeometry g;
    g.in_c = in_c;
    g.in_h = in.h();
    g.in_w = in.w();
    g.kernel_h = spec_.kernel_h;
    g.kernel_w = spec_.kernel_w;
    g.stride_h = spec_.stride_h;
    g.stride_w = spec_.stride_w;
    g.pad_h = spec_.pad_h;
    g.pad_w = spec_.pad_w;
    return g;
}

std::int64_t
ConvLayer::decodeTileImages(const ConvGeometry &g)
{
    const std::int64_t image = g.in_c * g.in_h * g.in_w;
    return std::max(g.colRows() * g.colCols(), image) / image;
}

Shape
ConvLayer::outputShape(std::span<const Shape> in) const
{
    GIST_ASSERT(in.size() == 1, "conv takes one input");
    const ConvGeometry g = geometry(in[0]);
    GIST_ASSERT(g.outH() > 0 && g.outW() > 0, "conv output collapses: ",
                in[0].toString());
    return Shape::nchw(in[0].n(), spec_.out_channels, g.outH(), g.outW());
}

void
ConvLayer::initParams(Rng &rng)
{
    // He initialization: N(0, sqrt(2 / fan_in)).
    const double fan_in =
        static_cast<double>(in_c * spec_.kernel_h * spec_.kernel_w);
    const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
    weight.reallocate();
    for (std::int64_t i = 0; i < weight.numel(); ++i)
        weight.at(i) = rng.normal(0.0f, stddev);
    bias_.reallocate();
    d_weight.reallocate();
    d_bias.reallocate();
}

std::vector<Tensor *>
ConvLayer::params()
{
    if (spec_.bias)
        return { &weight, &bias_ };
    return { &weight };
}

std::vector<Tensor *>
ConvLayer::paramGrads()
{
    if (spec_.bias)
        return { &d_weight, &d_bias };
    return { &d_weight };
}

std::uint64_t
ConvLayer::workspaceBytes(std::span<const Shape> in) const
{
    const ConvGeometry g = geometry(in[0]);
    return static_cast<std::uint64_t>(g.colRows()) *
           static_cast<std::uint64_t>(g.colCols()) * 4;
}

void
ConvLayer::forward(const FwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.output, "conv forward args");
    const Tensor &x = *ctx.inputs[0];
    Tensor &y = *ctx.output;
    last_in_shape = x.shape();
    const ConvGeometry g = geometry(x.shape());
    const std::int64_t batch = x.shape().n();
    const std::int64_t p = g.colCols();
    const std::int64_t out_c = spec_.out_channels;
    // Y_b (out_c x p) = W (out_c x k) * col(X_b) for the whole batch in
    // one implicit GEMM: no column matrix, only the GEMM's pack scratch.
    gemmConv(g, batch, out_c, weight.data(), x.data(), y.data());
    if (spec_.bias) {
        for (std::int64_t img = 0; img < batch; ++img) {
            for (std::int64_t oc = 0; oc < out_c; ++oc) {
                const float b = bias_.at(oc);
                float *row = y.data() + (img * out_c + oc) * p;
                for (std::int64_t j = 0; j < p; ++j)
                    row[j] += b;
            }
        }
    }
}

void
ConvLayer::backward(const BwdCtx &ctx)
{
    const Tensor *x = ctx.inputs[0];
    const EncodedStash x_enc =
        ctx.encoded_inputs.empty() ? EncodedStash{} : ctx.encoded_inputs[0];
    GIST_ASSERT((x || x_enc.valid()) && ctx.d_output,
                "conv backward needs stashed X (dense or encoded) and dY");
    const Tensor &dy = *ctx.d_output;
    Tensor *dx = ctx.d_inputs[0];
    const Shape &in_shape = x ? x->shape() : last_in_shape;
    GIST_ASSERT(in_shape.rank() == 4,
                "conv backward before any forward pass");
    const ConvGeometry g = geometry(in_shape);
    const std::int64_t batch = in_shape.n();
    const std::int64_t image_elems = in_c * g.in_h * g.in_w;
    const std::int64_t k = g.colRows();
    const std::int64_t p = g.colCols();
    const std::int64_t out_c = spec_.out_channels;

    d_weight.setZero();
    if (spec_.bias)
        d_bias.setZero();

    // dX reads only W and dY: one implicit GEMM per sub-pixel phase over
    // the whole batch, accumulating into dX, before any tile buffer is
    // taken.
    if (dx)
        gemmConvDx(g, batch, out_c, weight.data(), dy.data(), dx->data());

    // "Optimized software" (paper Section V-H): an encoded stash is
    // decoded one tile of images at a time (decodeTileImages()) into a
    // buffer of k * p floats, never to a full FP32 buffer. A dense X is
    // read in place, the whole batch as one tile.
    const bool decode = !x;
    const std::int64_t tile = decode ? decodeTileImages(g) : batch;
    ArenaScope scope;
    float *buf = decode ? scope.alloc<float>(static_cast<size_t>(
                              std::max(k * p, image_elems)))
                        : nullptr;
    for (std::int64_t t0 = 0; t0 < batch; t0 += tile) {
        const std::int64_t t1 = std::min(batch, t0 + tile);
        if (decode)
            x_enc.decodeRange(
                t0 * image_elems,
                { buf, static_cast<size_t>((t1 - t0) * image_elems) });
        // dW += dY (out_c x tile*p) * col(X_tile)^T (tile*p x k)
        gemmConvDw(g, t1 - t0, out_c, dy.data() + t0 * out_c * p,
                   decode ? buf : x->data() + t0 * image_elems,
                   d_weight.data());
    }
    if (spec_.bias)
        biasGrad(dy.data(), batch, out_c, p, d_bias.data());
}

} // namespace gist
