#include "layers/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "memory/arena.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {

namespace {

/**
 * Row-sparse weight-gradient accumulation for one image: for every
 * stored nonzero v at (c, ih, iw) and every (kh, kw) tap reading it,
 * dW^T[row(c,kh,kw)] += v * dY^T[pos(oh,ow)] — one contiguous axpy over
 * output channels per (nonzero, tap). Channels own disjoint dw_t row
 * bands, so the channel axis parallelizes race-free with a
 * thread-count-independent accumulation order.
 */
void
sparseConvDw(const ConvGeometry &g, const CsrConstView &stash,
             std::int64_t image_offset, std::int64_t out_c,
             const float *dy_img, float *dy_t, float *dw_t)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    const std::int64_t p = out_h * out_w;
    const std::int64_t kernel = g.kernel_h * g.kernel_w;
    const std::int64_t plane = g.in_h * g.in_w;
    // dy_t holds dY^T (p x out_c) so the inner accumulation streams a
    // contiguous out_c-wide row per tap.
    parallelFor(0, p, chooseGrain(p, 64),
                [&](std::int64_t j0, std::int64_t j1) {
        for (std::int64_t j = j0; j < j1; ++j)
            for (std::int64_t oc = 0; oc < out_c; ++oc)
                dy_t[j * out_c + oc] = dy_img[oc * p + j];
    });
    parallelFor(0, g.in_c, 1, [&](std::int64_t c0, std::int64_t c1) {
        ArenaScope scope;
        float *vals =
            scope.alloc<float>(static_cast<size_t>(stash.row_width));
        const auto axpy = simd::ops().axpy;
        for (std::int64_t c = c0; c < c1; ++c) {
            float *dw_band = dw_t + c * kernel * out_c;
            const std::int64_t flat0 = image_offset + c * plane;
            const std::int64_t r0 = flat0 / stash.row_width;
            const std::int64_t r1 =
                (flat0 + plane - 1) / stash.row_width;
            for (std::int64_t r = r0; r <= r1; ++r) {
                const auto k0 = static_cast<std::int64_t>(
                    stash.row_ptr[static_cast<size_t>(r)]);
                const auto k1 = static_cast<std::int64_t>(
                    stash.row_ptr[static_cast<size_t>(r + 1)]);
                if (k0 == k1)
                    continue;
                csrValues(stash, k0, k1, vals);
                const std::int64_t row_base = r * stash.row_width;
                for (std::int64_t kk = k0; kk < k1; ++kk) {
                    const std::int64_t flat =
                        row_base +
                        static_cast<std::int64_t>(csrColAt(stash, kk));
                    if (flat < flat0 || flat >= flat0 + plane)
                        continue;
                    const float v = vals[kk - k0];
                    if (v == 0.0f)
                        continue;
                    const std::int64_t local = flat - flat0;
                    const std::int64_t ih = local / g.in_w;
                    const std::int64_t iw = local % g.in_w;
                    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
                        const std::int64_t oh_num = ih + g.pad_h - kh;
                        if (oh_num < 0)
                            break; // decreases with kh
                        if (oh_num % g.stride_h != 0)
                            continue;
                        const std::int64_t oh = oh_num / g.stride_h;
                        if (oh >= out_h)
                            continue;
                        for (std::int64_t kw = 0; kw < g.kernel_w;
                             ++kw) {
                            const std::int64_t ow_num =
                                iw + g.pad_w - kw;
                            if (ow_num < 0)
                                break;
                            if (ow_num % g.stride_w != 0)
                                continue;
                            const std::int64_t ow =
                                ow_num / g.stride_w;
                            if (ow >= out_w)
                                continue;
                            axpy(out_c, v,
                                 dy_t + (oh * out_w + ow) * out_c,
                                 dw_band +
                                     (kh * g.kernel_w + kw) * out_c);
                        }
                    }
                }
            }
        }
    });
}

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
    const bool sparse_dw =
        !x && x_enc.fused && x_enc.sparse_compute && x_enc.csr;
    // "Optimized software" (paper Section V-H): an encoded stash is
    // decoded one tile of images at a time, never to a full FP32
    // buffer. The tile buffer holds k * p floats (at least one image)
    // and doubles as dX's column-gradient scratch, so the tile size is
    // fixed by the geometry: 9 images for a 3x3 stride-1 conv, 1 for a
    // 1x1. A dense X is read in place, the whole batch as one tile.
    const bool decode = !x && !sparse_dw;
    const std::int64_t buf_elems = std::max(k * p, image_elems);
    const std::int64_t tile = decode ? buf_elems / image_elems : batch;
    ArenaScope scope;
    // Without a decode the buffer is only dX's: it is taken after the
    // dW GEMM, so that GEMM's pack scratch and it never share the frame.
    float *buf = decode ? scope.alloc<float>(static_cast<size_t>(buf_elems))
                        : nullptr;
    float *dw_t = nullptr;
    float *dy_t = nullptr;
    if (sparse_dw) {
        dw_t = scope.alloc<float>(static_cast<size_t>(k * out_c));
        dy_t = scope.alloc<float>(static_cast<size_t>(p * out_c));
        std::memset(dw_t, 0,
                    static_cast<size_t>(k * out_c) * sizeof(float));
    }

    d_weight.setZero();
    if (spec_.bias)
        d_bias.setZero();

    for (std::int64_t t0 = 0; t0 < batch; t0 += tile) {
        const std::int64_t t1 = std::min(batch, t0 + tile);
        if (sparse_dw) {
            // Row-sparse dW: dW^T[r] += v * dY^T[col] for every stored
            // nonzero's (r = c*kh*kw tap row, col = oh*ow position)
            // pair — compute scales with nnz instead of k * p.
            for (std::int64_t img = t0; img < t1; ++img)
                sparseConvDw(g, x_enc.csr->view(), img * image_elems,
                             out_c, dy.data() + img * out_c * p, dy_t,
                             dw_t);
        } else {
            if (decode)
                x_enc.decodeRange(
                    t0 * image_elems,
                    { buf, static_cast<size_t>((t1 - t0) * image_elems) });
            // dW += dY (out_c x tile*p) * col(X_tile)^T (tile*p x k)
            gemmConvDw(g, t1 - t0, out_c, dy.data() + t0 * out_c * p,
                       decode ? buf : x->data() + t0 * image_elems,
                       d_weight.data());
        }

        if (dx && !buf)
            buf = scope.alloc<float>(static_cast<size_t>(k * p));
        for (std::int64_t img = t0; dx && img < t1; ++img) {
            // dcol (k x p) = W^T (k x out_c) * dY (out_c x p), into the
            // tile buffer the dW GEMM is done with.
            gemm(true, false, k, p, out_c, 1.0f, weight.data(),
                 dy.data() + img * out_c * p, 0.0f, buf);
            col2im(g, buf, dx->data() + img * image_elems); // accumulates
        }
    }
    if (spec_.bias)
        biasGrad(dy.data(), batch, out_c, p, d_bias.data());

    if (sparse_dw) {
        // Fold the transposed accumulator back into d_weight's layout.
        float *dw = d_weight.data();
        for (std::int64_t r = 0; r < k; ++r)
            for (std::int64_t oc = 0; oc < out_c; ++oc)
                dw[oc * k + r] += dw_t[r * out_c + oc];
    }
}

} // namespace gist
