#include "layers/pool.hpp"

#include <algorithm>
#include <limits>

#include "memory/arena.hpp"
#include "simd/dispatch.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

ConvGeometry
poolGeometry(const PoolSpec &spec, const Shape &in)
{
    GIST_ASSERT(in.rank() == 4, "pool expects NCHW, got ", in.toString());
    ConvGeometry g;
    g.in_c = in.c();
    g.in_h = in.h();
    g.in_w = in.w();
    g.kernel_h = spec.kernel_h;
    g.kernel_w = spec.kernel_w;
    g.stride_h = spec.stride_h;
    g.stride_w = spec.stride_w;
    g.pad_h = spec.pad_h;
    g.pad_w = spec.pad_w;
    return g;
}

Shape
poolOutputShape(const PoolSpec &spec, std::span<const Shape> in)
{
    GIST_ASSERT(in.size() == 1, "pool takes one input");
    const ConvGeometry g = poolGeometry(spec, in[0]);
    GIST_ASSERT(g.outH() > 0 && g.outW() > 0, "pool output collapses: ",
                in[0].toString());
    return Shape::nchw(in[0].n(), in[0].c(), g.outH(), g.outW());
}

} // namespace

ConvGeometry
MaxPoolLayer::geometry(const Shape &in) const
{
    return poolGeometry(spec_, in);
}

Shape
MaxPoolLayer::outputShape(std::span<const Shape> in) const
{
    // Every window then holds an in-bounds tap for its argmax.
    GIST_ASSERT(spec_.pad_h < spec_.kernel_h && spec_.pad_w < spec_.kernel_w,
                "maxpool padding must be smaller than the window");
    return poolOutputShape(spec_, in);
}

std::uint64_t
MaxPoolLayer::auxStashBytes(std::span<const Shape> in) const
{
    if (stash_mode == StashMode::Dense)
        return 0;
    const Shape out = poolOutputShape(spec_, in);
    return poolIndexMapBytes(out.numel(), spec_.kernel_h, spec_.kernel_w);
}

namespace {

/** Fill of buffer positions no input lands on: NaN is never > and never
 *  == anything, so a padded tap loses every comparison (DESIGN §5d). */
constexpr float kBorder = std::numeric_limits<float>::quiet_NaN();

/** Outputs one scan covers at most, bounding the position scratch. */
constexpr std::int64_t kScanOutputs = 1024;
/** Floats of padded planes one scan reads at most. With kScanOutputs
 *  this caps a pool's arena frame near 13 KiB, under what the tiny
 *  models' conv layers already hold, so pooling adds no workspace. */
constexpr std::int64_t kScanFloats = 2304;

/**
 * How max pool feeds its planes to the SIMD window scans (DESIGN §5d).
 * A padded pool copies its planes into a buffer whose border is NaN; an
 * unpadded one scans the input in place. Output (oh, ow) of a plane
 * reads window tap t = (kh, kw) at plane[oh * stride_h * pitch + ow *
 * stride_w + tap_off[t]]; one scan covers `block` planes. Arrays live in
 * the caller's arena frame.
 */
struct MaxPoolPlan
{
    ConvGeometry g;
    std::int64_t out_h, out_w, out_hw, taps;
    bool padded;             ///< planes go through the NaN buffer
    std::int64_t buf_h;      ///< buffer rows per plane: those windows read
    std::int64_t pitch;      ///< row pitch of what a scan reads
    std::int64_t block;      ///< planes per scan
    std::int64_t *tap_off;   ///< per tap: kh * pitch + kw
    std::int64_t *x_off;     ///< per tap: kh * in_w + kw
    std::int32_t *first_tap; ///< per output: first in-bounds tap, or null

    MaxPoolPlan(const ConvGeometry &geom, std::int64_t planes,
                ArenaScope &scope)
        : g(geom), out_h(geom.outH()), out_w(geom.outW()),
          out_hw(out_h * out_w), taps(geom.kernel_h * geom.kernel_w),
          padded(geom.pad_h > 0 || geom.pad_w > 0),
          buf_h((out_h - 1) * geom.stride_h + geom.kernel_h),
          pitch(padded ? (out_w - 1) * geom.stride_w + geom.kernel_w
                       : geom.in_w),
          block(std::max<std::int64_t>(
              1, std::min({ planes, kScanOutputs / out_hw,
                            padded ? kScanFloats / (buf_h * pitch)
                                   : planes }))),
          first_tap(nullptr)
    {
        tap_off = scope.alloc<std::int64_t>(static_cast<size_t>(taps));
        x_off = scope.alloc<std::int64_t>(static_cast<size_t>(taps));
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
            for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
                tap_off[kh * g.kernel_w + kw] = kh * pitch + kw;
                x_off[kh * g.kernel_w + kw] = kh * g.in_w + kw;
            }
        if (!padded)
            return; // every window starts in bounds: tap 0
        // The scalar scan started each window at -inf, so a window with
        // nothing above -inf keeps its start position: make that the
        // first in-bounds tap (padding < kernel guarantees one).
        first_tap = scope.alloc<std::int32_t>(static_cast<size_t>(out_hw));
        for (std::int64_t oh = 0; oh < out_h; ++oh)
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
                const std::int64_t kh0 =
                    std::max<std::int64_t>(0, g.pad_h - oh * g.stride_h);
                const std::int64_t kw0 =
                    std::max<std::int64_t>(0, g.pad_w - ow * g.stride_w);
                first_tap[oh * out_w + ow] =
                    static_cast<std::int32_t>(kh0 * g.kernel_w + kw0);
            }
    }

    size_t
    bufFloats() const
    {
        return static_cast<size_t>(block * buf_h * pitch);
    }

    /**
     * The scan of @p planes planes starting at @p x: the input itself,
     * or, when padded, those planes copied into @p buf (border NaN).
     */
    simd::PoolScan
    scan(const float *x, std::int64_t planes, float *buf) const
    {
        const std::int64_t in_hw = g.in_h * g.in_w;
        if (!padded)
            return { x,    in_hw,  g.stride_h * pitch, g.stride_w, tap_off,
                     taps, planes, out_h,              out_w };
        const std::int64_t cols = std::min(g.in_w, pitch - g.pad_w);
        const std::int64_t rows = std::min(g.in_h, buf_h - g.pad_h);
        for (std::int64_t q = 0; q < planes; ++q)
            for (std::int64_t ih = 0; ih < rows; ++ih) {
                const float *s = x + q * in_hw + ih * g.in_w;
                float *d = buf + (q * buf_h + ih + g.pad_h) * pitch +
                           g.pad_w;
                for (std::int64_t k = 0; k < cols; ++k)
                    d[k] = s[k];
            }
        return { buf,  buf_h * pitch, g.stride_h * pitch, g.stride_w,
                 tap_off, taps,       planes,             out_h,
                 out_w };
    }

    /**
     * dX[window tap pos] += dY for the outputs of @p planes planes, in
     * output order, so every dX element sums in the scalar loop's order.
     */
    void
    scatter(const std::int32_t *pos, std::int64_t planes, const float *dy,
            float *dx) const
    {
        // One range check for the block keeps the scatter branch-free.
        const std::int64_t n = planes * out_hw;
        bool bad = false;
        for (std::int64_t k = 0; k < n; ++k)
            bad |= static_cast<std::uint64_t>(pos[k]) >=
                   static_cast<std::uint64_t>(taps);
        GIST_ASSERT(!bad, "maxpool argmax not found");
        const std::int64_t in_hw = g.in_h * g.in_w;
        std::int64_t k = 0;
        for (std::int64_t q = 0; q < planes; ++q)
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                const std::int64_t row =
                    q * in_hw + (oh * g.stride_h - g.pad_h) * g.in_w -
                    g.pad_w;
                for (std::int64_t ow = 0; ow < out_w; ++ow, ++k)
                    dx[row + ow * g.stride_w + x_off[pos[k]]] += dy[k];
            }
    }
};

/** Planes per parallel chunk: enough work to pay for a dispatch. */
std::int64_t
planeGrain(const MaxPoolPlan &plan, std::int64_t planes, std::int64_t align)
{
    const std::int64_t per_plane = plan.out_hw * plan.taps;
    return chooseGrain(planes, std::max<std::int64_t>(1, 16384 / per_plane),
                       align);
}

} // namespace

void
MaxPoolLayer::forward(const FwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.output, "maxpool fwd args");
    const Tensor &x = *ctx.inputs[0];
    Tensor &y = *ctx.output;
    const ConvGeometry g = geometry(x.shape());
    const std::int64_t planes = x.shape().n() * x.shape().c();
    const std::int64_t in_hw = g.in_h * g.in_w;
    const std::int64_t out_hw = g.outH() * g.outW();

    const bool record = ctx.training && stash_mode == StashMode::IndexMap;
    if (record)
        index_map.configure(planes * out_hw, spec_.kernel_h,
                            spec_.kernel_w);
    // Planes whose 4-bit map entries share a byte stay on one thread.
    const std::int64_t align =
        record && index_map.bitsPerEntry() == 4 && (out_hw & 1) ? 2 : 1;

    ArenaScope scope;
    const MaxPoolPlan plan(g, planes, scope);
    const auto argmax = simd::ops().maxPoolArgmax;
    parallelFor(0, planes, planeGrain(plan, planes, align),
                [&](std::int64_t lo, std::int64_t hi) {
        ArenaScope local;
        float *buf = plan.padded ? local.alloc<float>(plan.bufFloats())
                                 : nullptr;
        auto *pos = local.alloc<std::int32_t>(
            static_cast<size_t>(plan.block * out_hw));
        if (buf)
            std::fill_n(buf, plan.bufFloats(), kBorder);
        for (std::int64_t p0 = lo; p0 < hi; p0 += plan.block) {
            const std::int64_t np = std::min(plan.block, hi - p0);
            argmax(plan.scan(x.data() + p0 * in_hw, np, buf),
                   plan.first_tap, y.data() + p0 * out_hw, pos);
            if (record)
                index_map.setRow(p0 * out_hw, pos, np * out_hw);
        }
    });
}

void
MaxPoolLayer::backward(const BwdCtx &ctx)
{
    GIST_ASSERT(ctx.d_output, "maxpool backward needs dY");
    Tensor *dx = ctx.d_inputs[0];
    if (!dx)
        return;
    const Tensor &dy = *ctx.d_output;
    const ConvGeometry g = geometry(dx->shape());
    const std::int64_t planes = dx->shape().n() * dx->shape().c();
    const std::int64_t in_hw = g.in_h * g.in_w;
    const std::int64_t out_hw = g.outH() * g.outW();

    const bool dense = stash_mode == StashMode::Dense;
    const Tensor *x = ctx.inputs[0];
    const Tensor *y = ctx.output;
    if (dense) {
        GIST_ASSERT(x && y,
                    "maxpool (dense mode) needs stashed X and Y");
    } else {
        GIST_ASSERT(index_map.numel() == dy.numel(),
                    "maxpool index map not captured for this minibatch");
    }

    ArenaScope scope;
    const MaxPoolPlan plan(g, planes, scope);
    const auto match = simd::ops().maxPoolMatch;
    parallelFor(0, planes, planeGrain(plan, planes, 1),
                [&](std::int64_t lo, std::int64_t hi) {
        ArenaScope local;
        float *buf = dense && plan.padded
                         ? local.alloc<float>(plan.bufFloats())
                         : nullptr;
        auto *pos = local.alloc<std::int32_t>(
            static_cast<size_t>(plan.block * out_hw));
        if (buf)
            std::fill_n(buf, plan.bufFloats(), kBorder);
        for (std::int64_t p0 = lo; p0 < hi; p0 += plan.block) {
            const std::int64_t np = std::min(plan.block, hi - p0);
            if (dense) // the first tap equal to Y, as the forward's argmax
                match(plan.scan(x->data() + p0 * in_hw, np, buf),
                      y->data() + p0 * out_hw, pos);
            else
                index_map.getRow(p0 * out_hw, np * out_hw, pos);
            plan.scatter(pos, np, dy.data() + p0 * out_hw,
                         dx->data() + p0 * in_hw);
        }
    });
}

void
MaxPoolLayer::releaseAuxStash()
{
    index_map.clear();
}

ConvGeometry
AvgPoolLayer::geometry(const Shape &in) const
{
    return poolGeometry(spec_, in);
}

Shape
AvgPoolLayer::outputShape(std::span<const Shape> in) const
{
    return poolOutputShape(spec_, in);
}

void
AvgPoolLayer::forward(const FwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.output, "avgpool fwd args");
    const Tensor &x = *ctx.inputs[0];
    Tensor &y = *ctx.output;
    last_in_shape = x.shape();
    const ConvGeometry g = geometry(x.shape());
    const std::int64_t batch = x.shape().n();
    const std::int64_t channels = x.shape().c();
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();

    float *yd = y.data();
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            const float *plane =
                x.data() + (n * channels + c) * g.in_h * g.in_w;
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
                    float sum = 0.0f;
                    std::int64_t count = 0;
                    for (std::int64_t kh = 0; kh < spec_.kernel_h; ++kh) {
                        const std::int64_t ih =
                            oh * g.stride_h - g.pad_h + kh;
                        if (ih < 0 || ih >= g.in_h)
                            continue;
                        for (std::int64_t kw = 0; kw < spec_.kernel_w;
                             ++kw) {
                            const std::int64_t iw =
                                ow * g.stride_w - g.pad_w + kw;
                            if (iw < 0 || iw >= g.in_w)
                                continue;
                            sum += plane[ih * g.in_w + iw];
                            ++count;
                        }
                    }
                    yd[out_idx] =
                        count ? sum / static_cast<float>(count) : 0.0f;
                }
            }
        }
    }
}

void
AvgPoolLayer::backward(const BwdCtx &ctx)
{
    GIST_ASSERT(ctx.d_output, "avgpool backward needs dY");
    Tensor *dx = ctx.d_inputs[0];
    if (!dx)
        return;
    const Tensor &dy = *ctx.d_output;
    const ConvGeometry g = geometry(dx->shape());
    const std::int64_t batch = dx->shape().n();
    const std::int64_t channels = dx->shape().c();
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();

    const float *dyd = dy.data();
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            float *dplane =
                dx->data() + (n * channels + c) * g.in_h * g.in_w;
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
                    // Count in-bounds taps (matches forward's divisor).
                    std::int64_t count = 0;
                    for (std::int64_t kh = 0; kh < spec_.kernel_h; ++kh) {
                        const std::int64_t ih =
                            oh * g.stride_h - g.pad_h + kh;
                        if (ih < 0 || ih >= g.in_h)
                            continue;
                        for (std::int64_t kw = 0; kw < spec_.kernel_w;
                             ++kw) {
                            const std::int64_t iw =
                                ow * g.stride_w - g.pad_w + kw;
                            if (iw >= 0 && iw < g.in_w)
                                ++count;
                        }
                    }
                    if (!count)
                        continue;
                    const float share =
                        dyd[out_idx] / static_cast<float>(count);
                    for (std::int64_t kh = 0; kh < spec_.kernel_h; ++kh) {
                        const std::int64_t ih =
                            oh * g.stride_h - g.pad_h + kh;
                        if (ih < 0 || ih >= g.in_h)
                            continue;
                        for (std::int64_t kw = 0; kw < spec_.kernel_w;
                             ++kw) {
                            const std::int64_t iw =
                                ow * g.stride_w - g.pad_w + kw;
                            if (iw >= 0 && iw < g.in_w)
                                dplane[ih * g.in_w + iw] += share;
                        }
                    }
                }
            }
        }
    }
}

} // namespace gist
