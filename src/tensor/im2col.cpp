#include "tensor/im2col.hpp"

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace gist {

void
im2col(const ConvGeometry &geom, const float *image, float *columns)
{
    GIST_TRACE_SCOPE("compute", "im2col");
    const std::int64_t out_h = geom.outH();
    const std::int64_t out_w = geom.outW();
    const std::int64_t kernel = geom.kernel_h * geom.kernel_w;
    const std::int64_t rows = geom.in_c * kernel;
    // Each (c, kh, kw) triple owns one disjoint output row of `columns`,
    // so the row range parallelizes with no synchronization.
    parallelFor(0, rows, chooseGrain(rows, 1),
                [&, out_h, out_w](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
            const std::int64_t c = row / kernel;
            const std::int64_t kh = (row / geom.kernel_w) % geom.kernel_h;
            const std::int64_t kw = row % geom.kernel_w;
            float *out_row = columns + row * (out_h * out_w);
            const float *img_plane = image + c * geom.in_h * geom.in_w;
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                const std::int64_t ih =
                    oh * geom.stride_h - geom.pad_h + kh;
                if (ih < 0 || ih >= geom.in_h) {
                    for (std::int64_t ow = 0; ow < out_w; ++ow)
                        out_row[oh * out_w + ow] = 0.0f;
                    continue;
                }
                const float *img_row = img_plane + ih * geom.in_w;
                for (std::int64_t ow = 0; ow < out_w; ++ow) {
                    const std::int64_t iw =
                        ow * geom.stride_w - geom.pad_w + kw;
                    out_row[oh * out_w + ow] =
                        (iw < 0 || iw >= geom.in_w) ? 0.0f : img_row[iw];
                }
            }
        }
    });
}

void
col2im(const ConvGeometry &geom, const float *columns, float *image)
{
    GIST_TRACE_SCOPE("compute", "col2im");
    const std::int64_t out_h = geom.outH();
    const std::int64_t out_w = geom.outW();
    // col2im scatters with += : different (kh, kw) rows of the same
    // channel overlap in the image, but different *channels* never do,
    // so the channel axis is the widest race-free parallel unit. The
    // per-channel (kh, kw, oh, ow) accumulation order matches the serial
    // code exactly, keeping results bitwise-identical at any thread
    // count.
    parallelFor(0, geom.in_c, 1,
                [&, out_h, out_w](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
            float *img_plane = image + c * geom.in_h * geom.in_w;
            std::int64_t row = c * geom.kernel_h * geom.kernel_w;
            for (std::int64_t kh = 0; kh < geom.kernel_h; ++kh) {
                for (std::int64_t kw = 0; kw < geom.kernel_w;
                     ++kw, ++row) {
                    const float *in_row = columns + row * (out_h * out_w);
                    // The in-bounds ow of this (kh, kw) tap are the same
                    // for every oh: iw = ow * stride_w + iw0.
                    const std::int64_t iw0 = kw - geom.pad_w;
                    const TapSpan ow_span =
                        tapSpan(iw0, geom.stride_w, geom.in_w, out_w);
                    const std::int64_t len = ow_span.hi - ow_span.lo;
                    if (len == 0)
                        continue;
                    for (std::int64_t oh = 0; oh < out_h; ++oh) {
                        const std::int64_t ih =
                            oh * geom.stride_h - geom.pad_h + kh;
                        if (ih < 0 || ih >= geom.in_h)
                            continue;
                        const float *__restrict src =
                            in_row + oh * out_w + ow_span.lo;
                        float *__restrict dst = img_plane +
                                                ih * geom.in_w + iw0 +
                                                ow_span.lo * geom.stride_w;
                        if (geom.stride_w == 1) {
                            for (std::int64_t t = 0; t < len; ++t)
                                dst[t] += src[t];
                        } else {
                            for (std::int64_t t = 0; t < len; ++t)
                                dst[t * geom.stride_w] += src[t];
                        }
                    }
                }
            }
        }
    });
}

} // namespace gist
