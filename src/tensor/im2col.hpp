/**
 * @file
 * Convolution geometry and the im2col / col2im lowering. No layer runs
 * the lowering any more: conv forward, dW and dX are implicit-GEMM
 * entry points in tensor/gemm.hpp that pack their operands straight
 * from the image or dY. im2col, col2im and tapSpan stay only because
 * perfbench/ replays them at the shapes collectKernelShapes() reports
 * and tests use them as references; they go when that replay does.
 */

#pragma once

#include <cstdint>


namespace gist {

/** Static geometry of a 2-D convolution / pooling window. */
struct ConvGeometry
{
    std::int64_t in_c = 0;     ///< input channels
    std::int64_t in_h = 0;     ///< input height
    std::int64_t in_w = 0;     ///< input width
    std::int64_t kernel_h = 0; ///< filter height
    std::int64_t kernel_w = 0; ///< filter width
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_h = 0;
    std::int64_t pad_w = 0;

    std::int64_t outH() const
    {
        return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
    }
    std::int64_t outW() const
    {
        return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
    }
    /** Rows of the column matrix: C * kh * kw. */
    std::int64_t colRows() const { return in_c * kernel_h * kernel_w; }
    /** Columns of the column matrix: outH * outW. */
    std::int64_t colCols() const { return outH() * outW(); }
};

/**
 * Taps t in [lo, hi) of a run whose input index is i0 + t * stride fall
 * inside [0, size); both ends are clamped to [0, len]. One window row of
 * a convolution is such a run, so its in-bounds part is one contiguous
 * (stride 1) or strided range with no per-element bounds test.
 */
struct TapSpan
{
    std::int64_t lo, hi;
};

inline TapSpan
tapSpan(std::int64_t i0, std::int64_t stride, std::int64_t size,
        std::int64_t len)
{
    auto clamp = [len](std::int64_t v) {
        return v < 0 ? std::int64_t{ 0 } : (v > len ? len : v);
    };
    if (stride == 1) {
        const std::int64_t lo = clamp(-i0);
        const std::int64_t hi = clamp(size - i0);
        return { lo, hi < lo ? lo : hi };
    }
    // First t with i0 + t * stride >= 0, first t with it >= size.
    const std::int64_t lo =
        clamp(i0 >= 0 ? 0 : (-i0 + stride - 1) / stride);
    const std::int64_t end = size - i0;
    const std::int64_t hi = clamp(end <= 0 ? 0 : (end + stride - 1) / stride);
    return { lo, hi < lo ? lo : hi };
}

/**
 * Expand a single image (C x H x W, contiguous) into a column matrix of
 * shape colRows() x colCols(); out-of-bounds taps read as zero.
 */
void im2col(const ConvGeometry &geom, const float *image, float *columns);

/**
 * Reverse of im2col: scatter-accumulate a column matrix back into an image
 * buffer (which must be pre-zeroed by the caller).
 */
void col2im(const ConvGeometry &geom, const float *columns, float *image);

} // namespace gist
