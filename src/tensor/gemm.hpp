/**
 * @file
 * Single-precision GEMM. This is the "dense compute" substrate that conv
 * (as implicit GEMM) and fully-connected layers run on — the CPU
 * stand-in for cuDNN/cuBLAS dense kernels in the paper.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/im2col.hpp"
#include "tensor/pack.hpp"

namespace gist {

/**
 * Most step-arena bytes one GEMM call's pack scratch takes on each
 * thread that runs its tiles: an MC x KC block of packed A plus one
 * KC x NR strip of packed B (48 x 128 + 128 x 16 floats). Calls with
 * small m or k take less, and so does a conv whose B is read in place:
 * its strip is the kernel_h * kernel_w lane masks of one 16-position
 * window, and the call's row table (5 bytes per row of B) sits in the
 * caller's frame.
 */
inline constexpr std::size_t kGemmPackScratchBytes =
    (48 * 128 + 128 * 16) * sizeof(float);

/**
 * C = alpha * op(A) * op(B) + beta * C.
 *
 * All matrices are dense row-major. op(A) is A (m x k) or A^T when
 * @p trans_a (A stored k x m); likewise for B.
 *
 * Every entry point below runs one packed core: op(A) is packed (times
 * alpha) into 6-row panels, op(B) is handed over in 16-column strips,
 * and a register block kernel (simd::SimdOps::gemmBlock) computes each
 * C element as one chain c = c + a * b over p ascending, started from
 * beta * C (from +0 when beta == 0, so a garbage C is never read). The
 * kernel reads a strip as a stream of (row address, lane mask) pairs
 * (simd::BRows): a packed strip, or rows of a conv operand read where
 * they lie. Only the B sources differ between the entry points, so
 * their results are bitwise-identical for the same operand values, at
 * any thread count. Zero entries of A are not skipped: NaN/Inf in B
 * propagates through them, as in BLAS.
 *
 * @param m rows of op(A) and C
 * @param n cols of op(B) and C
 * @param k cols of op(A) / rows of op(B)
 */
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float *a, const float *b,
          float beta, float *c);

/**
 * gemm() with op(B) = B (k x n row-major) supplied by a pack callback
 * instead of a dense pointer: each KC-row slice of B is decoded once
 * into step-arena scratch and the B strips are packed from there, so
 * the resident B footprint is KC * n floats instead of the full k * n
 * decode buffer. Bitwise-identical to decoding B densely first and
 * calling gemm(trans_a, false, ...).
 */
void gemmPackedB(bool trans_a, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float *a,
                 const PackFn &b_pack, float beta, float *c);

/**
 * Implicit-GEMM convolution forward over a minibatch: for each of the
 * @p batch images X_b (C x H x W, contiguous in @p x), Y_b = W * col(X_b)
 * with W (@p out_c x k) and Y_b (@p out_c x p) contiguous in @p y, where
 * k = g.colRows() and p = g.colCols(). Bias is the caller's.
 *
 * One GEMM with n = batch * p: each 16-column B strip is 16 output
 * positions of one image (a strip never straddles two images, an
 * image's last strip may be partial), and its C block is written in
 * place in Y_b, so the column matrix is never formed. At stride 1 with
 * out_w == in_w, strip row (c, kh, kw) is 16 consecutive floats of x,
 * read in place under a lane mask that zeroes the taps over the
 * padding; any other window's strip is gathered from x into a pack.
 * Bitwise-identical to im2col + gemm(false, false, out_c, p, k, 1, w,
 * col, 0, y_b) image by image.
 */
void gemmConv(const ConvGeometry &g, std::int64_t batch, std::int64_t out_c,
              const float *w, const float *x, float *y);

/**
 * Implicit-GEMM convolution weight gradient over @p batch images:
 * dW (@p out_c x k) += sum_b dY_b * col(X_b)^T, with dY_b (out_c x p)
 * contiguous in @p dy and X_b in @p x as for gemmConv(). One GEMM with
 * reduction length batch * p: the A panels are read from dY across the
 * images, the B strips are packed straight from x: at stride 1 with
 * out_w == in_w, each 16 positions of one image by the strip's 16 taps
 * as 16 masked row loads transposed in registers
 * (simd::SimdOps::packTransposed), else by a gather. Each dW element
 * continues one chain over (image, p) ascending, so the result is
 * bitwise-identical to gemm(false, true, out_c, k, p, 1, dy_b, col_b,
 * 1, dw) image after image.
 */
void gemmConvDw(const ConvGeometry &g, std::int64_t batch,
                std::int64_t out_c, const float *dy, const float *x,
                float *dw);

/**
 * One axis of sub-pixel phase r (0 <= r < stride) of a strided conv's
 * dX: the dX indices r, r + stride, ... (@c size of them) and the
 * kernel taps that reach them, first, first + stride, ... (@c taps of
 * them: those congruent to r + pad). dX index r + stride * u reads dY
 * index u + shift - t through tap first + stride * t. Stride 1 has one
 * phase holding every index and every tap. Phase (rh, rw) of
 * gemmConvDx() is one GEMM of m = C, n = batch * size_h * size_w and
 * k = out_c * taps_h * taps_w, skipped when n or k is 0.
 */
struct PhaseAxis
{
    std::int64_t first, taps, shift, size;
};

inline PhaseAxis
phaseAxis(std::int64_t r, std::int64_t stride, std::int64_t pad,
          std::int64_t kernel, std::int64_t in)
{
    const std::int64_t first = (r + pad) % stride;
    return { first,
             first < kernel ? (kernel - first + stride - 1) / stride : 0,
             (r + pad - first) / stride,
             r < in ? (in - r + stride - 1) / stride : 0 };
}

/**
 * Implicit-GEMM convolution input gradient over @p batch images, which
 * accumulates: dX_b (C x H x W, contiguous in @p dx) += dY_b convolved
 * with the flipped, transposed weights, dY_b (out_c x p) contiguous in
 * @p dy and W (out_c x C x kh x kw) read in place.
 *
 * A stride_h x stride_w conv splits into as many sub-pixel phases:
 * phase (rh, rw) owns the dX pixels (ih, iw) with ih % stride_h == rh
 * and iw % stride_w == rw, and only the kernel taps (kh, kw) that reach
 * them, kh = (rh + pad_h) mod stride_h (+ stride_h, ...) and likewise
 * in w. Each phase is one GEMM over the batch with m = C, n = the
 * phase's pixels, and reduction r = (oc, a, b) over its taps flipped
 * (kernel row and column descending); B comes straight from dY, read
 * in place as in gemmConv() when the phase's grid is as wide as dY
 * (stride 1, and most strided convs' phases). Stride 1 is one phase
 * holding every tap. So each dX element is one chain from its prior
 * value over (oc, a, b) ascending, where taps that read past dY's edge
 * add a * 0. No column matrix is formed. Each phase is one trace span.
 */
void gemmConvDx(const ConvGeometry &g, std::int64_t batch,
                std::int64_t out_c, const float *w, const float *dy,
                float *dx);

} // namespace gist
