/**
 * @file
 * Single-precision GEMM. This is the "dense compute" substrate that conv
 * (as implicit GEMM) and fully-connected layers run on — the CPU
 * stand-in for cuDNN/cuBLAS dense kernels in the paper.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "encodings/csr.hpp"
#include "tensor/im2col.hpp"
#include "tensor/pack.hpp"

namespace gist {

/**
 * Most step-arena bytes one GEMM call's pack scratch takes on each
 * thread that runs its tiles: an MC x KC block of packed A plus one
 * KC x NR strip of packed B (48 x 128 + 128 x 16 floats). Calls with
 * small m or k take less.
 */
inline constexpr std::size_t kGemmPackScratchBytes =
    (48 * 128 + 128 * 16) * sizeof(float);

/**
 * C = alpha * op(A) * op(B) + beta * C.
 *
 * All matrices are dense row-major. op(A) is A (m x k) or A^T when
 * @p trans_a (A stored k x m); likewise for B.
 *
 * All three entry points run one packed core: op(A) is packed (times
 * alpha) into 6-row panels, op(B) into 16-column strips, and a
 * register microkernel (simd::SimdOps::gemmMicro) computes each C
 * element as one chain c = c + a * b over p ascending, started from
 * beta * C (from +0 when beta == 0, so a garbage C is never read).
 * Only the pack sources differ between the entry points, so their
 * results are bitwise-identical for the same operand values, at any
 * thread count. Zero entries of A are not skipped: NaN/Inf in B
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
 * gemm() with op(A) = A (m x k row-major, no transpose) supplied in
 * flat-CSR form: the A panels are packed by scattering the stored
 * nonzeros straight from row_ptr/col_idx, so A is never decoded to a
 * dense matrix. Bitwise-identical to decoding A and calling
 * gemm(false, false, ...). @p a must hold exactly m * k encoded values.
 */
void gemmCsrA(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const CsrConstView &a, const float *b, float beta, float *c);

/**
 * Implicit-GEMM convolution forward over a minibatch: for each of the
 * @p batch images X_b (C x H x W, contiguous in @p x), Y_b = W * col(X_b)
 * with W (@p out_c x k) and Y_b (@p out_c x p) contiguous in @p y, where
 * k = g.colRows() and p = g.colCols(). Bias is the caller's.
 *
 * One GEMM with n = batch * p: each 16-column B strip is packed straight
 * from x (16 output positions of one image — a strip never straddles
 * two images, an image's last strip may be partial), and its C block is
 * written in place in Y_b, so the column matrix is never formed.
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
 * images, the B strips are packed straight from x. Each dW element
 * continues one chain over (image, p) ascending, so the result is
 * bitwise-identical to gemm(false, true, out_c, k, p, 1, dy_b, col_b,
 * 1, dw) image after image.
 */
void gemmConvDw(const ConvGeometry &g, std::int64_t batch,
                std::int64_t out_c, const float *dy, const float *x,
                float *dw);

} // namespace gist
