/**
 * @file
 * Single-precision GEMM. This is the "dense compute" substrate that conv
 * (via im2col) and fully-connected layers run on — the CPU stand-in for
 * cuDNN/cuBLAS dense kernels in the paper.
 */

#pragma once

#include <cstdint>

#include "encodings/csr.hpp"
#include "tensor/pack.hpp"

namespace gist {

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

} // namespace gist
