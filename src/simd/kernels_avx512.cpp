/**
 * @file
 * AVX-512 backend: the avx2 table with an AVX-512F GEMM block kernel
 * (per-file -mavx512f -mavx2 -mfma -O3). Every other kernel is avx2's,
 * so the codec and layer kernels are the same code on both tiers.
 *
 * A zmm register holds a whole 16-column strip row, so the block kernel
 * keeps three 6-row panels (18 rows) of C in 18 accumulators and pays
 * one B load per 18 broadcast-FMAs, against one load per 6 on avx2.
 * Edges are lane masks on the C loads and stores (columns >= nr) and
 * skipped rows (rows >= mc), with no bounce tile. Each C element is
 * still one FMA chain over p ascending from C or +0, exactly as in
 * avx2's 6 x 16 tile, so the two tiers are bitwise-equal.
 */

#include "simd/dispatch.hpp"

#if GIST_SIMD_X86

#include <immintrin.h>

namespace gist::simd {
namespace {

/**
 * kPanels stacked 6-row panels against one strip: rows [0, rows) of
 * the 6 * kPanels are loaded (when @p accumulate) and stored under the
 * column mask @p cols; the rest are computed from the zero pad rows of
 * the A pack and dropped.
 */
template <int kPanels>
inline void
gemmPanelsAvx512(std::int64_t kc, const float *a, std::int64_t rows,
                 const float *b, float *c, std::int64_t ldc,
                 __mmask16 cols, bool accumulate)
{
    constexpr int kMR = static_cast<int>(kGemmMR);
    constexpr int kRows = kPanels * kMR;
    // One walking pointer per panel keeps every broadcast a fixed
    // displacement off it.
    const float *ap[kPanels];
    for (int q = 0; q < kPanels; ++q)
        ap[q] = a + q * kc * kGemmMR;
    __m512 acc[kRows];
#pragma GCC unroll 18
    for (int i = 0; i < kRows; ++i)
        acc[i] = accumulate && i < rows
                     ? _mm512_maskz_loadu_ps(cols, c + i * ldc)
                     : _mm512_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p, b += kGemmNR) {
        const __m512 bv = _mm512_loadu_ps(b);
#pragma GCC unroll 18
        for (int i = 0; i < kRows; ++i)
            acc[i] = _mm512_fmadd_ps(_mm512_set1_ps(ap[i / kMR][i % kMR]),
                                     bv, acc[i]);
        for (int q = 0; q < kPanels; ++q)
            ap[q] += kGemmMR;
    }
#pragma GCC unroll 18
    for (int i = 0; i < kRows; ++i)
        if (i < rows)
            _mm512_mask_storeu_ps(c + i * ldc, cols, acc[i]);
}

/** Three panels per pass while more than two remain, then two or one:
 *  m = 16 is one pass, m = 48 three. */
void
gemmBlockAvx512(std::int64_t kc, const float *a, std::int64_t mc,
                const float *b, float *c, std::int64_t ldc, std::int64_t nr,
                bool accumulate)
{
    const auto cols = static_cast<__mmask16>((1u << nr) - 1u);
    std::int64_t i = 0;
    for (; mc - i > 2 * kGemmMR; i += 3 * kGemmMR)
        gemmPanelsAvx512<3>(kc, a + i * kc, mc - i, b, c + i * ldc, ldc,
                            cols, accumulate);
    if (mc - i > kGemmMR)
        gemmPanelsAvx512<2>(kc, a + i * kc, mc - i, b, c + i * ldc, ldc,
                            cols, accumulate);
    else if (mc > i)
        gemmPanelsAvx512<1>(kc, a + i * kc, mc - i, b, c + i * ldc, ldc,
                            cols, accumulate);
}

} // namespace

const SimdOps &
avx512Ops()
{
    static const SimdOps ops = [] {
        SimdOps o = avx2Ops();
        o.name = "avx512";
        o.backend = Backend::Avx512;
        o.gemmBlock = gemmBlockAvx512;
        return o;
    }();
    return ops;
}

} // namespace gist::simd

#endif // GIST_SIMD_X86
