/**
 * @file
 * AVX-512 backend: the avx2 table with an AVX-512F GEMM block kernel
 * and transposing pack (per-file -mavx512f -mavx2 -mfma -O3). Every
 * other kernel is avx2's, so the codec and layer kernels are the same
 * code on both tiers.
 *
 * A zmm register holds a whole 16-column strip row, so the block kernel
 * keeps three 6-row panels (18 rows) of C in 18 accumulators and pays
 * one B row load (masked when the row is partial) per 18
 * broadcast-FMAs, against two per 6 on avx2. A full packed strip is
 * walked by pointer; only a table stream reads a row offset and mask
 * per row. Edges are lane masks on the C loads and stores (columns >=
 * nr) and skipped rows (rows >= mc), with no bounce tile. Each C element is
 * still one FMA chain over p ascending from C or +0, exactly as in
 * avx2's 6 x 16 tile, so the two tiers are bitwise-equal.
 */

#include "simd/dispatch.hpp"

#if GIST_SIMD_X86

#include <immintrin.h>

namespace gist::simd {
namespace {

/** Rows of a full packed strip (BRows::off null), read one after the
 *  other: row p is the 16 floats at base + 16p, one plain load with no
 *  table to read. */
struct StripRows
{
    const float *row;

    __m512
    next()
    {
        const __m512 v = _mm512_loadu_ps(row);
        row += kGemmNR;
        return v;
    }
};

/**
 * Rows of any other BRows stream, read one after the other. A full row
 * takes a plain load: a masked load costs an extra uop on an FMA port,
 * about an eighth of the block kernel's speed, and the interior rows of
 * a conv window are full.
 */
struct TableRows
{
    const float *base;
    const std::int32_t *off;
    const std::uint8_t *tap;
    const std::uint16_t *mask;

    explicit TableRows(const BRows &b)
        : base(b.base), off(b.off), tap(b.tap), mask(b.mask)
    {
    }

    __m512
    next()
    {
        const unsigned m = mask[*tap++];
        const float *row = base + *off++;
        if (__builtin_expect(m == 0xffffu, 1))
            return _mm512_loadu_ps(row);
        return _mm512_maskz_loadu_ps(static_cast<__mmask16>(m), row);
    }
};

/**
 * kPanels stacked 6-row panels against one strip: rows [0, rows) of
 * the 6 * kPanels are loaded (when @p accumulate) and stored under the
 * column mask @p cols; the rest are computed from the zero pad rows of
 * the A pack and dropped.
 */
template <int kPanels, typename Rows>
inline void
gemmPanelsAvx512(std::int64_t kc, const float *a, std::int64_t rows,
                 Rows b, float *c, std::int64_t ldc,
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
    for (std::int64_t p = kc; p > 0; --p) {
        const __m512 bv = b.next();
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
template <typename Rows>
void
gemmPanelsAllAvx512(std::int64_t kc, const float *a, std::int64_t mc,
                    Rows b, float *c, std::int64_t ldc, __mmask16 cols,
                    bool accumulate)
{
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

void
gemmBlockAvx512(std::int64_t kc, const float *a, std::int64_t mc,
                const BRows &b, float *c, std::int64_t ldc, std::int64_t nr,
                bool accumulate)
{
    const auto cols = static_cast<__mmask16>((1u << nr) - 1u);
    if (b.off == nullptr)
        gemmPanelsAllAvx512(kc, a, mc, StripRows{ b.base }, c, ldc, cols,
                            accumulate);
    else
        gemmPanelsAllAvx512(kc, a, mc, TableRows{ b }, c, ldc, cols,
                            accumulate);
}

/**
 * SimdOps::packTransposed in registers: 16 row loads, then the
 * usual 16 x 16 transpose (unpack pairs of rows, shuffle pairs of those
 * within each 128-bit lane, then two rounds of 128-bit lane shuffles)
 * and 16 stores.
 */
// GCC 12 reports the _mm512_undefined_ps() inside these shuffle
// intrinsics as an uninitialized read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
void
packTransposedAvx512(const BRows &rows, float *dst)
{
    TableRows load(rows);
    __m512 r[16], t[16];
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j)
        r[j] = load.next();
#pragma GCC unroll 8
    for (int j = 0; j < 16; j += 2) {
        t[j] = _mm512_unpacklo_ps(r[j], r[j + 1]);
        t[j + 1] = _mm512_unpackhi_ps(r[j], r[j + 1]);
    }
    // v[4b + c]: in 128-bit lane L, column 4L + c of rows 4b..4b+3.
    __m512 v[16];
#pragma GCC unroll 4
    for (int b = 0; b < 16; b += 4) {
        v[b] = _mm512_shuffle_ps(t[b], t[b + 2], 0x44);
        v[b + 1] = _mm512_shuffle_ps(t[b], t[b + 2], 0xEE);
        v[b + 2] = _mm512_shuffle_ps(t[b + 1], t[b + 3], 0x44);
        v[b + 3] = _mm512_shuffle_ps(t[b + 1], t[b + 3], 0xEE);
    }
    // Output row 4L + c gathers lane L of v[c], v[4 + c], v[8 + c] and
    // v[12 + c].
#pragma GCC unroll 4
    for (int c = 0; c < 4; ++c) {
        const __m512 x0 = _mm512_shuffle_f32x4(v[c], v[4 + c], 0x44);
        const __m512 x1 = _mm512_shuffle_f32x4(v[c], v[4 + c], 0xEE);
        const __m512 y0 = _mm512_shuffle_f32x4(v[8 + c], v[12 + c], 0x44);
        const __m512 y1 = _mm512_shuffle_f32x4(v[8 + c], v[12 + c], 0xEE);
        _mm512_storeu_ps(dst + c * kGemmNR,
                         _mm512_shuffle_f32x4(x0, y0, 0x88));
        _mm512_storeu_ps(dst + (4 + c) * kGemmNR,
                         _mm512_shuffle_f32x4(x0, y0, 0xDD));
        _mm512_storeu_ps(dst + (8 + c) * kGemmNR,
                         _mm512_shuffle_f32x4(x1, y1, 0x88));
        _mm512_storeu_ps(dst + (12 + c) * kGemmNR,
                         _mm512_shuffle_f32x4(x1, y1, 0xDD));
    }
}
#pragma GCC diagnostic pop

} // namespace

const SimdOps &
avx512Ops()
{
    static const SimdOps ops = [] {
        SimdOps o = avx2Ops();
        o.name = "avx512";
        o.backend = Backend::Avx512;
        o.gemmBlock = gemmBlockAvx512;
        o.packTransposed = packTransposedAvx512;
        return o;
    }();
    return ops;
}

} // namespace gist::simd

#endif // GIST_SIMD_X86
