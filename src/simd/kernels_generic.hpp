/**
 * @file
 * Generic kernel bodies: the scalar backend's whole table, and the
 * max-pool scans the avx2 TU falls back to for column strides it does
 * not hand-write.
 *
 * Included exactly once per backend translation unit with two macros
 * set:
 *
 *   GIST_KIMPL_NS     the namespace the kernels are emitted into
 *                     (kernels_scalar / kernels_avx2_generic);
 *   GIST_KIMPL_NOVEC  attribute pinning codec loops unvectorized in the
 *                     scalar TU (empty elsewhere), so "scalar" stays a
 *                     true one-lane reference even at -O3 while the
 *                     avx2 TU lets the compiler auto-vectorize the
 *                     identical branchless formulas.
 *
 * The codecs are branchless integer arithmetic from sf_codes.hpp and the
 * layer kernels (ReLU backward, max pool) only compare, select and add
 * single floats, so every instantiation produces bitwise-identical
 * output.
 */

#ifndef GIST_KIMPL_NS
#error "define GIST_KIMPL_NS before including kernels_generic.hpp"
#endif

#include <cstdint>
#include <limits>

#include "simd/dispatch.hpp"
#include "simd/sf_codes.hpp"

namespace gist::simd {
namespace GIST_KIMPL_NS {

template <int IDX>
GIST_KIMPL_NOVEC void
sfEncodeCodesLoop(const SfLayout &, const float *src, std::int64_t n,
                  std::uint32_t *codes)
{
    constexpr SfLayout L = kSfLayouts[IDX]; // compile-time shift counts
    const auto *bits = reinterpret_cast<const std::uint32_t *>(src);
    for (std::int64_t i = 0; i < n; ++i)
        codes[i] = sfEncodeCode(L, bits[i]);
}

template <int IDX>
GIST_KIMPL_NOVEC void
sfDecodeCodesLoop(const SfLayout &, const std::uint32_t *codes,
                  std::int64_t n, float *dst)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    auto *out = reinterpret_cast<std::uint32_t *>(dst);
    for (std::int64_t i = 0; i < n; ++i)
        out[i] = sfDecodeCode(L, codes[i]);
}

template <int IDX>
GIST_KIMPL_NOVEC void
sfEncode(const float *src, std::int64_t n, std::uint32_t *words)
{
    sfEncodeBlocks(kSfLayouts[IDX], src, n, words, sfEncodeCodesLoop<IDX>);
}

template <int IDX>
GIST_KIMPL_NOVEC void
sfDecode(const std::uint32_t *words, std::int64_t n, float *dst)
{
    sfDecodeBlocks(kSfLayouts[IDX], words, n, dst, sfDecodeCodesLoop<IDX>);
}

template <int IDX>
GIST_KIMPL_NOVEC void
sfQuantize(float *values, std::int64_t n)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    auto *bits = reinterpret_cast<std::uint32_t *>(values);
    for (std::int64_t i = 0; i < n; ++i)
        bits[i] = sfDecodeCode(L, sfEncodeCode(L, bits[i]));
}

GIST_KIMPL_NOVEC inline void
binarizeEncode(const float *values, std::int64_t n, std::uint8_t *bytes)
{
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint32_t acc = 0;
        for (int b = 0; b < 8; ++b)
            acc |= static_cast<std::uint32_t>(values[i + b] > 0.0f) << b;
        *bytes++ = static_cast<std::uint8_t>(acc);
    }
    if (i < n) {
        std::uint32_t acc = 0;
        for (int b = 0; i + b < n; ++b)
            acc |= static_cast<std::uint32_t>(values[i + b] > 0.0f) << b;
        *bytes = static_cast<std::uint8_t>(acc);
    }
}

GIST_KIMPL_NOVEC inline void
binarizeBackward(const std::uint8_t *bytes, const float *dy, std::int64_t n,
                 float *dx)
{
    for (std::int64_t i = 0; i < n; ++i)
        dx[i] += (bytes[i >> 3] >> (i & 7)) & 1u ? dy[i] : 0.0f;
}

GIST_KIMPL_NOVEC inline void
reluBackward(const float *y, const float *dy, std::int64_t n, float *dx)
{
    for (std::int64_t i = 0; i < n; ++i)
        dx[i] += y[i] > 0.0f ? dy[i] : 0.0f;
}

GIST_KIMPL_NOVEC inline void
maxPoolArgmax(const PoolScan &s, const std::int32_t *first, float *best,
              std::int32_t *pos)
{
    std::int64_t j = 0;
    for (std::int64_t q = 0; q < s.planes; ++q)
        for (std::int64_t r = 0; r < s.rows; ++r)
            for (std::int64_t c = 0; c < s.cols; ++c, ++j) {
                const float *w = s.src + q * s.plane_pitch +
                                 r * s.row_pitch + c * s.col_stride;
                float b = -std::numeric_limits<float>::infinity();
                std::int32_t p = first ? first[r * s.cols + c] : 0;
                for (std::int64_t t = 0; t < s.taps; ++t) {
                    const float v = w[s.off[t]];
                    const bool gt = v > b;
                    b = gt ? v : b;
                    p = gt ? static_cast<std::int32_t>(t) : p;
                }
                best[j] = b;
                pos[j] = p;
            }
}

GIST_KIMPL_NOVEC inline void
maxPoolMatch(const PoolScan &s, const float *y, std::int32_t *pos)
{
    std::int64_t j = 0;
    for (std::int64_t q = 0; q < s.planes; ++q)
        for (std::int64_t r = 0; r < s.rows; ++r)
            for (std::int64_t c = 0; c < s.cols; ++c, ++j) {
                const float *w = s.src + q * s.plane_pitch +
                                 r * s.row_pitch + c * s.col_stride;
                std::int32_t p = -1;
                for (std::int64_t t = s.taps - 1; t >= 0; --t)
                    p = w[s.off[t]] == y[j] ? static_cast<std::int32_t>(t)
                                            : p;
                pos[j] = p;
            }
}

GIST_KIMPL_NOVEC inline std::int64_t
countNonzero(const float *values, std::int64_t n)
{
    std::int64_t count = 0;
    for (std::int64_t i = 0; i < n; ++i)
        count += (values[i] != 0.0f);
    return count;
}

GIST_KIMPL_NOVEC inline std::int64_t
csrFill(const float *values, std::int64_t n, std::uint8_t *idx, float *out,
        bool /*pad_ok*/)
{
    std::int64_t k = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        const float v = values[i];
        if (v == 0.0f)
            continue;
        idx[k] = static_cast<std::uint8_t>(i);
        out[k] = v;
        ++k;
    }
    return k;
}

template <int IDX>
GIST_KIMPL_NOVEC void
sfEncodeCodes(const float *src, std::int64_t n, std::uint32_t *codes)
{
    sfEncodeCodesLoop<IDX>(kSfLayouts[IDX], src, n, codes);
}

/* The float GEMM kernels are NOT pinned unvectorized: the scalar
 * backend only has to be the bitwise reference for the integer codecs,
 * and letting the compiler vectorize axpy/gemmBlock keeps
 * GIST_SIMD=scalar from regressing GEMM against the pre-dispatch code. */

inline void
axpy(std::int64_t n, float a, const float *x, float *y)
{
    for (std::int64_t j = 0; j < n; ++j)
        y[j] += a * x[j];
}

/** Row @p p of @p b: a full row where it lies, a partial one copied
 *  into @p tmp with its masked lanes as +0, never loaded. */
inline const float *
loadRow(const BRows &b, std::int64_t p, float *tmp)
{
    if (b.off == nullptr)
        return b.base + p * kGemmNR;
    const float *row = b.base + b.off[p];
    const unsigned mask = b.mask[b.tap[p]];
    if (mask == 0xffffu)
        return row;
    for (std::int64_t j = 0; j < kGemmNR; ++j)
        tmp[j] = mask >> j & 1u ? row[j] : 0.0f;
    return tmp;
}

/** SimdOps::gemmBlock one C row at a time: a kGemmNR-float accumulator
 *  fits in registers where a whole MR x NR tile would spill, at the
 *  price of re-reading the L1-resident B strip per row. */
inline void
gemmBlock(std::int64_t kc, const float *a, std::int64_t mc, const BRows &b,
          float *c, std::int64_t ldc, std::int64_t nr, bool accumulate)
{
    for (std::int64_t r = 0; r < mc; ++r) {
        // Row r is row i of panel r / kGemmMR.
        const float *panel = a + r / kGemmMR * kc * kGemmMR;
        const std::int64_t i = r % kGemmMR;
        float acc[kGemmNR] = {};
        float *c_row = c + r * ldc;
        if (accumulate)
            for (std::int64_t j = 0; j < nr; ++j)
                acc[j] = c_row[j];
        for (std::int64_t p = 0; p < kc; ++p) {
            const float av = panel[p * kGemmMR + i];
            float tmp[kGemmNR];
            const float *b_row = loadRow(b, p, tmp);
            for (std::int64_t j = 0; j < kGemmNR; ++j)
                acc[j] += av * b_row[j];
        }
        for (std::int64_t j = 0; j < nr; ++j)
            c_row[j] = acc[j];
    }
}

/** SimdOps::packTransposed: row j of @p rows becomes column j. */
inline void
packTransposed(const BRows &rows, float *dst)
{
    for (std::int64_t j = 0; j < kGemmNR; ++j) {
        float tmp[kGemmNR];
        const float *row = loadRow(rows, j, tmp);
        for (std::int64_t t = 0; t < kGemmNR; ++t)
            dst[t * kGemmNR + j] = row[t];
    }
}

} // namespace GIST_KIMPL_NS
} // namespace gist::simd
