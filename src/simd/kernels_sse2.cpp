/**
 * @file
 * SSE backend: the generic branchless kernels compiled for the x86-64
 * SSE4.2 baseline (per-file -msse4.2 -O3, see src/simd/CMakeLists.txt)
 * so the compiler auto-vectorizes the integer codec formulas 4-wide,
 * plus hand-written compare+movemask loops for the paths whose scalar
 * form the vectorizer cannot restructure (binarize packing, nonzero
 * counting). Bitwise-identical to the scalar reference by construction:
 * identical integer arithmetic, identical tail handling.
 */

#define GIST_KIMPL_NOVEC
#define GIST_KIMPL_NS kernels_sse2

#include "simd/kernels_generic.hpp"

#include "simd/dispatch.hpp"

#if GIST_SIMD_X86
#include <nmmintrin.h> // SSE4.2 (includes SSE2, SSSE3, popcnt)

#include <cstring>

namespace gist::simd {
namespace {

void
binarizeEncodeSse(const float *values, std::int64_t n, std::uint8_t *bytes)
{
    const __m128 zero = _mm_setzero_ps();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int lo = _mm_movemask_ps(
            _mm_cmpgt_ps(_mm_loadu_ps(values + i), zero));
        const int hi = _mm_movemask_ps(
            _mm_cmpgt_ps(_mm_loadu_ps(values + i + 4), zero));
        *bytes++ = static_cast<std::uint8_t>(lo | (hi << 4));
    }
    if (i < n) {
        std::uint32_t acc = 0;
        for (int b = 0; i + b < n; ++b)
            acc |= static_cast<std::uint32_t>(values[i + b] > 0.0f) << b;
        *bytes = static_cast<std::uint8_t>(acc);
    }
}

std::int64_t
countNonzeroSse(const float *values, std::int64_t n)
{
    const __m128 zero = _mm_setzero_ps();
    std::int64_t count = 0;
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // NEQ is unordered-or-unequal: NaN counts as nonzero, -0.0 does
        // not — exactly the scalar v != 0.0f.
        const __m128 m =
            _mm_cmpneq_ps(_mm_loadu_ps(values + i), zero);
        count += _mm_popcnt_u32(
            static_cast<unsigned>(_mm_movemask_ps(m)));
    }
    for (; i < n; ++i)
        count += (values[i] != 0.0f);
    return count;
}

/**
 * Compress-store tables for csrFillSse, one entry per 4-bit nonzero
 * mask: shuf[m] moves the set lanes' dword bytes to the front (for
 * _mm_shuffle_epi8), pos[m] packs the set lane numbers as bytes so the
 * in-row column indices fall out of one 32-bit add.
 */
struct CsrFillLutSse
{
    alignas(16) std::uint8_t shuf[16][16];
    std::uint32_t pos[16];
};

const CsrFillLutSse &
csrFillLutSse()
{
    static const CsrFillLutSse lut = [] {
        CsrFillLutSse t{};
        for (unsigned m = 0; m < 16; ++m) {
            unsigned c = 0;
            for (unsigned b = 0; b < 4; ++b) {
                if (!((m >> b) & 1u))
                    continue;
                for (unsigned j = 0; j < 4; ++j)
                    t.shuf[m][c * 4 + j] =
                        static_cast<std::uint8_t>(b * 4 + j);
                t.pos[m] |= b << (8 * c);
                ++c;
            }
            for (; c < 4; ++c)
                for (unsigned j = 0; j < 4; ++j)
                    t.shuf[m][c * 4 + j] = 0;
        }
        return t;
    }();
    return lut;
}

std::int64_t
csrFillSse(const float *values, std::int64_t n, std::uint8_t *idx,
           float *out, bool pad_ok)
{
    if (n > 256) // narrow-index contract; keep the reference behavior
        return kernels_sse2::csrFill(values, n, idx, out, pad_ok);
    if (!pad_ok) {
        // Stage into padded stack buffers, then copy exactly count
        // elements so no store lands past the caller's slice.
        alignas(16) float vtmp[256 + 4];
        std::uint8_t itmp[256 + 4];
        const std::int64_t k = csrFillSse(values, n, itmp, vtmp, true);
        std::memcpy(out, vtmp, static_cast<size_t>(k) * sizeof(float));
        std::memcpy(idx, itmp, static_cast<size_t>(k));
        return k;
    }
    const CsrFillLutSse &lut = csrFillLutSse();
    const __m128 zero = _mm_setzero_ps();
    std::int64_t k = 0;
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 v = _mm_loadu_ps(values + i);
        // Same predicate as countNonzeroSse: unordered NEQ, so NaN is
        // kept and -0.0 dropped — count and fill must agree exactly.
        const auto m = static_cast<unsigned>(
            _mm_movemask_ps(_mm_cmpneq_ps(v, zero)));
        if (!m)
            continue;
        const __m128i shuf = _mm_load_si128(
            reinterpret_cast<const __m128i *>(lut.shuf[m]));
        _mm_storeu_ps(out + k,
                      _mm_castsi128_ps(_mm_shuffle_epi8(
                          _mm_castps_si128(v), shuf)));
        const std::uint32_t pos =
            lut.pos[m] + 0x01010101u * static_cast<std::uint32_t>(i);
        std::memcpy(idx + k, &pos, sizeof(pos));
        k += _mm_popcnt_u32(m);
    }
    for (; i < n; ++i) {
        const float v = values[i];
        if (v != 0.0f) {
            idx[k] = static_cast<std::uint8_t>(i);
            out[k] = v;
            ++k;
        }
    }
    return k;
}

} // namespace

const SimdOps &
sse2Ops()
{
    namespace k = kernels_sse2;
    static const SimdOps ops = {
        "sse2",
        Backend::Sse2,
        { k::sfEncode<kSfFp16>, k::sfEncode<kSfFp10>, k::sfEncode<kSfFp8> },
        { k::sfDecode<kSfFp16>, k::sfDecode<kSfFp10>, k::sfDecode<kSfFp8> },
        { k::sfQuantize<kSfFp16>, k::sfQuantize<kSfFp10>,
          k::sfQuantize<kSfFp8> },
        binarizeEncodeSse,
        k::binarizeBackward,
        countNonzeroSse,
        csrFillSse,
        { k::sfEncodeCodes<kSfFp16>, k::sfEncodeCodes<kSfFp10>,
          k::sfEncodeCodes<kSfFp8> },
        k::axpy,
        k::gemmBlock,
        k::reluBackward,
        k::maxPoolArgmax,
        k::maxPoolMatch,
    };
    return ops;
}

} // namespace gist::simd

#endif // GIST_SIMD_X86
