/**
 * @file
 * AVX2 backend: hand-written 8-wide intrinsics for the codec, GEMM and
 * ReLU / max-pool hot loops (per-file -mavx2 -mfma -mf16c -O3).
 *
 * The small-float conversions are pure integer exponent/mantissa
 * arithmetic — the same branchless formulas as sf_codes.hpp lane-lifted
 * onto __m256i (compares produce lane masks, selects are blends), so
 * codec output is bitwise-identical to the scalar reference including
 * NaN/inf/denormal and rounding-tie inputs. Tails shorter than a vector
 * fall back to the shared scalar formulas, which are identical by
 * construction.
 *
 * F16C is deliberately NOT used for the FP16 path: VCVTPS2PH keeps NaNs
 * and produces half denormals, while the paper's codec flushes denormals
 * and encodes NaN as +0 — the integer pipeline matches the reference
 * bit-for-bit and serves all three formats uniformly.
 */

#include "simd/dispatch.hpp"

#if GIST_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "simd/sf_codes.hpp"

#define GIST_KIMPL_NOVEC
#define GIST_KIMPL_NS kernels_avx2_generic
#include "simd/kernels_generic.hpp"

namespace gist::simd {
namespace {

/** Lane-lifted sfEncodeCode: 8 FP32 bit patterns -> 8 codes. */
template <int IDX>
inline __m256i
encodeCodes8(__m256i u)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    constexpr int m = static_cast<int>(L.m_bits);
    constexpr int shift = 23 - m;
    constexpr std::uint32_t man_mask = (1u << m) - 1u;

    const __m256i sign = _mm256_srli_epi32(u, 31);
    const __m256i f32_exp =
        _mm256_and_si256(_mm256_srli_epi32(u, 23), _mm256_set1_epi32(0xff));
    const __m256i f32_man =
        _mm256_and_si256(u, _mm256_set1_epi32(0x7fffff));
    const __m256i sign_shifted =
        _mm256_slli_epi32(sign, static_cast<int>(L.e_bits) + m);
    const __m256i max_finite = _mm256_or_si256(
        sign_shifted,
        _mm256_set1_epi32(
            (static_cast<std::int32_t>(L.max_exp_field) << m) |
            static_cast<std::int32_t>(man_mask)));

    // Round-to-nearest-even of the 24-bit significand (see sf_codes.hpp).
    const __m256i frac24 =
        _mm256_or_si256(f32_man, _mm256_set1_epi32(1 << 23));
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(frac24, shift),
                                         _mm256_set1_epi32(1));
    __m256i t = _mm256_srli_epi32(
        _mm256_add_epi32(frac24,
                         _mm256_add_epi32(
                             lsb, _mm256_set1_epi32((1 << (shift - 1)) - 1))),
        shift);
    const __m256i carry = _mm256_srli_epi32(t, m + 1);
    t = _mm256_srlv_epi32(t, carry);

    const __m256i e_field = _mm256_add_epi32(
        _mm256_add_epi32(f32_exp, carry),
        _mm256_set1_epi32(L.bias - 127));

    const __m256i normal = _mm256_or_si256(
        _mm256_or_si256(sign_shifted, _mm256_slli_epi32(e_field, m)),
        _mm256_and_si256(t, _mm256_set1_epi32(
                                static_cast<std::int32_t>(man_mask))));

    const __m256i is_special =
        _mm256_cmpeq_epi32(f32_exp, _mm256_set1_epi32(0xff));
    const __m256i man_is_zero =
        _mm256_cmpeq_epi32(f32_man, _mm256_setzero_si256());
    const __m256i is_nan = _mm256_andnot_si256(man_is_zero, is_special);
    const __m256i is_input_zero =
        _mm256_cmpeq_epi32(f32_exp, _mm256_setzero_si256());
    const __m256i overflow = _mm256_cmpgt_epi32(
        e_field, _mm256_set1_epi32(L.max_exp_field));
    const __m256i underflow =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(1), e_field);

    __m256i r = _mm256_blendv_epi8(normal, max_finite, overflow);
    r = _mm256_blendv_epi8(r, sign_shifted,
                           _mm256_or_si256(underflow, is_input_zero));
    r = _mm256_blendv_epi8(r, max_finite, is_special); // +/-inf clamps
    r = _mm256_andnot_si256(is_nan, r);                // NaN encodes as +0
    return r;
}

/** Lane-lifted sfDecodeCode: 8 codes -> 8 FP32 bit patterns. */
template <int IDX>
inline __m256i
decodeCodes8(__m256i code)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    constexpr int m = static_cast<int>(L.m_bits);

    const __m256i sign = _mm256_and_si256(
        _mm256_srli_epi32(code, static_cast<int>(L.e_bits) + m),
        _mm256_set1_epi32(1));
    const __m256i e_field = _mm256_and_si256(
        _mm256_srli_epi32(code, m),
        _mm256_set1_epi32((1 << L.e_bits) - 1));
    const __m256i man =
        _mm256_and_si256(code, _mm256_set1_epi32((1 << m) - 1));
    const __m256i e_is_zero =
        _mm256_cmpeq_epi32(e_field, _mm256_setzero_si256());
    const __m256i f32_exp =
        _mm256_add_epi32(e_field, _mm256_set1_epi32(127 - L.bias));
    const __m256i body =
        _mm256_or_si256(_mm256_slli_epi32(f32_exp, 23),
                        _mm256_slli_epi32(man, 23 - m));
    return _mm256_or_si256(_mm256_slli_epi32(sign, 31),
                           _mm256_andnot_si256(e_is_zero, body));
}

template <int IDX>
void
encodeCodesSpan(const SfLayout &, const float *src, std::int64_t n,
                std::uint32_t *codes)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    const auto *bits = reinterpret_cast<const std::uint32_t *>(src);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(codes + i),
            encodeCodes8<IDX>(_mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(bits + i))));
    for (; i < n; ++i)
        codes[i] = sfEncodeCode(L, bits[i]);
}

template <int IDX>
void
decodeCodesSpan(const SfLayout &, const std::uint32_t *codes,
                std::int64_t n, float *dst)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    auto *out = reinterpret_cast<std::uint32_t *>(dst);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + i),
            decodeCodes8<IDX>(_mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(codes + i))));
    for (; i < n; ++i)
        out[i] = sfDecodeCode(L, codes[i]);
}

template <int IDX>
void
sfEncodeAvx2(const float *src, std::int64_t n, std::uint32_t *words)
{
    sfEncodeBlocks(kSfLayouts[IDX], src, n, words, encodeCodesSpan<IDX>);
}

/**
 * FP16 skips the staged codes buffer entirely: encode 8 values, pack
 * the 8 halves into 4 words in-register (OR the odd lane shifted into
 * the even lane of each 64-bit pair, then compress the even 32-bit
 * lanes), and store 16 bytes.
 */
template <>
void
sfEncodeAvx2<kSfFp16>(const float *src, std::int64_t n,
                      std::uint32_t *words)
{
    constexpr SfLayout L = kSfLayouts[kSfFp16];
    const auto *bits = reinterpret_cast<const std::uint32_t *>(src);
    const __m256i gather_even =
        _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i codes = encodeCodes8<kSfFp16>(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bits + i)));
        // 64-bit pair (c_even | c_odd << 32) -> c_even | c_odd << 16.
        const __m256i paired =
            _mm256_or_si256(codes, _mm256_srli_epi64(codes, 16));
        const __m256i packed =
            _mm256_permutevar8x32_epi32(paired, gather_even);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(words + i / 2),
                         _mm256_castsi256_si128(packed));
    }
    if (i < n) {
        alignas(32) std::uint32_t codes[8];
        for (std::int64_t j = i; j < n; ++j)
            codes[j - i] = sfEncodeCode(L, bits[j]);
        sfPackWords(L, codes, n - i, words + i / 2);
    }
}

template <int IDX>
void
sfDecodeAvx2(const std::uint32_t *words, std::int64_t n, float *dst)
{
    sfDecodeBlocks(kSfLayouts[IDX], words, n, dst, decodeCodesSpan<IDX>);
}

/** FP16 unpack is a single 16->32 widen, so skip the staged buffer. */
template <>
void
sfDecodeAvx2<kSfFp16>(const std::uint32_t *words, std::int64_t n,
                      float *dst)
{
    constexpr SfLayout L = kSfLayouts[kSfFp16];
    auto *out = reinterpret_cast<std::uint32_t *>(dst);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i codes = _mm256_cvtepu16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(words + i / 2)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            decodeCodes8<kSfFp16>(codes));
    }
    for (; i < n; ++i) {
        const std::uint32_t w = words[i / 2];
        out[i] = sfDecodeCode(L, (w >> ((i & 1) * 16)) & 0xffffu);
    }
}

template <int IDX>
void
sfQuantizeAvx2(float *values, std::int64_t n)
{
    constexpr SfLayout L = kSfLayouts[IDX];
    auto *bits = reinterpret_cast<std::uint32_t *>(values);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i u = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bits + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(bits + i),
            decodeCodes8<IDX>(encodeCodes8<IDX>(u)));
    }
    for (; i < n; ++i)
        bits[i] = sfDecodeCode(L, sfEncodeCode(L, bits[i]));
}

void
binarizeEncodeAvx2(const float *values, std::int64_t n, std::uint8_t *bytes)
{
    const __m256 zero = _mm256_setzero_ps();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 m = _mm256_cmp_ps(_mm256_loadu_ps(values + i), zero,
                                       _CMP_GT_OQ);
        *bytes++ = static_cast<std::uint8_t>(_mm256_movemask_ps(m));
    }
    if (i < n) {
        std::uint32_t acc = 0;
        for (int b = 0; i + b < n; ++b)
            acc |= static_cast<std::uint32_t>(values[i + b] > 0.0f) << b;
        *bytes = static_cast<std::uint8_t>(acc);
    }
}

void
binarizeBackwardAvx2(const std::uint8_t *bytes, const float *dy,
                     std::int64_t n, float *dx)
{
    const __m256i bitpos =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i b = _mm256_set1_epi32(bytes[i >> 3]);
        const __m256i keep =
            _mm256_cmpeq_epi32(_mm256_and_si256(b, bitpos), bitpos);
        // Cleared lanes add +0.0f (all-zero bits), as the scalar form.
        const __m256 sel = _mm256_and_ps(_mm256_loadu_ps(dy + i),
                                         _mm256_castsi256_ps(keep));
        _mm256_storeu_ps(dx + i, _mm256_add_ps(_mm256_loadu_ps(dx + i),
                                               sel));
    }
    for (; i < n; ++i)
        dx[i] += (bytes[i >> 3] >> (i & 7)) & 1u ? dy[i] : 0.0f;
}

void
reluBackwardAvx2(const float *y, const float *dy, std::int64_t n, float *dx)
{
    const __m256 zero = _mm256_setzero_ps();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 keep =
            _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ);
        const __m256 sel = _mm256_and_ps(_mm256_loadu_ps(dy + i), keep);
        _mm256_storeu_ps(dx + i, _mm256_add_ps(_mm256_loadu_ps(dx + i),
                                               sel));
    }
    for (; i < n; ++i)
        dx[i] += y[i] > 0.0f ? dy[i] : 0.0f;
}

/** Lane mask of the first @p k lanes (0 <= k <= 8). */
inline __m256i
tailMask(std::int64_t k)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(k)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * Lane masks for a run of k <= 8 cells of one output row at column
 * stride S: `load` keeps every read inside the cells' own taps, `keep`
 * masks the stores.
 */
template <int S>
struct PoolMasks
{
    __m256i load[2];
    __m256i keep;

    explicit PoolMasks(std::int64_t k)
    {
        keep = tailMask(k);
        if (S == 1) {
            load[0] = load[1] = keep;
        } else { // floats 0 .. 2k-2: lanes 0-7, then 7-14
            load[0] = tailMask(std::min<std::int64_t>(8, 2 * k - 1));
            load[1] = tailMask(std::max<std::int64_t>(0, 2 * k - 8));
        }
    }
};

/** Up to 8 cells of one output row: cell i reads tap t at w[i * S +
 *  off[t]]. */
template <int S>
struct PoolBlock
{
    const float *w;
    std::int64_t j;     ///< output index of the first cell
    std::int64_t first; ///< index of the first cell in `first`
    const PoolMasks<S> *m;

    /** The cells' values of the tap at offset @p off. */
    __m256
    cells(std::int64_t off) const
    {
        const float *p = w + off;
        if (S == 1)
            return _mm256_maskload_ps(p, m->load[0]);
        // Even floats of 0-7 and (from 7-14) of 8-14, then restore
        // order across the 128-bit halves.
        const __m256 a = _mm256_maskload_ps(p, m->load[0]);
        const __m256 b = _mm256_maskload_ps(p + 7, m->load[1]);
        const __m256 ev = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 2, 0));
        return _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(ev), _MM_SHUFFLE(3, 1, 2, 0)));
    }
};

/**
 * Walks a PoolScan's output rows four 8-cell blocks at a time
 * (independent compare chains hide their latency). Blocks past the end
 * get all-zero masks, which read and store nothing.
 */
template <int S, typename Fn>
inline void
forPoolBlocks(const PoolScan &s, Fn &&fn)
{
    const PoolMasks<S> full(8), tail(s.cols % 8 ? s.cols % 8 : 8), none(0);
    std::int64_t q = 0, r = 0, c = 0; // next block's first cell
    for (std::int64_t j = 0, n = s.planes * s.rows * s.cols; j < n;) {
        PoolBlock<S> blk[4];
        for (auto &b : blk) {
            if (j >= n) {
                b = { s.src, 0, 0, &none };
                continue;
            }
            const bool whole = s.cols - c >= 8;
            b = { s.src + q * s.plane_pitch + r * s.row_pitch + c * S, j,
                  r * s.cols + c, whole ? &full : &tail };
            const std::int64_t k = whole ? 8 : s.cols - c;
            j += k;
            if ((c += k) == s.cols) {
                c = 0;
                if (++r == s.rows) {
                    r = 0;
                    ++q;
                }
            }
        }
        fn(blk);
    }
}

template <int S>
void
maxPoolArgmaxRows(const PoolScan &s, const std::int32_t *first,
                  float *best, std::int32_t *pos)
{
    forPoolBlocks<S>(s, [&](const PoolBlock<S> (&blk)[4]) {
        __m256 b[4], p[4];
        for (int u = 0; u < 4; ++u) {
            b[u] = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
            p[u] = first ? _mm256_castsi256_ps(_mm256_maskload_epi32(
                               first + blk[u].first, blk[u].m->keep))
                         : _mm256_setzero_ps();
        }
        for (std::int64_t t = 0; t < s.taps; ++t) {
            const __m256 tap = _mm256_castsi256_ps(
                _mm256_set1_epi32(static_cast<int>(t)));
            for (int u = 0; u < 4; ++u) {
                const __m256 v = blk[u].cells(s.off[t]);
                const __m256 gt = _mm256_cmp_ps(v, b[u], _CMP_GT_OQ);
                // MAXPS returns its second operand unless the first is
                // greater (NaN and equal values included): v > b ? v : b.
                b[u] = _mm256_max_ps(v, b[u]);
                p[u] = _mm256_blendv_ps(p[u], tap, gt);
            }
        }
        for (int u = 0; u < 4; ++u) {
            _mm256_maskstore_ps(best + blk[u].j, blk[u].m->keep, b[u]);
            _mm256_maskstore_epi32(pos + blk[u].j, blk[u].m->keep,
                                   _mm256_castps_si256(p[u]));
        }
    });
}

template <int S>
void
maxPoolMatchRows(const PoolScan &s, const float *y, std::int32_t *pos)
{
    forPoolBlocks<S>(s, [&](const PoolBlock<S> (&blk)[4]) {
        __m256 yv[4], p[4];
        for (int u = 0; u < 4; ++u) {
            yv[u] = _mm256_maskload_ps(y + blk[u].j, blk[u].m->keep);
            p[u] = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        }
        for (std::int64_t t = s.taps - 1; t >= 0; --t) {
            const __m256 tap = _mm256_castsi256_ps(
                _mm256_set1_epi32(static_cast<int>(t)));
            for (int u = 0; u < 4; ++u) {
                const __m256 eq =
                    _mm256_cmp_ps(blk[u].cells(s.off[t]), yv[u], _CMP_EQ_OQ);
                p[u] = _mm256_blendv_ps(p[u], tap, eq);
            }
        }
        for (int u = 0; u < 4; ++u)
            _mm256_maskstore_epi32(pos + blk[u].j, blk[u].m->keep,
                                   _mm256_castps_si256(p[u]));
    });
}

/* Column strides other than 1 and 2 (no model uses one) take the
 * one-lane loops. */

void
maxPoolArgmaxAvx2(const PoolScan &s, const std::int32_t *first,
                  float *best, std::int32_t *pos)
{
    if (s.col_stride == 1)
        maxPoolArgmaxRows<1>(s, first, best, pos);
    else if (s.col_stride == 2)
        maxPoolArgmaxRows<2>(s, first, best, pos);
    else
        kernels_avx2_generic::maxPoolArgmax(s, first, best, pos);
}

void
maxPoolMatchAvx2(const PoolScan &s, const float *y, std::int32_t *pos)
{
    if (s.col_stride == 1)
        maxPoolMatchRows<1>(s, y, pos);
    else if (s.col_stride == 2)
        maxPoolMatchRows<2>(s, y, pos);
    else
        kernels_avx2_generic::maxPoolMatch(s, y, pos);
}

std::int64_t
countNonzeroAvx2(const float *values, std::int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::int64_t count = 0;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Unordered-NEQ: NaN counts as nonzero, -0.0 does not.
        const __m256 m = _mm256_cmp_ps(_mm256_loadu_ps(values + i), zero,
                                       _CMP_NEQ_UQ);
        count += _mm_popcnt_u32(
            static_cast<unsigned>(_mm256_movemask_ps(m)));
    }
    for (; i < n; ++i)
        count += (values[i] != 0.0f);
    return count;
}

/**
 * Compress-store tables for csrFillAvx2, one entry per 8-bit nonzero
 * mask: perm[m] is a _mm256_permutevar8x32_ps control moving the set
 * lanes to the front, pos[m] packs the set lane numbers as bytes so the
 * eight in-row column indices fall out of one 64-bit add.
 */
struct CsrFillLutAvx2
{
    alignas(32) std::int32_t perm[256][8];
    std::uint64_t pos[256];
};

const CsrFillLutAvx2 &
csrFillLutAvx2()
{
    static const CsrFillLutAvx2 lut = [] {
        CsrFillLutAvx2 t{};
        for (unsigned m = 0; m < 256; ++m) {
            unsigned c = 0;
            for (unsigned b = 0; b < 8; ++b) {
                if (!((m >> b) & 1u))
                    continue;
                t.perm[m][c] = static_cast<std::int32_t>(b);
                t.pos[m] |= static_cast<std::uint64_t>(b) << (8 * c);
                ++c;
            }
        }
        return t;
    }();
    return lut;
}

std::int64_t
csrFillAvx2(const float *values, std::int64_t n, std::uint8_t *idx,
            float *out, bool pad_ok)
{
    if (n > 256) { // narrow-index contract; keep the reference behavior
        std::int64_t k = 0;
        for (std::int64_t i = 0; i < n; ++i) {
            const float v = values[i];
            if (v != 0.0f) {
                idx[k] = static_cast<std::uint8_t>(i);
                out[k] = v;
                ++k;
            }
        }
        return k;
    }
    if (!pad_ok) {
        // Stage into padded stack buffers, then copy exactly count
        // elements so no store lands past the caller's slice.
        alignas(32) float vtmp[256 + 8];
        std::uint8_t itmp[256 + 8];
        const std::int64_t k = csrFillAvx2(values, n, itmp, vtmp, true);
        if (k > 0) { // an empty slice may come with null out/idx
            std::memcpy(out, vtmp, static_cast<size_t>(k) * sizeof(float));
            std::memcpy(idx, itmp, static_cast<size_t>(k));
        }
        return k;
    }
    const CsrFillLutAvx2 &lut = csrFillLutAvx2();
    const __m256 zero = _mm256_setzero_ps();
    std::int64_t k = 0;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(values + i);
        // Same predicate as countNonzeroAvx2: unordered NEQ, so NaN is
        // kept and -0.0 dropped — count and fill must agree exactly.
        const auto m = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)));
        if (!m)
            continue;
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(lut.perm[m]));
        _mm256_storeu_ps(out + k, _mm256_permutevar8x32_ps(v, perm));
        const std::uint64_t pos =
            lut.pos[m] +
            0x0101010101010101ULL * static_cast<std::uint64_t>(i);
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

template <int IDX>
void
sfEncodeCodesAvx2(const float *src, std::int64_t n, std::uint32_t *codes)
{
    encodeCodesSpan<IDX>(kSfLayouts[IDX], src, n, codes);
}

void
axpyAvx2(std::int64_t n, float a, const float *x, float *y)
{
    const __m256 va = _mm256_set1_ps(a);
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m256 y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + j),
                                          _mm256_loadu_ps(y + j));
        const __m256 y1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + j + 8),
                                          _mm256_loadu_ps(y + j + 8));
        _mm256_storeu_ps(y + j, y0);
        _mm256_storeu_ps(y + j + 8, y1);
    }
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(y + j,
                         _mm256_fmadd_ps(va, _mm256_loadu_ps(x + j),
                                         _mm256_loadu_ps(y + j)));
    for (; j < n; ++j)
        y[j] += a * x[j];
}

/** Full 6 x 16 tile: twelve named ymm accumulators (an array of them
 *  gets spilled to the stack every iteration), two B loads and six A
 *  broadcasts per p. */
inline void
gemmTile6x16(std::int64_t kc, const float *a, const float *b, float *c,
             std::int64_t ldc, bool accumulate)
{
    static_assert(kGemmMR == 6 && kGemmNR == 16, "kernel is 6 x 16");
    __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00,
           c20 = c00, c21 = c00, c30 = c00, c31 = c00, c40 = c00,
           c41 = c00, c50 = c00, c51 = c00;
    if (accumulate) {
        c00 = _mm256_loadu_ps(c);
        c01 = _mm256_loadu_ps(c + 8);
        c10 = _mm256_loadu_ps(c + ldc);
        c11 = _mm256_loadu_ps(c + ldc + 8);
        c20 = _mm256_loadu_ps(c + 2 * ldc);
        c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
        c30 = _mm256_loadu_ps(c + 3 * ldc);
        c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
        c40 = _mm256_loadu_ps(c + 4 * ldc);
        c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
        c50 = _mm256_loadu_ps(c + 5 * ldc);
        c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
    }
    for (std::int64_t p = 0; p < kc; ++p, a += kGemmMR, b += kGemmNR) {
        const __m256 b0 = _mm256_loadu_ps(b);
        const __m256 b1 = _mm256_loadu_ps(b + 8);
        __m256 av = _mm256_broadcast_ss(a);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(a + 1);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(a + 2);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(a + 3);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
        av = _mm256_broadcast_ss(a + 4);
        c40 = _mm256_fmadd_ps(av, b0, c40);
        c41 = _mm256_fmadd_ps(av, b1, c41);
        av = _mm256_broadcast_ss(a + 5);
        c50 = _mm256_fmadd_ps(av, b0, c50);
        c51 = _mm256_fmadd_ps(av, b1, c51);
    }
    _mm256_storeu_ps(c, c00);
    _mm256_storeu_ps(c + 8, c01);
    _mm256_storeu_ps(c + ldc, c10);
    _mm256_storeu_ps(c + ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_storeu_ps(c + 4 * ldc + 8, c41);
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}

void
gemmMicroAvx2(std::int64_t kc, const float *a, const float *b, float *c,
              std::int64_t ldc, std::int64_t mr, std::int64_t nr,
              bool accumulate)
{
    if (mr == kGemmMR && nr == kGemmNR) {
        gemmTile6x16(kc, a, b, c, ldc, accumulate);
        return;
    }
    // Edge tile: run the full kernel on a bounce buffer so every
    // element sees the same FMA chain as in a full tile.
    alignas(32) float tile[kGemmMR * kGemmNR] = {};
    if (accumulate)
        for (std::int64_t i = 0; i < mr; ++i)
            std::memcpy(tile + i * kGemmNR, c + i * ldc,
                        static_cast<size_t>(nr) * sizeof(float));
    gemmTile6x16(kc, a, b, tile, kGemmNR, accumulate);
    for (std::int64_t i = 0; i < mr; ++i)
        std::memcpy(c + i * ldc, tile + i * kGemmNR,
                    static_cast<size_t>(nr) * sizeof(float));
}

} // namespace

const SimdOps &
avx2Ops()
{
    static const SimdOps ops = {
        "avx2",
        Backend::Avx2,
        { sfEncodeAvx2<kSfFp16>, sfEncodeAvx2<kSfFp10>,
          sfEncodeAvx2<kSfFp8> },
        { sfDecodeAvx2<kSfFp16>, sfDecodeAvx2<kSfFp10>,
          sfDecodeAvx2<kSfFp8> },
        { sfQuantizeAvx2<kSfFp16>, sfQuantizeAvx2<kSfFp10>,
          sfQuantizeAvx2<kSfFp8> },
        binarizeEncodeAvx2,
        binarizeBackwardAvx2,
        countNonzeroAvx2,
        csrFillAvx2,
        { sfEncodeCodesAvx2<kSfFp16>, sfEncodeCodesAvx2<kSfFp10>,
          sfEncodeCodesAvx2<kSfFp8> },
        axpyAvx2,
        gemmMicroAvx2,
        reluBackwardAvx2,
        maxPoolArgmaxAvx2,
        maxPoolMatchAvx2,
    };
    return ops;
}

} // namespace gist::simd

#endif // GIST_SIMD_X86
